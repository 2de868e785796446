//! Epoch-invalidated authorization decision cache.
//!
//! Trust-management mediation sits on every scheduling hot path
//! (Figure 3: the master consults its trust manager for every client ×
//! operation pair), and identical queries repeat heavily — the same
//! client keys are matched against the same action attributes for every
//! fireable node. [`DecisionCache`] memoises those boolean decisions,
//! keyed on the requesting principal and a fingerprint of the action
//! attributes (plus any request-presented credentials), and stamps each
//! entry with the [`KeyNoteSession`](hetsec_keynote::KeyNoteSession)
//! *epoch* under which it was computed.
//!
//! Invalidation is by epoch comparison, not by enumeration: every
//! semantic mutation of the underlying session (policy/credential
//! addition, value-set change, revocation) bumps the session epoch, and
//! a lookup only hits when the entry's epoch equals the session's
//! current epoch. A revocation therefore takes effect on the very next
//! decision without the cache having to know *which* entries the
//! mutation affected.

use hetsec_keynote::ast::Assertion;
use hetsec_keynote::eval::ActionAttributes;
use hetsec_keynote::print::print_assertion;
use parking_lot::Mutex;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of independently locked shards; keeps concurrent deciders off
/// each other's locks.
const SHARDS: usize = 16;

/// Cache key: who asked, and a fingerprint of what they asked for.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The requesting principal(s), comma-joined.
    pub principal: String,
    /// Fingerprint of the action attributes and presented credentials
    /// (see [`decision_fingerprint`]).
    pub fingerprint: u64,
}

struct Entry {
    /// Session epoch the decision was computed under.
    epoch: u64,
    permitted: bool,
    /// Logical clock for least-recently-used eviction.
    last_used: u64,
}

/// Hit/miss/invalidation counters, cheap to copy out.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to fall through to evaluation.
    pub misses: u64,
    /// Entries discarded because their epoch was stale (counted within
    /// the misses they caused).
    pub invalidations: u64,
    /// Entries evicted to stay within capacity.
    pub evictions: u64,
}

/// A sharded, bounded, epoch-invalidated map from [`CacheKey`] to a
/// boolean authorization decision.
pub struct DecisionCache {
    shards: Vec<Mutex<HashMap<CacheKey, Entry>>>,
    capacity_per_shard: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    evictions: AtomicU64,
}

impl DecisionCache {
    /// A cache holding at most `capacity` decisions (rounded up to a
    /// multiple of the shard count).
    pub fn new(capacity: usize) -> Self {
        DecisionCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            capacity_per_shard: capacity.div_ceil(SHARDS).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard_index(key: &CacheKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % SHARDS
    }

    /// Looks up every key for a decision computed under exactly
    /// `epoch`, taking each shard's lock at most once per run. A stale
    /// entry (any other epoch) is discarded and counts as a miss.
    /// Results are positionally aligned with `keys`; counters are
    /// flushed to the shared atomics once per run rather than once per
    /// lookup.
    pub fn get_many(&self, keys: &[CacheKey], epoch: u64) -> Vec<Option<bool>> {
        let mut out = vec![None; keys.len()];
        // Group lookups by shard so each lock is taken once.
        let mut by_shard: Vec<Vec<usize>> = vec![Vec::new(); SHARDS];
        for (i, key) in keys.iter().enumerate() {
            by_shard[Self::shard_index(key)].push(i);
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        let mut invalidations = 0u64;
        let mut ticks = 0u64;
        let tick_base = self.tick.load(Ordering::Relaxed);
        for (si, idxs) in by_shard.iter().enumerate() {
            if idxs.is_empty() {
                continue;
            }
            let mut shard = self.shards[si].lock();
            for &i in idxs {
                let key = &keys[i];
                match shard.get_mut(key) {
                    Some(entry) if entry.epoch == epoch => {
                        entry.last_used = tick_base + ticks;
                        ticks += 1;
                        hits += 1;
                        out[i] = Some(entry.permitted);
                    }
                    Some(_) => {
                        shard.remove(key);
                        invalidations += 1;
                        misses += 1;
                    }
                    None => misses += 1,
                }
            }
        }
        self.tick.fetch_add(ticks, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(misses, Ordering::Relaxed);
        self.invalidations.fetch_add(invalidations, Ordering::Relaxed);
        out
    }

    /// Stores every decision as computed under `epoch`, taking each
    /// shard's lock at most once per run. The caller must have read the
    /// epoch *before* evaluating, so a mutation racing with the
    /// evaluation leaves the entries stale rather than wrong.
    pub fn insert_many(&self, entries: Vec<(CacheKey, bool)>, epoch: u64) {
        let n = entries.len() as u64;
        if n == 0 {
            return;
        }
        let tick_base = self.tick.fetch_add(n, Ordering::Relaxed);
        let mut by_shard: Vec<Vec<(CacheKey, bool, u64)>> = vec![Vec::new(); SHARDS];
        for (i, (key, permitted)) in entries.into_iter().enumerate() {
            let si = Self::shard_index(&key);
            by_shard[si].push((key, permitted, tick_base + i as u64));
        }
        let mut evictions = 0u64;
        for (si, batch) in by_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let mut shard = self.shards[si].lock();
            for (key, permitted, last_used) in batch {
                if shard.len() >= self.capacity_per_shard && !shard.contains_key(&key) {
                    // Evict the least-recently-used entry; shards are
                    // small, so a scan is cheaper than auxiliary
                    // bookkeeping.
                    if let Some(victim) = shard
                        .iter()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(k, _)| k.clone())
                    {
                        shard.remove(&victim);
                        evictions += 1;
                    }
                }
                shard.insert(key, Entry { epoch, permitted, last_used });
            }
        }
        if evictions > 0 {
            self.evictions.fetch_add(evictions, Ordering::Relaxed);
        }
    }

    /// Counters since creation.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Fingerprints one decision's inputs: the action attributes (order
/// independent) and the canonical text of every presented credential.
/// Principals are *not* folded in — they live in
/// [`CacheKey::principal`] so collisions cannot cross identities.
pub fn decision_fingerprint(attrs: &ActionAttributes, credentials: &[Assertion]) -> u64 {
    let mut pairs: Vec<(&str, &str)> = attrs.iter().collect();
    pairs.sort_unstable();
    let mut h = DefaultHasher::new();
    pairs.len().hash(&mut h);
    for (k, v) in pairs {
        k.hash(&mut h);
        v.hash(&mut h);
    }
    credentials.len().hash(&mut h);
    for c in credentials {
        print_assertion(c).hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(principal: &str, fp: u64) -> CacheKey {
        CacheKey { principal: principal.to_string(), fingerprint: fp }
    }

    fn get(cache: &DecisionCache, key: CacheKey, epoch: u64) -> Option<bool> {
        cache.get_many(&[key], epoch)[0]
    }

    /// Number of live entries (any epoch).
    fn len(cache: &DecisionCache) -> usize {
        cache.shards.iter().map(|s| s.lock().len()).sum()
    }

    #[test]
    fn hit_requires_matching_epoch() {
        let cache = DecisionCache::new(64);
        cache.insert_many(vec![(key("Ka", 1), true)], 7);
        assert_eq!(get(&cache, key("Ka", 1), 7), Some(true));
        // Epoch moved: the entry is stale, discarded, and counted.
        assert_eq!(get(&cache, key("Ka", 1), 8), None);
        assert_eq!(get(&cache, key("Ka", 1), 8), None); // really gone
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.invalidations, 1);
    }

    #[test]
    fn capacity_is_bounded_with_lru_eviction() {
        let cache = DecisionCache::new(16); // 1 per shard
        for i in 0..1000 {
            cache.insert_many(vec![(key("Ka", i), i % 2 == 0)], 0);
        }
        assert!(len(&cache) <= 16);
        assert!(cache.stats().evictions >= 1000 - 16);
    }

    #[test]
    fn distinct_principals_never_collide() {
        let cache = DecisionCache::new(64);
        cache.insert_many(vec![(key("Ka", 42), true)], 0);
        assert_eq!(get(&cache, key("Kb", 42), 0), None);
    }

    #[test]
    fn fingerprint_is_attribute_order_independent() {
        let a = ActionAttributes::new().with("x", "1").with("y", "2");
        let b = ActionAttributes::new().with("y", "2").with("x", "1");
        assert_eq!(decision_fingerprint(&a, &[]), decision_fingerprint(&b, &[]));
        let c = ActionAttributes::new().with("x", "1").with("y", "3");
        assert_ne!(decision_fingerprint(&a, &[]), decision_fingerprint(&c, &[]));
    }
}

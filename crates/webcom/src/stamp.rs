//! Verdict-stamp issuance and fleet-trust admission for the fabric.
//!
//! The keynote layer defines what a [`VerdictStamp`] *is* (a master's
//! signed attestation of a credential's signature verdict); this module
//! decides how the fabric *uses* them:
//!
//! * [`StampIssuer`] — held by a master, verifies the credentials it
//!   forwards once (through its own verify cache) and signs one stamp
//!   per signed credential. The master asks for stamps only when its
//!   presented set changes (a credential forwarded, or the trust epoch
//!   moved), so steady-state bursts reuse its memoised set without
//!   re-signing.
//! * [`StampVerifier`] — held by every receiving node (client engine or
//!   peer master), configured with the **fleet trust set**: the
//!   printable keys of the masters whose stamps it accepts. Admission
//!   checks one stamp signature against a fleet key — whose Montgomery
//!   context is already cached process-wide — and feeds the attested
//!   verdict into the node's [`VerifyCache`], so the per-credential
//!   verify in the compliance path becomes a cache hit. Stamps from
//!   keys outside the fleet are rejected; stamps older than the highest
//!   epoch seen from their issuer are ignored as stale, which silently
//!   falls back to full local verification.
//!
//! Stamps never bypass authorisation: compliance checking (including
//! revoked-authorizer refusal) runs unchanged on every node.

use hetsec_crypto::{KeyPair, PublicKey};
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::stamp::VerdictStamp;
use hetsec_keynote::verify_cache::credential_fingerprint;
use hetsec_keynote::VerifyCache;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{SystemTime, UNIX_EPOCH};

fn unix_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Admission counters: what happened to the stamps a node was shown.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StampStats {
    /// Stamps whose signature checked out against a fleet key and whose
    /// verdict was admitted into the verify cache.
    pub admitted: u64,
    /// Stamps refused: issuer outside the fleet, malformed fields, or a
    /// signature that does not verify.
    pub rejected: u64,
    /// Stamps ignored because a newer epoch had already been seen from
    /// the same issuer (the credential falls back to full verification).
    pub stale: u64,
}

impl StampStats {
    /// Field-wise sum (merging per-call deltas or per-node totals).
    pub fn merge(&mut self, other: &StampStats) {
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.stale += other.stale;
    }
}

/// A master's stamp-signing half. One per master; the keypair is the
/// master's stamp identity and its public text is what receivers list
/// in their fleet trust set.
pub struct StampIssuer {
    key: KeyPair,
    key_text: String,
    /// The issuer's own verdict memo for the credentials it stamps —
    /// the "verify once at the home master" half of the amortisation.
    cache: VerifyCache,
    issued: AtomicU64,
}

impl StampIssuer {
    /// An issuer signing with `key`.
    pub fn new(key: KeyPair) -> Self {
        let key_text = key.public().to_text();
        StampIssuer {
            key,
            key_text,
            cache: VerifyCache::new(),
            issued: AtomicU64::new(0),
        }
    }

    /// The printable public key receivers must add to their fleet
    /// trust set.
    pub fn key_text(&self) -> &str {
        &self.key_text
    }

    /// Stamps attesting this issuer's verdicts for `credentials` at
    /// trust epoch `epoch`. Unsigned/symbolic credentials have no
    /// verdict to attest and are skipped. Every call signs afresh.
    pub fn stamps_for(&self, epoch: u64, credentials: &[Assertion]) -> Vec<VerdictStamp> {
        let issued_at = unix_now();
        let mut stamps = Vec::new();
        for cred in credentials {
            let Some(fp) = credential_fingerprint(cred) else {
                continue;
            };
            let status = self.cache.verify(cred);
            stamps.push(VerdictStamp::issue(&self.key, fp, &status, epoch, issued_at));
            self.issued.fetch_add(1, Ordering::Relaxed);
        }
        stamps
    }

    /// Total stamps signed.
    pub fn issued(&self) -> u64 {
        self.issued.load(Ordering::Relaxed)
    }
}

/// A receiving node's stamp-admission half: fleet trust set, per-issuer
/// epoch watermarks, and the verify cache admitted verdicts land in.
pub struct StampVerifier {
    cache: Arc<VerifyCache>,
    /// Trusted issuer key text → parsed key. Fixed after construction:
    /// fleet membership is deployment configuration, not runtime state.
    fleet: HashMap<String, PublicKey>,
    /// Highest epoch seen per issuer; stamps below it are stale.
    watermarks: Mutex<HashMap<String, u64>>,
    admitted: AtomicU64,
    rejected: AtomicU64,
    stale: AtomicU64,
}

impl StampVerifier {
    /// A verifier admitting verdicts into `cache` (share the same cache
    /// with every trust manager on the node — see
    /// [`crate::TrustManager::share_verify_cache`]). Starts with an
    /// empty fleet: every stamp is rejected until issuers are trusted.
    pub fn new(cache: Arc<VerifyCache>) -> Self {
        StampVerifier {
            cache,
            fleet: HashMap::new(),
            watermarks: Mutex::new(HashMap::new()),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            stale: AtomicU64::new(0),
        }
    }

    /// Adds a master's stamp key to the fleet trust set. Text that does
    /// not parse as a public key (e.g. a symbolic demo key) cannot ever
    /// sign a checkable stamp and is ignored.
    pub fn trust_issuer(mut self, key_text: &str) -> Self {
        if let Ok(key) = key_text.parse::<PublicKey>() {
            self.fleet.insert(key_text.to_string(), key);
        }
        self
    }

    /// The cache admitted verdicts land in.
    pub fn cache(&self) -> &Arc<VerifyCache> {
        &self.cache
    }

    /// Admits a request's stamps, returning what happened to them as a
    /// per-call delta (cumulative totals via [`stats`]). Stamps whose
    /// verdict is already cached are skipped for free — the per-request
    /// steady state costs no RSA at all.
    ///
    /// [`stats`]: StampVerifier::stats
    pub fn admit(&self, stamps: &[VerdictStamp]) -> StampStats {
        let mut delta = StampStats::default();
        for stamp in stamps {
            let Some(fp) = stamp.fingerprint_bytes() else {
                delta.rejected += 1;
                continue;
            };
            if self.cache.lookup(&fp).is_some() {
                continue; // verdict already known; nothing to pay
            }
            let Some(issuer_key) = self.fleet.get(&stamp.issuer) else {
                delta.rejected += 1;
                continue;
            };
            {
                let watermarks = self.watermarks.lock();
                if let Some(&highest) = watermarks.get(&stamp.issuer) {
                    if stamp.epoch < highest {
                        delta.stale += 1;
                        continue;
                    }
                }
            }
            match stamp.verify_with(issuer_key) {
                Some((fp, status)) => {
                    self.cache.admit_stamped(fp, status);
                    let mut watermarks = self.watermarks.lock();
                    let entry = watermarks.entry(stamp.issuer.clone()).or_insert(0);
                    *entry = (*entry).max(stamp.epoch);
                    delta.admitted += 1;
                }
                None => delta.rejected += 1,
            }
        }
        self.admitted.fetch_add(delta.admitted, Ordering::Relaxed);
        self.rejected.fetch_add(delta.rejected, Ordering::Relaxed);
        self.stale.fetch_add(delta.stale, Ordering::Relaxed);
        delta
    }

    /// Cumulative admission counters.
    pub fn stats(&self) -> StampStats {
        StampStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_keynote::ast::{LicenseeExpr, Principal};
    use hetsec_keynote::signing::sign_assertion;
    use hetsec_keynote::SignatureStatus;

    fn signed_credential(label: &str) -> Assertion {
        let kp = KeyPair::from_label(label);
        let mut a = Assertion::new(
            Principal::key(kp.public().to_text()),
            LicenseeExpr::Principal("Kworker".to_string()),
        );
        sign_assertion(&mut a, &kp).unwrap();
        a
    }

    fn issuer() -> StampIssuer {
        StampIssuer::new(KeyPair::from_label("fleet-master-a"))
    }

    #[test]
    fn equal_length_lists_get_stamps_over_their_own_credentials() {
        let issuer = issuer();
        let a = signed_credential("el-a");
        let b = signed_credential("el-b");
        let for_a = issuer.stamps_for(1, std::slice::from_ref(&a));
        let for_b = issuer.stamps_for(1, std::slice::from_ref(&b));
        assert_eq!(for_a[0].fingerprint_bytes(), credential_fingerprint(&a));
        assert_eq!(for_b[0].fingerprint_bytes(), credential_fingerprint(&b));
        assert_eq!(issuer.issued(), 2);
    }

    #[test]
    fn fleet_member_stamps_are_admitted_once() {
        let issuer = issuer();
        let creds = vec![signed_credential("fa-1")];
        let stamps = issuer.stamps_for(0, &creds);
        let cache = Arc::new(VerifyCache::new());
        let verifier = StampVerifier::new(Arc::clone(&cache)).trust_issuer(issuer.key_text());
        let delta = verifier.admit(&stamps);
        assert_eq!(delta.admitted, 1);
        // Re-presenting the same stamps costs nothing and moves no
        // counters: the verdict is already cached.
        let delta = verifier.admit(&stamps);
        assert_eq!(delta, StampStats::default());
        // The admitted verdict answers the credential verify without
        // any local RSA.
        assert_eq!(cache.verify(&creds[0]), SignatureStatus::Valid);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.stamped), (1, 0, 1));
    }

    #[test]
    fn non_fleet_issuer_rejected() {
        let rogue = StampIssuer::new(KeyPair::from_label("rogue-master"));
        let creds = vec![signed_credential("nf-1")];
        let stamps = rogue.stamps_for(0, &creds);
        let cache = Arc::new(VerifyCache::new());
        // Fleet contains a different master.
        let verifier =
            StampVerifier::new(Arc::clone(&cache)).trust_issuer(issuer().key_text());
        let delta = verifier.admit(&stamps);
        assert_eq!((delta.admitted, delta.rejected), (0, 1));
        assert_eq!(cache.stats().stamped, 0);
    }

    #[test]
    fn stale_epoch_stamps_are_ignored() {
        let issuer = issuer();
        let old = issuer.stamps_for(1, &[signed_credential("se-1")]);
        let new = issuer.stamps_for(5, &[signed_credential("se-2")]);
        let verifier =
            StampVerifier::new(Arc::new(VerifyCache::new())).trust_issuer(issuer.key_text());
        assert_eq!(verifier.admit(&new).admitted, 1);
        // The epoch-1 stamp arrives after epoch 5 was seen: stale, not
        // admitted — its credential would be verified in full instead.
        let delta = verifier.admit(&old);
        assert_eq!((delta.admitted, delta.stale), (0, 1));
        let totals = verifier.stats();
        assert_eq!((totals.admitted, totals.stale), (1, 1));
    }

    #[test]
    fn tampered_stamp_rejected() {
        let issuer = issuer();
        let stamps = issuer.stamps_for(0, &[signed_credential("ts-1")]);
        let mut forged = stamps;
        forged[0].epoch += 1; // signature no longer covers the fields
        let verifier =
            StampVerifier::new(Arc::new(VerifyCache::new())).trust_issuer(issuer.key_text());
        let delta = verifier.admit(&forged);
        assert_eq!((delta.admitted, delta.rejected), (0, 1));
    }

    #[test]
    fn symbolic_fleet_keys_are_ignored() {
        let verifier = StampVerifier::new(Arc::new(VerifyCache::new())).trust_issuer("Kmaster");
        assert!(verifier.fleet.is_empty());
    }

    #[test]
    fn unsigned_credentials_produce_no_stamps() {
        let issuer = issuer();
        let unsigned = Assertion::new(
            Principal::key("Kbob"),
            LicenseeExpr::Principal("Kalice".to_string()),
        );
        let stamps = issuer.stamps_for(0, &[unsigned]);
        assert!(stamps.is_empty());
        assert_eq!(issuer.issued(), 0);
    }
}

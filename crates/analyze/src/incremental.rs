//! Incremental analysis: re-run only the passes whose inputs a store
//! edit actually touched, and prove the result equals a cold run.
//!
//! The engine keys every cache on *content*, never on position:
//!
//! * per-assertion lints (HS005–HS013) cache under the assertion's
//!   SHA-256 fingerprint — the findings embed no store index, so a
//!   cached vector re-labels to whatever index the assertion occupies
//!   after the edit;
//! * graph findings (HS001–HS003) cache per weakly-connected component
//!   under a hash of the member fingerprints (delegation reachability,
//!   cycles, and dangling licensees never cross a weak component, so a
//!   component whose members are byte-identical re-materializes without
//!   re-running Tarjan or the POLICY BFS);
//! * escalation sweeps (HS004/HS014) cache per user under a hash of
//!   (the user's weak component, the tuple universe, the RBAC policy) —
//!   the compliance fixpoint only propagates support along delegation
//!   edges, so a user whose component is untouched keeps its verdict
//!   sweep.
//!
//! Equivalence to [`crate::analyze_with_directory`] holds because every
//! cache key captures the complete input of the pass it guards, the
//! few messages that embed assertion indices (duplicates, dangling
//! mentions) are regenerated at assembly time, and `Report::finish`
//! canonicalizes ordering. The property test in
//! `tests/analyzer_incremental.rs` checks byte-identical JSON after
//! every step of randomized edit sequences.

use crate::diag::{Finding, LintCode, Report};
use crate::graph::{self, ComponentFindings};
use crate::{escalation, per_assertion_findings, AnalysisOptions};
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::compiled::CompiledStore;
use hetsec_keynote::values::ComplianceValues;
use hetsec_rbac::{RbacPolicy, User};
use hetsec_translate::PrincipalDirectory;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// One store edit, in the shape `PolicyBus` propagations arrive:
/// something was granted (add), retired (remove), or re-issued with
/// different conditions (modify).
#[derive(Clone, Debug)]
pub enum StoreEdit {
    /// Append an assertion at the end of the store.
    Add(Assertion),
    /// Remove the assertion at the index, shifting later ones down.
    Remove(usize),
    /// Replace the assertion at the index in place.
    Modify(usize, Assertion),
}

/// What the last [`IncrementalAnalyzer::analyze`] call actually did —
/// the observable evidence that caching worked.
#[derive(Clone, Copy, Debug, Default)]
pub struct IncrementalStats {
    /// Assertions whose per-assertion lints were recomputed.
    pub assertions_relinted: usize,
    /// Assertions served from the fingerprint lint cache.
    pub assertions_cached: usize,
    /// Weak components whose graph pass was recomputed.
    pub components_recomputed: usize,
    /// Weak components served from the component cache.
    pub components_cached: usize,
    /// Users whose escalation sweep was re-probed.
    pub users_probed: usize,
    /// Users served from the escalation cache.
    pub users_cached: usize,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

fn hash_rbac(rbac: &RbacPolicy) -> u64 {
    let json = serde_json::to_string(rbac).expect("rbac serializes");
    fnv1a(json.as_bytes(), FNV_OFFSET)
}

/// One cached escalation probe: the (escalations, missing-grants)
/// point lists `escalation::probe_user` returned for a user.
type ProbeResult = Arc<(Vec<String>, Vec<String>)>;

/// The incremental analyzer: a store plus content-keyed caches for
/// every pass. `analyze` after [`IncrementalAnalyzer::apply`] re-runs
/// only what the edit dirtied; the report is byte-identical to a cold
/// [`crate::analyze_with_directory`] over the same assertions.
///
/// The caches assume the *environment* is fixed: the same directory,
/// `now`, revocation set, and attribute vocabulary on every call.
/// Changing those requires a fresh engine (the RBAC policy is the one
/// exception — [`IncrementalAnalyzer::set_rbac`] participates in the
/// escalation cache key).
#[derive(Clone)]
pub struct IncrementalAnalyzer {
    opts: AnalysisOptions,
    rbac_hash: u64,
    assertions: Vec<Assertion>,
    store: CompiledStore,
    lint_cache: HashMap<[u8; 32], Arc<Vec<Finding>>>,
    graph_cache: HashMap<u64, Arc<ComponentFindings>>,
    esc_cache: HashMap<User, (u64, ProbeResult)>,
    stats: IncrementalStats,
}

impl IncrementalAnalyzer {
    /// Builds an engine over the initial assertion list. No pass runs
    /// until the first `analyze` call.
    pub fn new(assertions: Vec<Assertion>, opts: AnalysisOptions) -> Self {
        let mut store = CompiledStore::default();
        for a in &assertions {
            store.add(a);
        }
        let rbac_hash = opts.rbac.as_ref().map(hash_rbac).unwrap_or(0);
        IncrementalAnalyzer {
            opts,
            rbac_hash,
            assertions,
            store,
            lint_cache: HashMap::new(),
            graph_cache: HashMap::new(),
            esc_cache: HashMap::new(),
            stats: IncrementalStats::default(),
        }
    }

    /// The current assertion list, in store order.
    pub fn assertions(&self) -> &[Assertion] {
        &self.assertions
    }

    /// The maintained compiled store.
    pub fn store(&self) -> &CompiledStore {
        &self.store
    }

    /// The analysis options the engine was built with.
    pub fn options(&self) -> &AnalysisOptions {
        &self.opts
    }

    /// Cache effectiveness counters for the last `analyze` call.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Swaps the RBAC policy the escalation pass diffs against. Cached
    /// escalation sweeps key on the policy content, so this invalidates
    /// exactly the sweeps a policy change can move.
    pub fn set_rbac(&mut self, rbac: Option<RbacPolicy>) {
        self.rbac_hash = rbac.as_ref().map(hash_rbac).unwrap_or(0);
        self.opts.rbac = rbac;
    }

    /// Applies one edit to the maintained store. Cheap: one assertion
    /// compiles (add/modify) or one slot shifts out (remove); nothing is
    /// analyzed until the next `analyze` call.
    pub fn apply(&mut self, edit: StoreEdit) {
        match edit {
            StoreEdit::Add(a) => {
                self.store.add(&a);
                self.assertions.push(a);
            }
            StoreEdit::Remove(idx) => {
                self.store.remove(idx);
                self.assertions.remove(idx);
            }
            StoreEdit::Modify(idx, a) => {
                self.store.replace(idx, &a);
                self.assertions[idx] = a;
            }
        }
    }

    /// Analyzes the current store, reusing every cache the last edits
    /// did not invalidate. The returned report is byte-identical (via
    /// `to_json` / `Display`) to a cold run over `self.assertions()`.
    pub fn analyze(&mut self, directory: &dyn PrincipalDirectory) -> Report {
        let mut findings = Vec::new();
        let mut stats = IncrementalStats::default();

        // Pass 1: delegation graph, one weak component at a time.
        // Members are probed in (fingerprint, index) order so a cached
        // component's positional results line up with the same member
        // permutation regardless of where the assertions now sit.
        let mut comp_key_of: HashMap<String, u64> = HashMap::new();
        let mut live_graph_keys: HashSet<u64> = HashSet::new();
        for members in graph::weak_components(&self.store) {
            let mut sorted = members;
            sorted.sort_by(|&x, &y| {
                self.store
                    .fingerprint(x)
                    .cmp(&self.store.fingerprint(y))
                    .then(x.cmp(&y))
            });
            let mut key = FNV_OFFSET;
            for &m in &sorted {
                key = fnv1a(self.store.fingerprint(m).expect("member fingerprint"), key);
            }
            live_graph_keys.insert(key);
            let cf = match self.graph_cache.get(&key) {
                Some(c) => {
                    stats.components_cached += 1;
                    Arc::clone(c)
                }
                None => {
                    stats.components_recomputed += 1;
                    let c = Arc::new(graph::component_findings(
                        &self.store,
                        directory,
                        &self.opts.webcom_key,
                        &sorted,
                    ));
                    self.graph_cache.insert(key, Arc::clone(&c));
                    c
                }
            };
            findings.extend(graph::materialize_component(&cf, &sorted));
            for &m in &sorted {
                let mut register = |id| {
                    if let Some(t) = self.store.principals().text(id) {
                        comp_key_of.insert(t.to_string(), key);
                    }
                };
                if let Some(a) = self.store.authorizer_of(m) {
                    register(a);
                }
                for &l in self.store.licensees_of(m).unwrap_or(&[]) {
                    register(l);
                }
            }
        }

        // Pass 2: escalation, re-probing only users whose dependency
        // hash (their weak component + the tuple universe + the RBAC
        // policy) moved since their cached sweep.
        if let Some(rbac) = &self.opts.rbac {
            let users = escalation::user_universe(
                &self.assertions,
                &self.store,
                rbac,
                &self.opts.webcom_key,
                directory,
            );
            let tuples = escalation::tuple_universe(&self.assertions, rbac);
            let mut tuple_hash = FNV_OFFSET;
            for (d, r, t, p) in &tuples {
                for s in [d, r, t, p] {
                    tuple_hash = fnv1a(s.as_bytes(), tuple_hash);
                    tuple_hash = fnv1a(&[0xff], tuple_hash);
                }
            }

            let mut dep_of: BTreeMap<&User, u64> = BTreeMap::new();
            let mut dirty: Vec<&User> = Vec::new();
            for user in &users {
                let key_text = directory.key_of(user);
                let ck = comp_key_of.get(&key_text).copied().unwrap_or(0);
                let mut dep = fnv1a(&ck.to_le_bytes(), FNV_OFFSET);
                dep = fnv1a(&tuple_hash.to_le_bytes(), dep);
                dep = fnv1a(&self.rbac_hash.to_le_bytes(), dep);
                dep_of.insert(user, dep);
                match self.esc_cache.get(user) {
                    Some((cached_dep, _)) if *cached_dep == dep => stats.users_cached += 1,
                    _ => dirty.push(user),
                }
            }
            stats.users_probed = dirty.len();

            let values = ComplianceValues::binary();
            let store = &self.store;
            let revoked = &self.opts.revoked;
            let probed: Vec<(Vec<String>, Vec<String>)> = dirty
                .iter()
                .map(|user| {
                    escalation::probe_user(store, rbac, directory, revoked, &values, &tuples, user)
                })
                .collect();
            for (user, res) in dirty.iter().zip(probed) {
                self.esc_cache
                    .insert((*user).clone(), (dep_of[*user], Arc::new(res)));
            }

            let mut escalations: BTreeMap<User, Vec<String>> = BTreeMap::new();
            let mut missing: BTreeMap<User, Vec<String>> = BTreeMap::new();
            for user in &users {
                let (_, res) = self.esc_cache.get(user).expect("swept above");
                if !res.0.is_empty() {
                    escalations.insert(user.clone(), res.0.clone());
                }
                if !res.1.is_empty() {
                    missing.insert(user.clone(), res.1.clone());
                }
            }
            findings.extend(escalation::materialize(&escalations, &missing, directory));
            self.esc_cache.retain(|u, _| users.contains(u));
        }

        // Passes 3 & 4: per-assertion lints from the fingerprint cache,
        // plus duplicate detection (recomputed — first-index semantics
        // shift with every edit, but the scan is a hash lookup per
        // assertion).
        let mut seen: HashMap<[u8; 32], usize> = HashMap::new();
        for (idx, a) in self.assertions.iter().enumerate() {
            let fp = *self.store.fingerprint(idx).expect("assertion fingerprint");
            let cached = match self.lint_cache.get(&fp) {
                Some(c) => {
                    stats.assertions_cached += 1;
                    Arc::clone(c)
                }
                None => {
                    stats.assertions_relinted += 1;
                    let c = Arc::new(per_assertion_findings(a, &self.opts, directory));
                    self.lint_cache.insert(fp, Arc::clone(&c));
                    c
                }
            };
            for f in cached.iter() {
                let mut f = f.clone();
                f.assertion = Some(idx);
                findings.push(f);
            }
            match seen.get(&fp) {
                Some(&first) => findings.push(Finding {
                    code: LintCode::DuplicateAssertion,
                    assertion: Some(idx),
                    line_start: None,
                    line_end: None,
                    message: format!("assertion is byte-identical to assertion #{first}"),
                    hint: "delete the duplicate; it cannot change any verdict".to_string(),
                }),
                None => {
                    seen.insert(fp, idx);
                }
            }
        }

        // Bound the caches: drop entries no current assertion can hit
        // once they outnumber the live set by 2x (the slack keeps the
        // common edit-and-revert pattern warm).
        if self.lint_cache.len() > 2 * self.assertions.len() + 64 {
            self.lint_cache.retain(|fp, _| seen.contains_key(fp));
        }
        if self.graph_cache.len() > 2 * live_graph_keys.len() + 64 {
            self.graph_cache.retain(|k, _| live_graph_keys.contains(k));
        }

        self.stats = stats;
        Report { findings }.finish()
    }
}

/// Convenience used by tests and the CLI's `--incremental-check`:
/// replays `edits` on top of `initial`, analyzing after every step, and
/// returns the final report plus the final assertion list (so callers
/// can cold-analyze it for comparison).
pub fn replay(
    initial: Vec<Assertion>,
    edits: Vec<StoreEdit>,
    opts: &AnalysisOptions,
    directory: &dyn PrincipalDirectory,
) -> (Report, Vec<Assertion>) {
    let mut engine = IncrementalAnalyzer::new(initial, opts.clone());
    let mut report = engine.analyze(directory);
    for edit in edits {
        engine.apply(edit);
        report = engine.analyze(directory);
    }
    let assertions = engine.assertions().to_vec();
    (report, assertions)
}

//! Compiled-assertion evaluation: the request-path form of the
//! compliance checker.
//!
//! The AST produced by the parser is convenient for printing, signing,
//! and inspection, but evaluating it per request repeats work that does
//! not depend on the request at all: `~=` patterns were re-compiled on
//! every evaluation, licensee formulas re-collected their principal
//! lists, and the checker rebuilt the licensee index over the whole
//! store for each query. A [`CompiledAssertion`] is built once, at
//! `add_policy`/`add_credentials` time: regex literals are compiled (a
//! malformed literal is reported once as a compile note and the
//! enclosing test is evaluation-total `false`), principal texts are
//! interned to dense `u32` ids, and the [`CompiledStore`] maintains the
//! licensee index incrementally so a query starts from a prebuilt
//! delegation graph.
//!
//! The compiled evaluator is behaviorally identical to the AST
//! interpreter in [`crate::eval`] / [`crate::compliance`]; the
//! differential and property suites in `tests/` hold the two
//! implementations to the same answers.

use crate::ast::{
    ArithOp, Assertion, Clause, CmpOp, ConditionsProgram, Expr, LicenseeExpr, Principal, Term,
};
use crate::compliance::{Query, QueryResult, POLICY_KEY};
use crate::eval::ActionAttributes;
use crate::parser::format_num;
use crate::print::print_assertion;
use crate::regex::Regex;
use hetsec_crypto::sha256;
use crate::values::{ComplianceValue, ComplianceValues};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// Dense id for an interned principal text.
pub type PrincipalId = u32;

/// Principal-text interner: text to dense id, id to text.
#[derive(Clone, Debug, Default)]
pub struct Interner {
    ids: HashMap<String, PrincipalId>,
    texts: Vec<String>,
}

impl Interner {
    fn intern(&mut self, text: &str) -> PrincipalId {
        if let Some(&id) = self.ids.get(text) {
            return id;
        }
        let id = self.texts.len() as PrincipalId;
        self.ids.insert(text.to_string(), id);
        self.texts.push(text.to_string());
        id
    }

    /// Id of an already-interned text, if any.
    pub fn get(&self, text: &str) -> Option<PrincipalId> {
        self.ids.get(text).copied()
    }

    /// Text behind an id minted by this interner.
    pub fn text(&self, id: PrincipalId) -> Option<&str> {
        self.texts.get(id as usize).map(String::as_str)
    }

    /// Number of distinct interned texts.
    pub fn len(&self) -> usize {
        self.texts.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.texts.is_empty()
    }

    /// `(text, id)` pairs in id order.
    fn entries(&self) -> impl Iterator<Item = (&str, PrincipalId)> {
        self.texts
            .iter()
            .enumerate()
            .map(|(i, t)| (t.as_str(), i as PrincipalId))
    }

    /// Stable fingerprint of an id minted by this interner — see
    /// [`principal_fingerprint`].
    pub fn fingerprint(&self, id: PrincipalId) -> Option<u64> {
        self.text(id).map(principal_fingerprint)
    }
}

/// Stable 64-bit fingerprint of a principal's canonical text (FNV-1a).
///
/// Dense [`PrincipalId`]s are an artifact of interning order and differ
/// between processes, so anything that must agree *across* nodes — the
/// scheduling fabric's consistent-hash ring partitioning principals
/// over shards — keys off this fingerprint instead. It is not
/// cryptographic; it only needs to be deterministic, well-mixed, and
/// identical on every node that computes it.
pub fn principal_fingerprint(text: &str) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    // One final avalanche round (splitmix64 finalizer) so short,
    // similar keys ("K0", "K1", ...) still spread over the ring.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Resolves principal texts to ids during compilation. The store path
/// interns into the persistent [`Interner`]; the per-query path for
/// request-presented credentials layers a scratch map on top without
/// mutating the store.
trait Resolve {
    fn resolve(&mut self, text: &str) -> PrincipalId;
}

impl Resolve for Interner {
    fn resolve(&mut self, text: &str) -> PrincipalId {
        self.intern(text)
    }
}

/// Read-only view over the store interner plus per-query overflow ids
/// for principals that only request-presented credentials mention.
struct ScopedResolver<'a> {
    base: &'a Interner,
    extra: HashMap<String, PrincipalId>,
}

impl<'a> ScopedResolver<'a> {
    fn new(base: &'a Interner) -> Self {
        ScopedResolver {
            base,
            extra: HashMap::new(),
        }
    }

    fn lookup(&self, text: &str) -> Option<PrincipalId> {
        self.base
            .get(text)
            .or_else(|| self.extra.get(text).copied())
    }

    fn total_ids(&self) -> usize {
        self.base.len() + self.extra.len()
    }

    /// `(text, id)` pairs for overlay-only ids, in arbitrary order.
    fn extra_entries(&self) -> impl Iterator<Item = (&str, PrincipalId)> {
        self.extra.iter().map(|(t, &id)| (t.as_str(), id))
    }

    /// Drops the overlay entries, keeping the map's allocation so a
    /// batch can reuse one resolver across requests with different
    /// request-presented credential sets.
    fn reset(&mut self) {
        self.extra.clear();
    }
}

impl Resolve for ScopedResolver<'_> {
    fn resolve(&mut self, text: &str) -> PrincipalId {
        if let Some(id) = self.base.get(text) {
            return id;
        }
        let next = (self.base.len() + self.extra.len()) as PrincipalId;
        *self.extra.entry(text.to_string()).or_insert(next)
    }
}

/// Dense id for an interned action-attribute name.
pub type AttrId = u32;

/// Reserved KeyNote names, classified once at compile time.
#[derive(Clone, Copy, Debug)]
enum RName {
    MinTrust,
    MaxTrust,
    Values,
    ActionAuthorizers,
}

impl RName {
    fn classify(name: &str) -> Option<RName> {
        match name {
            "_MIN_TRUST" => Some(RName::MinTrust),
            "_MAX_TRUST" => Some(RName::MaxTrust),
            "_VALUES" => Some(RName::Values),
            "_ACTION_AUTHORIZERS" => Some(RName::ActionAuthorizers),
            _ => None,
        }
    }
}

/// Everything term/expression compilation needs: the attribute-name
/// interner, the enclosing assertion's local constants (they shadow
/// attributes, so direct references fold to literals at compile time),
/// and the compile-note sink.
struct CompileCtx<'a> {
    attrs: &'a mut dyn Resolve,
    locals: &'a [(String, String)],
    notes: &'a mut Vec<String>,
    origin: &'a str,
}

/// Compiled term. Structurally mirrors [`Term`], except that direct
/// attribute references are resolved at compile time: local constants
/// fold to string literals, reserved names to [`RName`], and everything
/// else to a dense [`AttrId`] slot so evaluation indexes a per-query
/// vector instead of hashing the name. `Deref` keeps the dynamic
/// name-based lookup, as the name is only known per evaluation.
#[derive(Clone, Debug)]
enum CTerm {
    Str(String),
    Num(f64),
    Slot(AttrId),
    Reserved(RName),
    Deref(Box<CTerm>),
    Concat(Box<CTerm>, Box<CTerm>),
    Arith {
        op: ArithOp,
        lhs: Box<CTerm>,
        rhs: Box<CTerm>,
    },
    Neg(Box<CTerm>),
}

impl CTerm {
    fn compile(t: &Term, ctx: &mut CompileCtx<'_>) -> CTerm {
        match t {
            Term::Str(s) => CTerm::Str(s.clone()),
            Term::Num(n) => CTerm::Num(*n),
            Term::Attr(name) => {
                // Mirror the interpreter's lookup order: locals shadow
                // reserved names, which shadow action attributes.
                if let Some((_, v)) = ctx.locals.iter().find(|(n, _)| n == name) {
                    CTerm::Str(v.clone())
                } else if let Some(r) = RName::classify(name) {
                    CTerm::Reserved(r)
                } else {
                    CTerm::Slot(ctx.attrs.resolve(name))
                }
            }
            Term::Deref(inner) => CTerm::Deref(Box::new(CTerm::compile(inner, ctx))),
            Term::Concat(a, b) => CTerm::Concat(
                Box::new(CTerm::compile(a, ctx)),
                Box::new(CTerm::compile(b, ctx)),
            ),
            Term::Arith { op, lhs, rhs } => CTerm::Arith {
                op: *op,
                lhs: Box::new(CTerm::compile(lhs, ctx)),
                rhs: Box::new(CTerm::compile(rhs, ctx)),
            },
            Term::Neg(inner) => CTerm::Neg(Box::new(CTerm::compile(inner, ctx))),
        }
    }
}

/// Compiled boolean expression. Comparisons carry the precomputed
/// numeric-mode flag; `~=` against a literal pattern holds the compiled
/// regex (or [`CExpr::BadRegex`] when the literal does not compile).
#[derive(Clone, Debug)]
enum CExpr {
    Const(bool),
    Or(Box<CExpr>, Box<CExpr>),
    And(Box<CExpr>, Box<CExpr>),
    Not(Box<CExpr>),
    Cmp {
        op: CmpOp,
        numeric: bool,
        lhs: CTerm,
        rhs: CTerm,
    },
    /// `lhs ~= "literal"` with the pattern compiled once.
    RegexStatic { lhs: CTerm, re: Regex },
    /// Pattern derived from attributes: compiled per evaluation, as the
    /// interpreter does.
    RegexDynamic { lhs: CTerm, pattern: CTerm },
    /// Literal pattern that failed to compile: evaluation-total `false`,
    /// reported once as a compile note.
    BadRegex,
}

impl CExpr {
    fn compile(e: &Expr, ctx: &mut CompileCtx<'_>) -> CExpr {
        match e {
            Expr::True => CExpr::Const(true),
            Expr::False => CExpr::Const(false),
            Expr::Or(a, b) => CExpr::Or(
                Box::new(CExpr::compile(a, ctx)),
                Box::new(CExpr::compile(b, ctx)),
            ),
            Expr::And(a, b) => CExpr::And(
                Box::new(CExpr::compile(a, ctx)),
                Box::new(CExpr::compile(b, ctx)),
            ),
            Expr::Not(inner) => CExpr::Not(Box::new(CExpr::compile(inner, ctx))),
            Expr::Cmp { op, lhs, rhs } => CExpr::Cmp {
                op: *op,
                numeric: lhs.is_numeric_syntax() || rhs.is_numeric_syntax(),
                lhs: CTerm::compile(lhs, ctx),
                rhs: CTerm::compile(rhs, ctx),
            },
            Expr::RegexMatch { lhs, pattern } => match pattern {
                Term::Str(pat) => match Regex::new(pat) {
                    Ok(re) => CExpr::RegexStatic {
                        lhs: CTerm::compile(lhs, ctx),
                        re,
                    },
                    Err(err) => {
                        let origin = ctx.origin;
                        ctx.notes.push(format!(
                            "{origin}: bad regex pattern {pat:?} ({err:?}); \
                             the enclosing test always evaluates to false"
                        ));
                        CExpr::BadRegex
                    }
                },
                other => CExpr::RegexDynamic {
                    lhs: CTerm::compile(lhs, ctx),
                    pattern: CTerm::compile(other, ctx),
                },
            },
        }
    }
}

/// Compiled conditions clause; `Arrow` keeps the value *name* so that
/// `set_values` never forces a recompile (value sets are tiny and the
/// name is resolved per evaluation, exactly as the interpreter does).
#[derive(Clone, Debug)]
enum CClause {
    Bare(CExpr),
    Arrow(CExpr, String),
    Nested(CExpr, CProgram),
}

/// Compiled conditions program.
#[derive(Clone, Debug, Default)]
struct CProgram {
    clauses: Vec<CClause>,
}

impl CProgram {
    fn compile(p: &ConditionsProgram, ctx: &mut CompileCtx<'_>) -> CProgram {
        CProgram {
            clauses: p
                .clauses
                .iter()
                .map(|c| match c {
                    Clause::Bare(e) => CClause::Bare(CExpr::compile(e, ctx)),
                    Clause::Arrow(e, v) => CClause::Arrow(CExpr::compile(e, ctx), v.clone()),
                    Clause::Nested(e, inner) => {
                        CClause::Nested(CExpr::compile(e, ctx), CProgram::compile(inner, ctx))
                    }
                })
                .collect(),
        }
    }
}

/// Compiled licensees formula over interned principal ids.
#[derive(Clone, Debug)]
enum CLicensees {
    Principal(PrincipalId),
    And(Box<CLicensees>, Box<CLicensees>),
    Or(Box<CLicensees>, Box<CLicensees>),
    KOf(usize, Vec<CLicensees>),
}

impl CLicensees {
    fn compile(l: &LicenseeExpr, resolver: &mut dyn Resolve) -> CLicensees {
        match l {
            LicenseeExpr::Principal(p) => CLicensees::Principal(resolver.resolve(p)),
            LicenseeExpr::And(a, b) => CLicensees::And(
                Box::new(CLicensees::compile(a, resolver)),
                Box::new(CLicensees::compile(b, resolver)),
            ),
            LicenseeExpr::Or(a, b) => CLicensees::Or(
                Box::new(CLicensees::compile(a, resolver)),
                Box::new(CLicensees::compile(b, resolver)),
            ),
            LicenseeExpr::KOf(k, items) => CLicensees::KOf(
                *k,
                items
                    .iter()
                    .map(|i| CLicensees::compile(i, resolver))
                    .collect(),
            ),
        }
    }

    fn collect_ids(&self, out: &mut Vec<PrincipalId>) {
        match self {
            CLicensees::Principal(id) => out.push(*id),
            CLicensees::And(a, b) | CLicensees::Or(a, b) => {
                a.collect_ids(out);
                b.collect_ids(out);
            }
            CLicensees::KOf(_, items) => {
                for i in items {
                    i.collect_ids(out);
                }
            }
        }
    }

    fn value(&self, support: &[ComplianceValue], min: ComplianceValue) -> ComplianceValue {
        match self {
            CLicensees::Principal(id) => support.get(*id as usize).copied().unwrap_or(min),
            CLicensees::And(a, b) => a.value(support, min).and(b.value(support, min)),
            CLicensees::Or(a, b) => a.value(support, min).or(b.value(support, min)),
            CLicensees::KOf(k, items) => {
                let mut vals: Vec<ComplianceValue> =
                    items.iter().map(|i| i.value(support, min)).collect();
                vals.sort_unstable_by(|a, b| b.cmp(a));
                match k.checked_sub(1) {
                    Some(i) => vals.get(i).copied().unwrap_or(min),
                    None => min,
                }
            }
        }
    }
}

/// An assertion compiled for evaluation: interned authorizer, compiled
/// licensees with the deduplicated principal ids the licensee index
/// needs, and the compiled conditions program.
#[derive(Clone, Debug)]
pub struct CompiledAssertion {
    /// Interned authorizer id (`POLICY` interns its sentinel text).
    authorizer: PrincipalId,
    licensees: Option<CLicensees>,
    /// Deduplicated ids mentioned by the licensees formula — the edges
    /// of the delegation graph.
    licensee_ids: Vec<PrincipalId>,
    conditions: Option<CProgram>,
    local_constants: Vec<(String, String)>,
}

impl CompiledAssertion {
    fn compile(
        a: &Assertion,
        principals: &mut dyn Resolve,
        attrs: &mut dyn Resolve,
        notes: &mut Vec<String>,
    ) -> Self {
        let authorizer_text = match &a.authorizer {
            Principal::Policy => POLICY_KEY,
            Principal::Key(k) => k.as_str(),
        };
        let origin = format!("assertion by {}", a.authorizer);
        let authorizer = principals.resolve(authorizer_text);
        let licensees = a
            .licensees
            .as_ref()
            .map(|l| CLicensees::compile(l, principals));
        let mut licensee_ids = Vec::new();
        if let Some(lic) = &licensees {
            lic.collect_ids(&mut licensee_ids);
            licensee_ids.sort_unstable();
            licensee_ids.dedup();
        }
        let mut ctx = CompileCtx {
            attrs,
            locals: &a.local_constants,
            notes,
            origin: &origin,
        };
        let conditions = a.conditions.as_ref().map(|p| CProgram::compile(p, &mut ctx));
        CompiledAssertion {
            authorizer,
            licensees,
            licensee_ids,
            conditions,
            local_constants: a.local_constants.clone(),
        }
    }
}

/// The session-resident compiled store: every stored assertion in
/// compiled form, a persistent interner, and the incrementally
/// maintained licensee index (`principal id -> assertions mentioning it
/// as a licensee`).
#[derive(Clone, Debug, Default)]
pub struct CompiledStore {
    interner: Interner,
    /// Action-attribute name interner: every directly referenced
    /// attribute gets a dense slot id so evaluation indexes a per-query
    /// value vector instead of hashing the name.
    attr_names: Interner,
    assertions: Vec<CompiledAssertion>,
    /// Per-assertion content fingerprint: SHA-256 over the normalized
    /// (`print_assertion`) source text. Index-parallel to `assertions`;
    /// the identity incremental analyses key their caches on.
    fingerprints: Vec<[u8; 32]>,
    /// Indexed by `PrincipalId`; extended as the interner grows.
    by_licensee: Vec<Vec<u32>>,
    notes: Vec<String>,
}

/// The difference between two stores in fingerprint space, as computed
/// by [`CompiledStore::delta`]. Indices refer to each store's own
/// assertion list; principal deltas are reported as text because the
/// two stores intern independently.
#[derive(Clone, Debug, Default)]
pub struct StoreDelta {
    /// Indices (in the *old* store) of assertions absent from the new.
    pub removed: Vec<usize>,
    /// Indices (in the *new* store) of assertions absent from the old.
    pub added: Vec<usize>,
    /// Principal texts whose licensee-edge set (the assertions
    /// mentioning them as a licensee, by fingerprint) differs between
    /// the stores — the dirty frontier of the delegation graph.
    pub touched_principals: BTreeSet<String>,
}

impl StoreDelta {
    /// True when the stores hold the same assertion multiset.
    pub fn is_empty(&self) -> bool {
        self.removed.is_empty() && self.added.is_empty()
    }
}

impl CompiledStore {
    /// Compiles and stores one assertion, updating the licensee index.
    pub fn add(&mut self, a: &Assertion) {
        let idx = self.assertions.len() as u32;
        let compiled = CompiledAssertion::compile(
            a,
            &mut self.interner,
            &mut self.attr_names,
            &mut self.notes,
        );
        if self.by_licensee.len() < self.interner.len() {
            self.by_licensee.resize(self.interner.len(), Vec::new());
        }
        for &id in &compiled.licensee_ids {
            self.by_licensee[id as usize].push(idx);
        }
        self.fingerprints.push(sha256(print_assertion(a).as_bytes()));
        self.assertions.push(compiled);
    }

    /// Removes the assertion at `idx`, shifting later assertions down
    /// one slot (exactly like `Vec::remove`) and rewriting the licensee
    /// index in place. Interned principal texts are never reclaimed —
    /// ids stay stable — but a stale principal with no remaining edges
    /// is invisible to evaluation and to the delegation iterator.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn remove(&mut self, idx: usize) {
        assert!(idx < self.assertions.len(), "remove past end of store");
        self.assertions.remove(idx);
        self.fingerprints.remove(idx);
        let removed = idx as u32;
        for list in &mut self.by_licensee {
            list.retain(|&i| i != removed);
            for i in list.iter_mut() {
                if *i > removed {
                    *i -= 1;
                }
            }
        }
    }

    /// Replaces the assertion at `idx` with a recompile of `a`, keeping
    /// every other slot (and the interner) untouched.
    ///
    /// # Panics
    /// Panics when `idx` is out of bounds.
    pub fn replace(&mut self, idx: usize, a: &Assertion) {
        assert!(idx < self.assertions.len(), "replace past end of store");
        let compiled = CompiledAssertion::compile(
            a,
            &mut self.interner,
            &mut self.attr_names,
            &mut self.notes,
        );
        if self.by_licensee.len() < self.interner.len() {
            self.by_licensee.resize(self.interner.len(), Vec::new());
        }
        let slot = idx as u32;
        for &old in &self.assertions[idx].licensee_ids {
            self.by_licensee[old as usize].retain(|&i| i != slot);
        }
        for &id in &compiled.licensee_ids {
            self.by_licensee[id as usize].push(slot);
            self.by_licensee[id as usize].sort_unstable();
        }
        self.fingerprints[idx] = sha256(print_assertion(a).as_bytes());
        self.assertions[idx] = compiled;
    }

    /// The SHA-256 fingerprint of the assertion at `idx`: a hash of its
    /// normalized source text, stable across stores and sessions.
    pub fn fingerprint(&self, idx: usize) -> Option<&[u8; 32]> {
        self.fingerprints.get(idx)
    }

    /// All assertion fingerprints, index-parallel to the store.
    pub fn fingerprints(&self) -> &[[u8; 32]] {
        &self.fingerprints
    }

    /// The interned authorizer id of the assertion at `idx`.
    pub fn authorizer_of(&self, idx: usize) -> Option<PrincipalId> {
        self.assertions.get(idx).map(|a| a.authorizer)
    }

    /// The deduplicated licensee ids of the assertion at `idx` — its
    /// out-edges in the delegation graph.
    pub fn licensees_of(&self, idx: usize) -> Option<&[PrincipalId]> {
        self.assertions.get(idx).map(|a| a.licensee_ids.as_slice())
    }

    /// Diffs this store (old) against `new` in fingerprint space:
    /// which assertions were removed/added, and which principals'
    /// licensee-edge sets changed. Cost is O(old + new) hashmap work —
    /// no recompilation, no evaluation.
    pub fn delta(&self, new: &CompiledStore) -> StoreDelta {
        // Multiset diff over fingerprints. Count occurrences in the new
        // store, then drain them with the old store's — leftovers on
        // either side are the added/removed sets.
        let mut counts: HashMap<&[u8; 32], isize> = HashMap::new();
        for fp in &new.fingerprints {
            *counts.entry(fp).or_insert(0) += 1;
        }
        let mut removed = Vec::new();
        for (idx, fp) in self.fingerprints.iter().enumerate() {
            match counts.get_mut(fp) {
                Some(n) if *n > 0 => *n -= 1,
                _ => removed.push(idx),
            }
        }
        let mut counts_old: HashMap<&[u8; 32], isize> = HashMap::new();
        for fp in &self.fingerprints {
            *counts_old.entry(fp).or_insert(0) += 1;
        }
        let mut added = Vec::new();
        for (idx, fp) in new.fingerprints.iter().enumerate() {
            match counts_old.get_mut(fp) {
                Some(n) if *n > 0 => *n -= 1,
                _ => added.push(idx),
            }
        }

        // Licensee-edge deltas, in text space: for each principal, the
        // multiset of fingerprints of assertions licensing it.
        let mut touched_principals = BTreeSet::new();
        let edges = |store: &CompiledStore| {
            let mut map: HashMap<String, Vec<[u8; 32]>> = HashMap::new();
            for (idx, list) in store.by_licensee.iter().enumerate() {
                if list.is_empty() {
                    continue;
                }
                let Some(text) = store.interner.text(idx as PrincipalId) else {
                    continue;
                };
                let mut fps: Vec<[u8; 32]> = list
                    .iter()
                    .map(|&i| store.fingerprints[i as usize])
                    .collect();
                fps.sort_unstable();
                map.insert(text.to_string(), fps);
            }
            map
        };
        let old_edges = edges(self);
        let new_edges = edges(new);
        for (p, fps) in &old_edges {
            if new_edges.get(p) != Some(fps) {
                touched_principals.insert(p.clone());
            }
        }
        for p in new_edges.keys() {
            if !old_edges.contains_key(p) {
                touched_principals.insert(p.clone());
            }
        }

        StoreDelta {
            removed,
            added,
            touched_principals,
        }
    }

    /// Number of compiled assertions.
    pub fn len(&self) -> usize {
        self.assertions.len()
    }

    /// True when no assertions are stored.
    pub fn is_empty(&self) -> bool {
        self.assertions.is_empty()
    }

    /// Compile-time diagnostics (currently: malformed regex literals),
    /// in the order the offending assertions were added.
    pub fn notes(&self) -> &[String] {
        &self.notes
    }

    /// The principal-text interner: static analyses reuse the same
    /// dense ids the evaluator runs on.
    pub fn principals(&self) -> &Interner {
        &self.interner
    }

    /// Interned id of the `POLICY` sentinel, if any stored assertion is
    /// a policy assertion.
    pub fn policy_id(&self) -> Option<PrincipalId> {
        self.interner.get(POLICY_KEY)
    }

    /// Delegation edges, one tuple per stored assertion:
    /// `(assertion index, authorizer id, licensee ids)`. An assertion
    /// with no licensees contributes an empty id slice.
    pub fn delegations(&self) -> impl Iterator<Item = (usize, PrincipalId, &[PrincipalId])> {
        self.assertions
            .iter()
            .enumerate()
            .map(|(i, a)| (i, a.authorizer, a.licensee_ids.as_slice()))
    }
}

/// A term's value during compiled evaluation: borrows attribute and
/// literal text instead of cloning per lookup.
enum CValue<'a> {
    Str(Cow<'a, str>),
    Num(f64),
}

impl<'a> CValue<'a> {
    fn as_str(&self) -> Cow<'a, str> {
        match self {
            CValue::Str(s) => s.clone(),
            CValue::Num(n) => Cow::Owned(format_num(*n)),
        }
    }

    fn as_num(&self) -> Option<f64> {
        match self {
            CValue::Num(n) => Some(*n),
            CValue::Str(s) => s.trim().parse::<f64>().ok(),
        }
    }
}

/// Compiled-evaluation environment; reserved-name strings are
/// precomputed once per query, and directly-referenced attributes are
/// read from the per-query slot vector (one hash lookup per distinct
/// name per query, done while building `slots`).
struct CEnv<'a> {
    attrs: &'a ActionAttributes,
    locals: &'a [(String, String)],
    values: &'a ComplianceValues,
    authorizers_text: &'a str,
    values_attr: &'a str,
    /// Indexed by [`AttrId`]: the query's value for each interned
    /// attribute name (`""` when the query does not set it).
    slots: &'a [&'a str],
}

impl<'a> CEnv<'a> {
    /// Slot-indexed attribute read — the compiled fast path.
    fn slot(&self, id: AttrId) -> &'a str {
        self.slots.get(id as usize).copied().unwrap_or("")
    }

    fn reserved(&self, r: RName) -> &'a str {
        match r {
            RName::MinTrust => self.values.names().first().map(String::as_str).unwrap_or(""),
            RName::MaxTrust => self.values.names().last().map(String::as_str).unwrap_or(""),
            RName::Values => self.values_attr,
            RName::ActionAuthorizers => self.authorizers_text,
        }
    }

    /// Full name-based lookup, used only by `Deref` (the name is
    /// computed per evaluation, so it cannot be slotted at compile
    /// time). Mirrors the interpreter's order: locals, reserved names,
    /// then action attributes.
    fn lookup(&self, name: &str) -> Cow<'a, str> {
        if let Some((_, v)) = self.locals.iter().find(|(n, _)| n == name) {
            return Cow::Borrowed(v.as_str());
        }
        match RName::classify(name) {
            Some(r) => Cow::Borrowed(self.reserved(r)),
            None => Cow::Borrowed(self.attrs.get(name)),
        }
    }
}

/// Evaluation failures conservatively fail the enclosing test, exactly
/// as in the interpreter.
enum CFail {
    NotNumeric,
    DivByZero,
}

fn eval_cterm<'a>(t: &'a CTerm, env: &CEnv<'a>) -> Result<CValue<'a>, CFail> {
    match t {
        CTerm::Str(s) => Ok(CValue::Str(Cow::Borrowed(s.as_str()))),
        CTerm::Num(n) => Ok(CValue::Num(*n)),
        CTerm::Slot(id) => Ok(CValue::Str(Cow::Borrowed(env.slot(*id)))),
        CTerm::Reserved(r) => Ok(CValue::Str(Cow::Borrowed(env.reserved(*r)))),
        CTerm::Deref(inner) => {
            let name = eval_cterm(inner, env)?.as_str();
            Ok(CValue::Str(env.lookup(&name)))
        }
        CTerm::Concat(a, b) => {
            let av = eval_cterm(a, env)?.as_str();
            let bv = eval_cterm(b, env)?.as_str();
            Ok(CValue::Str(Cow::Owned(format!("{av}{bv}"))))
        }
        CTerm::Arith { op, lhs, rhs } => {
            let a = eval_cterm(lhs, env)?.as_num().ok_or(CFail::NotNumeric)?;
            let b = eval_cterm(rhs, env)?.as_num().ok_or(CFail::NotNumeric)?;
            let r = match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => {
                    if b == 0.0 {
                        return Err(CFail::DivByZero);
                    }
                    a / b
                }
                ArithOp::Mod => {
                    if b == 0.0 {
                        return Err(CFail::DivByZero);
                    }
                    a % b
                }
                ArithOp::Pow => a.powf(b),
            };
            Ok(CValue::Num(r))
        }
        CTerm::Neg(inner) => {
            let v = eval_cterm(inner, env)?.as_num().ok_or(CFail::NotNumeric)?;
            Ok(CValue::Num(-v))
        }
    }
}

fn cmp_bool<T: PartialOrd>(op: CmpOp, a: T, b: T) -> bool {
    match op {
        CmpOp::Eq => a == b,
        CmpOp::Ne => a != b,
        CmpOp::Lt => a < b,
        CmpOp::Gt => a > b,
        CmpOp::Le => a <= b,
        CmpOp::Ge => a >= b,
    }
}

fn eval_cexpr(e: &CExpr, env: &CEnv<'_>) -> bool {
    match e {
        CExpr::Const(b) => *b,
        CExpr::Or(a, b) => eval_cexpr(a, env) || eval_cexpr(b, env),
        CExpr::And(a, b) => eval_cexpr(a, env) && eval_cexpr(b, env),
        CExpr::Not(inner) => !eval_cexpr(inner, env),
        CExpr::Cmp {
            op,
            numeric,
            lhs,
            rhs,
        } => {
            let (Ok(lv), Ok(rv)) = (eval_cterm(lhs, env), eval_cterm(rhs, env)) else {
                return false;
            };
            if *numeric {
                let (Some(a), Some(b)) = (lv.as_num(), rv.as_num()) else {
                    return false;
                };
                cmp_bool(*op, a, b)
            } else {
                cmp_bool(*op, lv.as_str().as_ref(), rv.as_str().as_ref())
            }
        }
        CExpr::RegexStatic { lhs, re } => {
            let Ok(subject) = eval_cterm(lhs, env) else {
                return false;
            };
            re.is_match(&subject.as_str())
        }
        CExpr::RegexDynamic { lhs, pattern } => {
            let (Ok(subject), Ok(pat)) = (eval_cterm(lhs, env), eval_cterm(pattern, env)) else {
                return false;
            };
            match Regex::new(&pat.as_str()) {
                Ok(re) => re.is_match(&subject.as_str()),
                Err(_) => false,
            }
        }
        CExpr::BadRegex => false,
    }
}

fn eval_cprogram(prog: &CProgram, env: &CEnv<'_>, values: &ComplianceValues) -> ComplianceValue {
    let mut best = values.min();
    for clause in &prog.clauses {
        let contributed = match clause {
            CClause::Bare(test) => {
                if eval_cexpr(test, env) {
                    values.max()
                } else {
                    continue;
                }
            }
            CClause::Arrow(test, value_name) => {
                if eval_cexpr(test, env) {
                    values.index_of(value_name).unwrap_or_else(|| values.min())
                } else {
                    continue;
                }
            }
            CClause::Nested(test, inner) => {
                if eval_cexpr(test, env) {
                    eval_cprogram(inner, env, values)
                } else {
                    continue;
                }
            }
        };
        best = best.or(contributed);
    }
    best
}

/// Runs the compliance fixpoint over the compiled store, optionally
/// extended with request-presented credentials (compiled against a
/// scratch id space layered over the store's interner — the store is
/// not mutated). The caller vets `extra` (signature policy, no POLICY
/// authorizers) exactly as for the AST path.
/// One borrowed query for [`QueryView`]: who asks, the action
/// attributes, and the (already vetted) request-presented credentials.
/// Nothing is cloned — every field borrows the caller's data for the
/// duration of the batch call.
pub struct ViewQuery<'q> {
    /// The requesting principals.
    pub authorizers: &'q [&'q str],
    /// The action attribute set.
    pub attributes: &'q ActionAttributes,
    /// Request-scoped credentials. Callers are expected to have vetted
    /// them already (the session's signature policy); the view treats
    /// them as trustworthy overlay assertions.
    pub extra: &'q [&'q Assertion],
}

impl ViewQuery<'_> {
    /// True when `other` is the *same* query by identity: equal
    /// requester lists, the same attribute map (by address) and the
    /// same extra-credential slice (by address). Identity, not
    /// equality, so the check is O(principals) — batch producers that
    /// want coincident requests collapsed sort them adjacent and share
    /// the borrowed attribute set.
    fn coincides_with(&self, other: &ViewQuery<'_>) -> bool {
        self.authorizers == other.authorizers
            && std::ptr::eq(self.attributes, other.attributes)
            && std::ptr::eq(self.extra.as_ptr(), other.extra.as_ptr())
            && self.extra.len() == other.extra.len()
    }
}

/// A borrowed, reusable evaluation context over a [`CompiledStore`]:
/// the batch-first decision path.
///
/// [`query_compiled`] allocates its worklist scratch (support vector,
/// queue, per-assertion condition memo, attribute slot table, overlay
/// resolvers) afresh on every call, and a [`Query`] clones the
/// attribute map, value set and revocation list per request. A
/// `QueryView` borrows the store, value set and revocation list once
/// and keeps every scratch buffer across requests, so a batch of
/// queries pays for setup once: buffers are cleared, not reallocated;
/// the request-credential id overlay is rebuilt only when the
/// presented-credential set changes between consecutive requests; and
/// consecutive *coincident* requests (same principals, same borrowed
/// attribute set, same credentials) are collapsed into a single
/// fixpoint pass.
pub struct QueryView<'a> {
    store: &'a CompiledStore,
    values: &'a ComplianceValues,
    revoked: &'a BTreeSet<String>,
    /// `_VALUES` pseudo-attribute, rendered once per view.
    values_attr: String,
    /// Revocation flags over the store's interned ids, computed once
    /// per view; overlay ids are appended per credential set.
    base_revoked: Vec<bool>,
    // ---- lifetime-free scratch, reused across requests ----
    support: Vec<ComplianceValue>,
    queue: VecDeque<u32>,
    queued: Vec<bool>,
    cond_values: Vec<Option<ComplianceValue>>,
    extra_notes: Vec<String>,
}

impl<'a> QueryView<'a> {
    /// A view borrowing the store, the compliance value set and the
    /// revocation list. No part of the query state is cloned.
    pub fn new(
        store: &'a CompiledStore,
        values: &'a ComplianceValues,
        revoked: &'a BTreeSet<String>,
    ) -> Self {
        let mut base_revoked = vec![false; store.interner.len()];
        for key in revoked {
            if let Some(id) = store.interner.get(key) {
                base_revoked[id as usize] = true;
            }
        }
        QueryView {
            store,
            values,
            revoked,
            values_attr: values.values_attribute(),
            base_revoked,
            support: Vec::new(),
            queue: VecDeque::new(),
            queued: Vec::new(),
            cond_values: Vec::new(),
            extra_notes: Vec::new(),
        }
    }

    /// Evaluates one query through the view (a batch of one).
    pub fn query_one(&mut self, query: &ViewQuery<'_>) -> QueryResult {
        self.query_batch(std::slice::from_ref(query))
            .pop()
            .expect("batch of one yields one result")
    }

    /// Evaluates a batch of queries, reusing every scratch buffer
    /// across elements. Results are returned in input order and are
    /// element-wise identical to evaluating each query on its own.
    pub fn query_batch(&mut self, queries: &[ViewQuery<'_>]) -> Vec<QueryResult> {
        let store = self.store;
        let values = self.values;
        let revoked_keys = self.revoked;
        let values_attr = self.values_attr.as_str();
        let base_revoked = &self.base_revoked;
        let min = values.min();
        let max = values.max();
        let base_count = store.assertions.len();

        let mut out: Vec<QueryResult> = Vec::with_capacity(queries.len());
        // Overlay state shared across the batch, rebuilt only when the
        // presented-credential slice changes between requests.
        let mut resolver = ScopedResolver::new(&store.interner);
        let mut attr_resolver = ScopedResolver::new(&store.attr_names);
        let mut extra_compiled: Vec<CompiledAssertion> = Vec::new();
        let mut extra_by_licensee: HashMap<PrincipalId, Vec<u32>> = HashMap::new();
        let mut overlay_revoked: Vec<bool> = Vec::new();
        let mut cur_extra: Option<(*const &Assertion, usize)> = None;
        // Slot table: attribute id -> this request's value. Borrows the
        // request's attribute strings, so it lives per batch call.
        let mut slots: Vec<&str> = Vec::new();
        let mut authorizers_text = String::new();

        for (qi, q) in queries.iter().enumerate() {
            // Coincident-request collapse: a request identical (by
            // identity) to its predecessor reuses the predecessor's
            // fixpoint result outright.
            if qi > 0 && q.coincides_with(&queries[qi - 1]) {
                let prev = out[qi - 1].clone();
                out.push(prev);
                continue;
            }

            let extra_id = (q.extra.as_ptr(), q.extra.len());
            if cur_extra != Some(extra_id) {
                // Compile the request-presented credentials into the
                // overlay id space; notes about their bad regex
                // literals are request-scoped and intentionally dropped
                // with the overlay.
                resolver.reset();
                attr_resolver.reset();
                extra_compiled.clear();
                self.extra_notes.clear();
                for a in q.extra {
                    extra_compiled.push(CompiledAssertion::compile(
                        a,
                        &mut resolver,
                        &mut attr_resolver,
                        &mut self.extra_notes,
                    ));
                }
                extra_by_licensee.clear();
                for (i, c) in extra_compiled.iter().enumerate() {
                    for &id in &c.licensee_ids {
                        extra_by_licensee
                            .entry(id)
                            .or_default()
                            .push((base_count + i) as u32);
                    }
                }
                overlay_revoked.clear();
                overlay_revoked.extend_from_slice(base_revoked);
                overlay_revoked.resize(resolver.total_ids(), false);
                for (name, id) in resolver.extra_entries() {
                    if revoked_keys.contains(name) {
                        overlay_revoked[id as usize] = true;
                    }
                }
                cur_extra = Some(extra_id);
            }

            // One hash lookup per distinct attribute name per request:
            // slot id -> the request's value for that name ("" unset).
            slots.clear();
            slots.resize(attr_resolver.total_ids(), "");
            for (name, id) in store.attr_names.entries() {
                slots[id as usize] = q.attributes.get(name);
            }
            for (name, id) in attr_resolver.extra_entries() {
                slots[id as usize] = q.attributes.get(name);
            }
            authorizers_text.clear();
            for (i, a) in q.authorizers.iter().enumerate() {
                if i > 0 {
                    authorizers_text.push(',');
                }
                authorizers_text.push_str(a);
            }

            let total_assertions = base_count + extra_compiled.len();
            let n_ids = resolver.total_ids();
            let revoked = &overlay_revoked;
            let assertion = |idx: u32| -> &CompiledAssertion {
                let idx = idx as usize;
                if idx < base_count {
                    &store.assertions[idx]
                } else {
                    &extra_compiled[idx - base_count]
                }
            };

            // Support assignment over ids; requesters start at max. A
            // requester the interner has never seen cannot appear in
            // any licensees formula, so it cannot influence the
            // fixpoint and is skipped.
            let support = &mut self.support;
            support.clear();
            support.resize(n_ids, min);
            let queue = &mut self.queue;
            queue.clear();
            let queued = &mut self.queued;
            queued.clear();
            queued.resize(total_assertions, false);
            let enqueue_deps =
                |id: PrincipalId, queue: &mut VecDeque<u32>, queued: &mut Vec<bool>| {
                    if let Some(deps) = store.by_licensee.get(id as usize) {
                        for &dep in deps {
                            if !queued[dep as usize] {
                                queued[dep as usize] = true;
                                queue.push_back(dep);
                            }
                        }
                    }
                    if let Some(deps) = extra_by_licensee.get(&id) {
                        for &dep in deps {
                            if !queued[dep as usize] {
                                queued[dep as usize] = true;
                                queue.push_back(dep);
                            }
                        }
                    }
                };
            for a in q.authorizers {
                let Some(id) = resolver.lookup(a) else {
                    continue;
                };
                if revoked[id as usize] || support[id as usize] == max {
                    continue;
                }
                support[id as usize] = max;
                enqueue_deps(id, queue, queued);
            }

            let cond_values = &mut self.cond_values;
            cond_values.clear();
            cond_values.resize(total_assertions, None);
            let mut evaluations = 0usize;
            while let Some(idx) = queue.pop_front() {
                queued[idx as usize] = false;
                let a = assertion(idx);
                if revoked[a.authorizer as usize] {
                    continue; // revoked keys convey nothing
                }
                let Some(lic) = &a.licensees else {
                    continue;
                };
                let cond = *cond_values[idx as usize].get_or_insert_with(|| {
                    evaluations += 1;
                    let env = CEnv {
                        attrs: q.attributes,
                        locals: &a.local_constants,
                        values,
                        authorizers_text: &authorizers_text,
                        values_attr,
                        slots: &slots,
                    };
                    match &a.conditions {
                        None => max,
                        Some(prog) => eval_cprogram(prog, &env, values),
                    }
                });
                if cond == min {
                    continue;
                }
                let assertion_val = cond.and(lic.value(support, min));
                let cur = support[a.authorizer as usize];
                if assertion_val > cur {
                    support[a.authorizer as usize] = assertion_val;
                    enqueue_deps(a.authorizer, queue, queued);
                }
            }

            let value = resolver
                .lookup(POLICY_KEY)
                .map(|id| support[id as usize])
                .unwrap_or(min);
            out.push(QueryResult {
                value,
                value_name: values.name_of(value).to_string(),
                iterations: evaluations,
            });
        }
        out
    }
}

/// Evaluates one [`Query`] against the compiled store: a thin wrapper
/// over a [`QueryView`] batch of one. Callers on the hot path should
/// build a view themselves and batch their requests.
pub fn query_compiled(store: &CompiledStore, extra: &[&Assertion], query: &Query) -> QueryResult {
    let authorizers: Vec<&str> = query.action_authorizers.iter().map(String::as_str).collect();
    let mut view = QueryView::new(store, &query.values, &query.revoked);
    view.query_one(&ViewQuery {
        authorizers: &authorizers,
        attributes: &query.attributes,
        extra,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compliance::check_compliance;
    use crate::parser::parse_assertions;

    fn store_from(text: &str) -> (CompiledStore, Vec<Assertion>) {
        let assertions = parse_assertions(text).unwrap();
        let mut store = CompiledStore::default();
        for a in &assertions {
            store.add(a);
        }
        (store, assertions)
    }

    fn both(text: &str, q: &Query) -> (QueryResult, QueryResult) {
        let (store, assertions) = store_from(text);
        let compiled = query_compiled(&store, &[], q);
        let interpreted = check_compliance(&assertions, q);
        (compiled, interpreted)
    }

    fn query(authorizers: &[&str], attrs: &[(&str, &str)]) -> Query {
        Query::new(
            authorizers.iter().map(|s| s.to_string()).collect(),
            attrs.iter().copied().collect(),
        )
    }

    const FIG2_AND_4: &str = "\
Authorizer: POLICY
licensees: \"Kbob\"
Conditions: app_domain==\"SalariesDB\" && (oper==\"read\" || oper==\"write\");

Authorizer: \"Kbob\"
licensees: \"Kalice\"
Conditions: app_domain==\"SalariesDB\" && oper==\"write\";
";

    #[test]
    fn agrees_with_interpreter_on_paper_examples() {
        for (who, oper) in [
            ("Kbob", "read"),
            ("Kbob", "write"),
            ("Kbob", "drop"),
            ("Kalice", "write"),
            ("Kalice", "read"),
            ("Kmallory", "read"),
        ] {
            let q = query(&[who], &[("app_domain", "SalariesDB"), ("oper", oper)]);
            let (c, i) = both(FIG2_AND_4, &q);
            assert_eq!(c.value, i.value, "{who}/{oper}");
            assert_eq!(c.value_name, i.value_name, "{who}/{oper}");
        }
    }

    #[test]
    fn delegation_and_revocation_agree() {
        let text = "\
Authorizer: POLICY
Licensees: \"Ka\"

Authorizer: \"Ka\"
Licensees: \"Kb\"
";
        let q = query(&["Kb"], &[]);
        let (c, i) = both(text, &q);
        assert!(c.is_authorized() && i.is_authorized());
        let q = query(&["Kb"], &[]).with_revoked(["Ka".to_string()]);
        let (c, i) = both(text, &q);
        assert!(!c.is_authorized() && !i.is_authorized());
    }

    #[test]
    fn threshold_and_cycles_agree() {
        let text = "\
Authorizer: POLICY
Licensees: 2-of(\"Ka\", \"Kb\", \"Kc\")

Authorizer: \"Ka\"
Licensees: \"Kb\"

Authorizer: \"Kb\"
Licensees: \"Ka\"
";
        for reqs in [
            vec!["Ka"],
            vec!["Kb"],
            vec!["Ka", "Kc"],
            vec!["Ka", "Kb", "Kc"],
            vec!["Kz"],
        ] {
            let q = query(&reqs, &[]);
            let (c, i) = both(text, &q);
            assert_eq!(c.value, i.value, "{reqs:?}");
        }
    }

    #[test]
    fn extra_credentials_overlay_does_not_mutate_store() {
        let (store, _) = store_from("Authorizer: POLICY\nLicensees: \"Ka\"\n");
        let interned_before = store.interner.len();
        let delegation = Assertion::new(
            Principal::key("Ka"),
            LicenseeExpr::Principal("Kb".to_string()),
        );
        let q = query(&["Kb"], &[]);
        let r = query_compiled(&store, &[&delegation], &q);
        assert!(r.is_authorized());
        assert_eq!(store.interner.len(), interned_before);
        // Without the overlay the request is denied again.
        assert!(!query_compiled(&store, &[], &q).is_authorized());
    }

    #[test]
    fn bad_regex_literal_is_reported_once_and_always_false() {
        let (store, assertions) = store_from(
            "Authorizer: POLICY\nLicensees: \"Ka\"\nConditions: oper ~= \"(unclosed\";\n",
        );
        assert_eq!(store.notes().len(), 1);
        assert!(store.notes()[0].contains("bad regex"), "{}", store.notes()[0]);
        let q = query(&["Ka"], &[("oper", "read")]);
        let r = query_compiled(&store, &[], &q);
        assert!(!r.is_authorized());
        // And the interpreter agrees on the verdict.
        assert!(!check_compliance(&assertions, &q).is_authorized());
    }

    #[test]
    fn dynamic_regex_pattern_still_per_evaluation() {
        let (store, _) = store_from(
            "Authorizer: POLICY\nLicensees: \"Ka\"\nConditions: oper ~= pat;\n",
        );
        assert!(store.notes().is_empty());
        let q = query(&["Ka"], &[("oper", "read"), ("pat", "^read$")]);
        assert!(query_compiled(&store, &[], &q).is_authorized());
        let q = query(&["Ka"], &[("oper", "read"), ("pat", "(unclosed")]);
        assert!(!query_compiled(&store, &[], &q).is_authorized());
    }

    #[test]
    fn evaluations_counter_matches_worklist_reachability() {
        let mut text = String::from(
            "Authorizer: POLICY\nLicensees: \"Ka\"\nConditions: op==\"go\";\n\n",
        );
        for i in 0..50 {
            text.push_str(&format!(
                "Authorizer: \"Kother{i}\"\nLicensees: \"Kother{}\"\nConditions: op==\"go\";\n\n",
                i + 1
            ));
        }
        let (store, _) = store_from(&text);
        let q = query(&["Ka"], &[("op", "go")]);
        let r = query_compiled(&store, &[], &q);
        assert!(r.is_authorized());
        assert_eq!(r.iterations, 1);
    }

    #[test]
    fn non_binary_values_agree() {
        let values = ComplianceValues::with_middle(&["log"]).unwrap();
        let text = "\
Authorizer: POLICY
Licensees: \"Ka\"
Conditions: amount < 10 -> \"_MAX_TRUST\"; amount < 100 -> \"log\";
";
        for amount in ["5", "50", "5000"] {
            let q = Query::new(
                vec!["Ka".to_string()],
                [("amount", amount)].into_iter().collect(),
            )
            .with_values(values.clone());
            let (c, i) = both(text, &q);
            assert_eq!(c.value_name, i.value_name, "amount={amount}");
        }
    }
}

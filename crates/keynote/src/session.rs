//! The application-facing KeyNote API (RFC 2704 §6 / the `kn_*` calls).
//!
//! A [`KeyNoteSession`] mirrors the C API the paper's applications used:
//! create a session, add locally-trusted policy assertions, add signed
//! credentials (verified on entry), describe the action with attributes
//! and authorizers, and ask for the compliance value.

use crate::ast::{Assertion, Principal};
use crate::compiled::{CompiledStore, QueryView, ViewQuery};
use crate::compliance::{check_compliance_refs, Query, QueryResult};
use crate::eval::ActionAttributes;
use crate::parser::{parse_assertions, ParseError};
use crate::signing::SignatureStatus;
use crate::values::ComplianceValues;
use crate::verify_cache::{VerifyCache, VerifyCacheStats};
use std::collections::BTreeSet;
use std::fmt;
use std::sync::Arc;

/// Errors from session operations.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// Assertion text failed to parse.
    Parse(ParseError),
    /// A credential's signature did not verify.
    BadSignature {
        /// The authorizer of the offending credential.
        authorizer: String,
        /// The verification outcome.
        status: SignatureStatus,
    },
    /// A credential's authorizer was `POLICY`; policy assertions must be
    /// added through [`KeyNoteSession::add_policy`].
    PolicyViaCredential,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::Parse(e) => write!(f, "parse error: {e}"),
            SessionError::BadSignature { authorizer, status } => {
                write!(f, "credential from `{authorizer}` has {status} signature")
            }
            SessionError::PolicyViaCredential => {
                write!(f, "POLICY assertions must be added via add_policy")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ParseError> for SessionError {
    fn from(e: ParseError) -> Self {
        SessionError::Parse(e)
    }
}

/// How strictly credentials are vetted on entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SignaturePolicy {
    /// Credentials must carry a signature that verifies against the
    /// authorizer key. Symbolic (non-key) authorizers are rejected.
    #[default]
    Require,
    /// Accept unsigned and symbolic credentials (used for worked
    /// examples mirroring the paper's `Kbob`-style principals, and for
    /// policy translation pipelines that sign in a later step).
    Permissive,
}

/// The requesting principals of an [`ActionQuery`]: either one key or
/// a borrowed list. Keeping the one-key case inline lets single-
/// principal callers build a query with zero allocations.
#[derive(Clone, Copy, Debug)]
enum PrincipalSet<'a> {
    One(&'a str),
    Many(&'a [&'a str]),
}

/// A borrowed, builder-style action query — the single entry point that
/// replaced `query_action` / `query_action_with_extra` /
/// `query_action_interpreted`, mirroring webcom's `AuthzRequest`.
/// Every field borrows the caller's data; nothing is cloned to ask a
/// question.
///
/// ```
/// # use hetsec_keynote::{ActionQuery, KeyNoteSession};
/// # use hetsec_keynote::eval::ActionAttributes;
/// # let session = KeyNoteSession::permissive();
/// let attrs = ActionAttributes::new().with("app_domain", "SalariesDB").with("oper", "read");
/// let result = session.evaluate(&ActionQuery::principal("Kalice").attributes(&attrs));
/// # let _ = result;
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ActionQuery<'a> {
    principals: PrincipalSet<'a>,
    attributes: Option<&'a ActionAttributes>,
    extra: &'a [Assertion],
    interpreted: bool,
}

impl<'a> ActionQuery<'a> {
    /// A query from a single requesting principal.
    pub fn principal(key_text: &'a str) -> Self {
        ActionQuery {
            principals: PrincipalSet::One(key_text),
            attributes: None,
            extra: &[],
            interpreted: false,
        }
    }

    /// A query from several requesting principals.
    pub fn principals(key_texts: &'a [&'a str]) -> Self {
        ActionQuery {
            principals: PrincipalSet::Many(key_texts),
            attributes: None,
            extra: &[],
            interpreted: false,
        }
    }

    /// Borrows the action attribute set (defaults to empty).
    pub fn attributes(mut self, attrs: &'a ActionAttributes) -> Self {
        self.attributes = Some(attrs);
        self
    }

    /// Considers `extra` credentials for this one evaluation —
    /// request-scoped: they are vetted like stored credentials
    /// (POLICY-authored ones are ignored; under
    /// [`SignaturePolicy::Require`] unverifiable ones are ignored) but
    /// are never added to the session, so they cannot leak authority
    /// into later queries.
    pub fn extra(mut self, extra: &'a [Assertion]) -> Self {
        self.extra = extra;
        self
    }

    /// Routes this query through the AST-interpreting reference path
    /// instead of the compiled engine (differential tests, cold
    /// benchmark baselines). Extra credentials are re-verified without
    /// the signature memo.
    pub fn interpreted(mut self) -> Self {
        self.interpreted = true;
        self
    }

    fn principal_list(&self) -> &[&'a str] {
        match &self.principals {
            PrincipalSet::One(key) => std::slice::from_ref(key),
            PrincipalSet::Many(keys) => keys,
        }
    }
}

/// A KeyNote evaluation session.
#[derive(Clone, Debug)]
pub struct KeyNoteSession {
    policies: Vec<Assertion>,
    credentials: Vec<Assertion>,
    /// Request-path form of `policies ++ credentials`, maintained
    /// incrementally as assertions are added. The AST vectors above stay
    /// the source of truth for printing, signing, and the interpreted
    /// reference path.
    compiled: CompiledStore,
    /// Signature-verdict memo for request-presented credentials. Shared
    /// across clones: a verdict is a fact about credential bytes, not
    /// about this session's state.
    verify_cache: Arc<VerifyCache>,
    attributes: ActionAttributes,
    authorizers: Vec<String>,
    values: ComplianceValues,
    signature_policy: SignaturePolicy,
    revoked: BTreeSet<String>,
    /// Bumped on every mutation that can change a query's answer
    /// (policy/credential/value-set/revocation changes — not per-action
    /// attribute or authorizer state). Lets callers cache decisions and
    /// invalidate them when the session's semantics move.
    epoch: u64,
}

impl Default for KeyNoteSession {
    fn default() -> Self {
        Self::new()
    }
}

impl KeyNoteSession {
    /// A session requiring valid signatures on credentials.
    pub fn new() -> Self {
        KeyNoteSession {
            policies: Vec::new(),
            credentials: Vec::new(),
            compiled: CompiledStore::default(),
            verify_cache: Arc::new(VerifyCache::new()),
            attributes: ActionAttributes::new(),
            authorizers: Vec::new(),
            values: ComplianceValues::binary(),
            signature_policy: SignaturePolicy::Require,
            revoked: BTreeSet::new(),
            epoch: 0,
        }
    }

    /// A session accepting unsigned/symbolic credentials.
    pub fn permissive() -> Self {
        KeyNoteSession {
            signature_policy: SignaturePolicy::Permissive,
            ..Self::new()
        }
    }

    /// The session's mutation epoch. It rises monotonically whenever
    /// policies, credentials, the value set, or the revocation list
    /// change — i.e. whenever a previously computed query answer may no
    /// longer hold. Per-action state (attributes, authorizers) does not
    /// move the epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    fn bump_epoch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
    }

    /// Replaces the compliance value set.
    pub fn set_values(&mut self, values: ComplianceValues) {
        self.values = values;
        self.bump_epoch();
    }

    /// Revokes a key: it conveys no authority in subsequent queries,
    /// neither as a requester nor as an intermediate delegator (the
    /// certificate-revocation check conventional applications perform).
    pub fn revoke_key(&mut self, key_text: impl Into<String>) {
        self.revoked.insert(key_text.into());
        self.bump_epoch();
    }

    /// Reinstates a previously revoked key.
    pub fn reinstate_key(&mut self, key_text: &str) -> bool {
        let removed = self.revoked.remove(key_text);
        if removed {
            self.bump_epoch();
        }
        removed
    }

    /// The currently revoked keys.
    pub fn revoked_keys(&self) -> impl Iterator<Item = &str> {
        self.revoked.iter().map(String::as_str)
    }

    /// Adds locally-trusted policy assertions from text. Every assertion
    /// in the text must have authorizer `POLICY`.
    pub fn add_policy(&mut self, text: &str) -> Result<usize, SessionError> {
        let parsed = parse_assertions(text)?;
        let mut count = 0;
        for a in parsed {
            // Policy assertions are locally trusted by definition; the
            // paper's Figure 5 stores the whole RBAC table in one.
            if a.authorizer != Principal::Policy {
                // Assertions with key authorizers inside a policy file
                // are treated as bundled credentials.
                self.add_credential_parsed(a)?;
            } else {
                self.compiled.add(&a);
                self.policies.push(a);
                self.bump_epoch();
            }
            count += 1;
        }
        Ok(count)
    }

    /// Adds one pre-parsed policy assertion.
    pub fn add_policy_assertion(&mut self, assertion: Assertion) -> Result<(), SessionError> {
        if assertion.authorizer != Principal::Policy {
            return self.add_credential_parsed(assertion);
        }
        self.compiled.add(&assertion);
        self.policies.push(assertion);
        self.bump_epoch();
        Ok(())
    }

    /// Adds signed credentials from text, verifying signatures according
    /// to the session's [`SignaturePolicy`].
    pub fn add_credentials(&mut self, text: &str) -> Result<usize, SessionError> {
        let parsed = parse_assertions(text)?;
        let n = parsed.len();
        for a in parsed {
            self.add_credential_parsed(a)?;
        }
        Ok(n)
    }

    /// Adds one pre-parsed credential.
    pub fn add_credential_parsed(&mut self, assertion: Assertion) -> Result<(), SessionError> {
        if assertion.authorizer == Principal::Policy {
            return Err(SessionError::PolicyViaCredential);
        }
        if self.signature_policy == SignaturePolicy::Require {
            let status = self.verify_cache.verify(&assertion);
            if status != SignatureStatus::Valid {
                let authorizer = assertion
                    .authorizer
                    .key_text()
                    .unwrap_or("POLICY")
                    .to_string();
                return Err(SessionError::BadSignature { authorizer, status });
            }
        }
        self.compiled.add(&assertion);
        self.credentials.push(assertion);
        self.bump_epoch();
        Ok(())
    }

    /// Sets an action attribute (`kn_add_action`).
    pub fn add_action_attribute(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.attributes.set(name, value);
    }

    /// Adds a requesting principal (`kn_add_authorizer`).
    pub fn add_action_authorizer(&mut self, key_text: impl Into<String>) {
        self.authorizers.push(key_text.into());
    }

    /// Clears the per-query state (attributes and authorizers), keeping
    /// policies and credentials.
    pub fn reset_action(&mut self) {
        self.attributes = ActionAttributes::new();
        self.authorizers.clear();
    }

    /// Vets request-presented assertions exactly as
    /// `add_credential_parsed` would, but failures are skipped rather
    /// than stored: invalid credentials are simply not taken into
    /// account (RFC 2704 §5), and nothing is persisted. Signature
    /// verdicts come from the memo cache, so re-presenting the same
    /// credential does not pay a fresh RSA verification.
    fn vetted_extra<'a>(&self, extra: &'a [Assertion]) -> Vec<&'a Assertion> {
        extra
            .iter()
            .filter(|a| {
                a.authorizer != Principal::Policy
                    && (self.signature_policy != SignaturePolicy::Require
                        || self.verify_cache.verify(a) == SignatureStatus::Valid)
            })
            .collect()
    }

    /// Runs the compliance checker (`kn_do_query`).
    pub fn query(&self) -> QueryResult {
        let authorizers: Vec<&str> = self.authorizers.iter().map(String::as_str).collect();
        self.evaluate(&ActionQuery::principals(&authorizers).attributes(&self.attributes))
    }

    /// Evaluates one [`ActionQuery`] without mutating the session's
    /// action state: a batch of one through
    /// [`evaluate_batch`](Self::evaluate_batch).
    pub fn evaluate(&self, query: &ActionQuery<'_>) -> QueryResult {
        self.evaluate_batch(std::slice::from_ref(query))
            .pop()
            .expect("batch of one yields one result")
    }

    /// Evaluates a batch of [`ActionQuery`]s in one pass. All compiled
    /// queries share a single [`QueryView`] — one scratch allocation, one
    /// credential-overlay rebuild per distinct extra-credential set, and
    /// coincident consecutive requests collapse into one fixpoint run.
    /// Results come back in input order and are element-wise identical
    /// to calling [`evaluate`](Self::evaluate) per query.
    pub fn evaluate_batch(&self, queries: &[ActionQuery<'_>]) -> Vec<QueryResult> {
        let empty_attrs = ActionAttributes::new();
        // Vet each request's credentials once; consecutive queries
        // presenting the same slice reuse the previous verdicts without
        // re-consulting the memo cache.
        let mut vetted: Vec<Vec<&Assertion>> = Vec::with_capacity(queries.len());
        for (i, q) in queries.iter().enumerate() {
            if i > 0
                && std::ptr::eq(q.extra.as_ptr(), queries[i - 1].extra.as_ptr())
                && q.extra.len() == queries[i - 1].extra.len()
            {
                let prev = vetted[i - 1].clone();
                vetted.push(prev);
            } else {
                vetted.push(self.vetted_extra(q.extra));
            }
        }
        let mut view_queries: Vec<ViewQuery<'_>> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            if !q.interpreted {
                view_queries.push(ViewQuery {
                    authorizers: q.principal_list(),
                    attributes: q.attributes.unwrap_or(&empty_attrs),
                    extra: &vetted[i],
                });
            }
        }
        let compiled_results = if view_queries.is_empty() {
            Vec::new()
        } else {
            let mut view = QueryView::new(&self.compiled, &self.values, &self.revoked);
            view.query_batch(&view_queries)
        };
        let mut compiled_iter = compiled_results.into_iter();
        queries
            .iter()
            .map(|q| {
                if q.interpreted {
                    self.evaluate_interpreted(q)
                } else {
                    compiled_iter
                        .next()
                        .expect("one result per compiled query")
                }
            })
            .collect()
    }

    /// Reference path: evaluates by interpreting the AST directly, with
    /// no compiled forms and no signature memoization. Exists so
    /// differential tests (and the cold-baseline benchmark series) can
    /// hold the compiled engine to the interpreter's answers; the
    /// reference path may clone freely.
    fn evaluate_interpreted(&self, q: &ActionQuery<'_>) -> QueryResult {
        let empty_attrs = ActionAttributes::new();
        let attrs = q.attributes.unwrap_or(&empty_attrs);
        let mut refs: Vec<&Assertion> =
            Vec::with_capacity(self.policies.len() + self.credentials.len() + q.extra.len());
        refs.extend(self.policies.iter());
        refs.extend(self.credentials.iter());
        for a in q.extra {
            if a.authorizer == Principal::Policy {
                continue;
            }
            if self.signature_policy == SignaturePolicy::Require
                && crate::signing::verify_assertion(a) != SignatureStatus::Valid
            {
                continue;
            }
            refs.push(a);
        }
        let query = Query {
            action_authorizers: q.principal_list().iter().map(|s| s.to_string()).collect(),
            attributes: attrs.clone(),
            values: self.values.clone(),
            revoked: self.revoked.clone(),
        };
        check_compliance_refs(&refs, &query)
    }

    /// Compile-time diagnostics from the stored assertions (currently:
    /// malformed `~=` pattern literals, whose tests evaluate to `false`).
    pub fn compile_notes(&self) -> &[String] {
        self.compiled.notes()
    }

    /// Hit/miss counters of the signature-verdict memo cache.
    pub fn verify_cache_stats(&self) -> VerifyCacheStats {
        self.verify_cache.stats()
    }

    /// The session's signature-verdict memo cache. Exposed so verdict
    /// stamps can admit attested verdicts ([`VerifyCache::admit_stamped`])
    /// and so several sessions on one node can share a cache.
    pub fn verify_cache(&self) -> &Arc<VerifyCache> {
        &self.verify_cache
    }

    /// Replaces the session's verify cache with a shared one. Verdicts
    /// are immutable facts about credential bytes, so swapping caches
    /// never changes query results and does not move the epoch; stored
    /// credentials were already vetted at add time.
    pub fn share_verify_cache(&mut self, cache: Arc<VerifyCache>) {
        self.verify_cache = cache;
    }

    /// The locally-trusted policy assertions.
    pub fn policies(&self) -> &[Assertion] {
        &self.policies
    }

    /// The accepted credentials.
    pub fn credentials(&self) -> &[Assertion] {
        &self.credentials
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::LicenseeExpr;
    use crate::signing::sign_assertion;
    use hetsec_crypto::KeyPair;

    #[test]
    fn permissive_session_runs_paper_example() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy(
            "Authorizer: POLICY\nlicensees: \"Kbob\"\n\
             Conditions: app_domain==\"SalariesDB\" && (oper==\"read\" || oper==\"write\");\n",
        )
        .unwrap();
        s.add_credentials(
            "Authorizer: \"Kbob\"\nlicensees: \"Kalice\"\n\
             Conditions: app_domain==\"SalariesDB\" && oper==\"write\";\n",
        )
        .unwrap();
        s.add_action_authorizer("Kalice");
        s.add_action_attribute("app_domain", "SalariesDB");
        s.add_action_attribute("oper", "write");
        assert!(s.query().is_authorized());
        s.reset_action();
        s.add_action_authorizer("Kalice");
        s.add_action_attribute("app_domain", "SalariesDB");
        s.add_action_attribute("oper", "read");
        assert!(!s.query().is_authorized());
    }

    #[test]
    fn strict_session_rejects_unsigned_credentials() {
        let mut s = KeyNoteSession::new();
        let err = s
            .add_credentials("Authorizer: \"Kbob\"\nlicensees: \"Kalice\"\n")
            .unwrap_err();
        assert!(matches!(err, SessionError::BadSignature { .. }));
    }

    #[test]
    fn strict_session_accepts_valid_signature() {
        let kp = KeyPair::from_label("delegator");
        let key_text = kp.public().to_text();
        let mut a = Assertion::new(
            Principal::key(&key_text),
            LicenseeExpr::Principal("Kalice".to_string()),
        );
        sign_assertion(&mut a, &kp).unwrap();

        let mut s = KeyNoteSession::new();
        s.add_policy(&format!(
            "Authorizer: POLICY\nLicensees: \"{key_text}\"\n"
        ))
        .unwrap();
        s.add_credential_parsed(a).unwrap();
        let attrs = ActionAttributes::new();
        assert!(s.evaluate(&ActionQuery::principals(&["Kalice"]).attributes(&attrs)).is_authorized());
    }

    #[test]
    fn strict_session_rejects_tampered_credential() {
        let kp = KeyPair::from_label("delegator2");
        let key_text = kp.public().to_text();
        let mut a = Assertion::new(
            Principal::key(&key_text),
            LicenseeExpr::Principal("Kalice".to_string()),
        );
        sign_assertion(&mut a, &kp).unwrap();
        a.licensees = Some(LicenseeExpr::Principal("Kmallory".to_string()));
        let mut s = KeyNoteSession::new();
        assert!(s.add_credential_parsed(a).is_err());
    }

    #[test]
    fn policy_via_credential_rejected() {
        let mut s = KeyNoteSession::permissive();
        let a = Assertion::new(
            Principal::Policy,
            LicenseeExpr::Principal("Ka".to_string()),
        );
        assert_eq!(
            s.add_credential_parsed(a),
            Err(SessionError::PolicyViaCredential)
        );
    }

    #[test]
    fn mixed_policy_text_routes_credentials() {
        // A policy file bundling a key-authored credential in permissive
        // mode: both get stored in the right bucket.
        let mut s = KeyNoteSession::permissive();
        let n = s
            .add_policy(
                "Authorizer: POLICY\nLicensees: \"Ka\"\n\n\
                 Authorizer: \"Ka\"\nLicensees: \"Kb\"\n",
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(s.policies().len(), 1);
        assert_eq!(s.credentials().len(), 1);
        assert!(s
            .evaluate(&ActionQuery::principals(&["Kb"]).attributes(&ActionAttributes::new()))
            .is_authorized());
    }

    #[test]
    fn revoked_requester_denied() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy("Authorizer: POLICY\nLicensees: \"Ka\"\n").unwrap();
        let attrs = ActionAttributes::new();
        assert!(s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
        s.revoke_key("Ka");
        assert!(!s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
        assert_eq!(s.revoked_keys().collect::<Vec<_>>(), vec!["Ka"]);
        assert!(s.reinstate_key("Ka"));
        assert!(!s.reinstate_key("Ka"));
        assert!(s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
    }

    #[test]
    fn revoked_intermediate_breaks_delegation_chain() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy(
            "Authorizer: POLICY\nLicensees: \"Ka\"\n\n\
             Authorizer: \"Ka\"\nLicensees: \"Kb\"\n",
        )
        .unwrap();
        let attrs = ActionAttributes::new();
        assert!(s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs)).is_authorized());
        s.revoke_key("Ka");
        // Kb's authority flowed through Ka; revoking Ka kills the chain.
        assert!(!s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs)).is_authorized());
        // Ka itself is of course also denied.
        assert!(!s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
    }

    #[test]
    fn revocation_is_key_specific() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy(
            "Authorizer: POLICY\nLicensees: \"Ka\" || \"Kb\"\n",
        )
        .unwrap();
        s.revoke_key("Ka");
        let attrs = ActionAttributes::new();
        assert!(!s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
        assert!(s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs)).is_authorized());
    }

    #[test]
    fn epoch_rises_on_semantic_mutations_only() {
        let mut s = KeyNoteSession::permissive();
        let e0 = s.epoch();
        s.add_policy("Authorizer: POLICY\nLicensees: \"Ka\"\n")
            .unwrap();
        let e1 = s.epoch();
        assert!(e1 > e0);
        s.add_credentials("Authorizer: \"Ka\"\nLicensees: \"Kb\"\n")
            .unwrap();
        let e2 = s.epoch();
        assert!(e2 > e1);
        s.revoke_key("Ka");
        let e3 = s.epoch();
        assert!(e3 > e2);
        assert!(s.reinstate_key("Ka"));
        let e4 = s.epoch();
        assert!(e4 > e3);
        // Reinstating a key that is not revoked changes nothing.
        assert!(!s.reinstate_key("Ka"));
        assert_eq!(s.epoch(), e4);
        // Per-action state does not move the epoch.
        s.add_action_attribute("oper", "read");
        s.add_action_authorizer("Kb");
        s.reset_action();
        assert_eq!(s.epoch(), e4);
        // Queries do not move the epoch.
        let _ = s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&ActionAttributes::new()));
        assert_eq!(s.epoch(), e4);
    }

    #[test]
    fn extra_credentials_are_request_scoped() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy("Authorizer: POLICY\nLicensees: \"Ka\"\n")
            .unwrap();
        let delegation = Assertion::new(
            Principal::key("Ka"),
            LicenseeExpr::Principal("Kb".to_string()),
        );
        let attrs = ActionAttributes::new();
        // Without the presented credential, Kb has no authority.
        assert!(!s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs)).is_authorized());
        // Presenting it authorises this one request...
        let epoch_before = s.epoch();
        assert!(s
            .evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs).extra(std::slice::from_ref(&delegation)))
            .is_authorized());
        // ...without persisting anything: the next request is back to
        // denied, nothing was stored, and the epoch did not move.
        assert!(!s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs)).is_authorized());
        assert_eq!(s.credentials().len(), 0);
        assert_eq!(s.epoch(), epoch_before);
    }

    #[test]
    fn extra_credentials_respect_signature_policy() {
        // Strict session: an unsigned presented credential is ignored.
        let mut s = KeyNoteSession::new();
        s.add_policy("Authorizer: POLICY\nLicensees: \"Ka\"\n")
            .unwrap();
        let unsigned = Assertion::new(
            Principal::key("Ka"),
            LicenseeExpr::Principal("Kb".to_string()),
        );
        let attrs = ActionAttributes::new();
        assert!(!s
            .evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs).extra(std::slice::from_ref(&unsigned)))
            .is_authorized());
        // A validly signed one is honoured.
        let kp = KeyPair::from_label("scoped-delegator");
        let key_text = kp.public().to_text();
        s.add_policy(&format!("Authorizer: POLICY\nLicensees: \"{key_text}\"\n"))
            .unwrap();
        let mut signed = Assertion::new(
            Principal::key(&key_text),
            LicenseeExpr::Principal("Kb".to_string()),
        );
        sign_assertion(&mut signed, &kp).unwrap();
        assert!(s
            .evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs).extra(std::slice::from_ref(&signed)))
            .is_authorized());
        assert_eq!(s.credentials().len(), 0);
    }

    #[test]
    fn extra_policy_assertions_are_ignored() {
        // A presented "credential" claiming POLICY authority must not
        // grant anything.
        let s = KeyNoteSession::permissive();
        let forged = Assertion::new(
            Principal::Policy,
            LicenseeExpr::Principal("Kmallory".to_string()),
        );
        let attrs = ActionAttributes::new();
        assert!(!s
            .evaluate(&ActionQuery::principals(&["Kmallory"]).attributes(&attrs).extra(std::slice::from_ref(&forged)))
            .is_authorized());
    }

    #[test]
    fn revoked_key_rejected_even_with_memoized_signature() {
        // The memo cache answers the *signature* question; revocation is
        // enforced afterwards by the compliance checker. A key whose
        // valid verdict is cached must still lose all authority once
        // revoked.
        let kp = KeyPair::from_label("memo-revoked");
        let key_text = kp.public().to_text();
        let mut s = KeyNoteSession::new();
        s.add_policy(&format!("Authorizer: POLICY\nLicensees: \"{key_text}\"\n"))
            .unwrap();
        let mut signed = Assertion::new(
            Principal::key(&key_text),
            LicenseeExpr::Principal("Kb".to_string()),
        );
        sign_assertion(&mut signed, &kp).unwrap();
        let attrs = ActionAttributes::new();
        let extra = std::slice::from_ref(&signed);
        // Warm the memo: first query verifies, second hits the cache.
        assert!(s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs).extra(extra)).is_authorized());
        assert!(s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs).extra(extra)).is_authorized());
        let stats = s.verify_cache_stats();
        assert!(stats.hits >= 1, "expected a memo hit, got {stats:?}");
        // Revoke the signer: the cached Valid verdict must not keep the
        // delegation alive.
        s.revoke_key(&key_text);
        assert!(!s.evaluate(&ActionQuery::principals(&["Kb"]).attributes(&attrs).extra(extra)).is_authorized());
        // The verdict is still served from the cache — only compliance
        // changed its mind.
        let after = s.verify_cache_stats();
        assert_eq!(after.misses, stats.misses);
    }

    #[test]
    fn compiled_and_interpreted_paths_agree_via_session() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy(
            "Authorizer: POLICY\nlicensees: \"Kbob\"\n\
             Conditions: app_domain==\"SalariesDB\" && (oper==\"read\" || oper==\"write\");\n",
        )
        .unwrap();
        s.add_credentials(
            "Authorizer: \"Kbob\"\nlicensees: \"Kalice\"\n\
             Conditions: app_domain==\"SalariesDB\" && oper==\"write\";\n",
        )
        .unwrap();
        for (who, oper) in [
            ("Kbob", "read"),
            ("Kbob", "drop"),
            ("Kalice", "write"),
            ("Kalice", "read"),
            ("Kmallory", "write"),
        ] {
            let attrs: ActionAttributes =
                [("app_domain", "SalariesDB"), ("oper", oper)].into_iter().collect();
            let compiled = s.evaluate(&ActionQuery::principals(&[who]).attributes(&attrs));
            let interpreted = s.evaluate(&ActionQuery::principals(&[who]).attributes(&attrs).interpreted());
            assert_eq!(compiled.value, interpreted.value, "{who}/{oper}");
            assert_eq!(compiled.value_name, interpreted.value_name, "{who}/{oper}");
        }
    }

    #[test]
    fn bad_regex_surfaces_as_compile_note() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy(
            "Authorizer: POLICY\nLicensees: \"Ka\"\nConditions: oper ~= \"(unclosed\";\n",
        )
        .unwrap();
        assert_eq!(s.compile_notes().len(), 1);
        let attrs: ActionAttributes = [("oper", "read")].into_iter().collect();
        assert!(!s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
    }

    #[test]
    fn evaluate_does_not_mutate_session() {
        let mut s = KeyNoteSession::permissive();
        s.add_policy("Authorizer: POLICY\nLicensees: \"Ka\"\n")
            .unwrap();
        let attrs = ActionAttributes::new();
        assert!(s.evaluate(&ActionQuery::principals(&["Ka"]).attributes(&attrs)).is_authorized());
        // Session-level action state is untouched.
        assert!(!s.query().is_authorized());
    }
}

//! WebCom's trust-management mediation: turning scheduling decisions
//! into KeyNote queries (paper §4, Figure 3).
//!
//! A scheduling action is described by the attributes the paper lists —
//! `Domain`, `Role`, `ObjectType`, `Permission` — plus
//! `app_domain = "WebCom"` and a `component` identifier; the
//! [`TrustManager`] holds the environment's policy and credential store
//! and answers whether a principal may perform the action.

use crate::cache::{decision_fingerprint, CacheKey, CacheStats, DecisionCache};
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::eval::ActionAttributes;
use hetsec_keynote::session::{ActionQuery, KeyNoteSession, SessionError};
use hetsec_middleware::component::ComponentRef;
use hetsec_rbac::{Domain, Permission, Role};
use hetsec_translate::APP_DOMAIN;
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// A mediated WebCom action: schedule/execute a component under a
/// (domain, role) pair.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduledAction {
    /// The component to execute.
    pub component: ComponentRef,
    /// The domain the execution is pinned to.
    pub domain: Domain,
    /// The role the execution is pinned to.
    pub role: Role,
    /// The permission the component requires.
    pub permission: Permission,
}

/// Every action-attribute name the WebCom adapters set on a KeyNote
/// environment: [`ScheduledAction::attributes`] plus the key-commit
/// adapter's `oper`. Static analyzers use this as the vocabulary an
/// assertion may reference without tripping an unknown-attribute lint.
pub const ADAPTER_ATTRIBUTES: &[&str] = &[
    "app_domain",
    "Domain",
    "Role",
    "ObjectType",
    "Permission",
    "component",
    "middleware",
    "oper",
];

impl ScheduledAction {
    /// Builds an action for a component under a (domain, role), using
    /// the component's own required permission.
    pub fn new(component: ComponentRef, domain: impl Into<Domain>, role: impl Into<Role>) -> Self {
        let permission = component.required_permission();
        ScheduledAction {
            component,
            domain: domain.into(),
            role: role.into(),
            permission,
        }
    }

    /// The KeyNote action attribute set for this action.
    pub fn attributes(&self) -> ActionAttributes {
        ActionAttributes::new()
            .with("app_domain", APP_DOMAIN)
            .with("Domain", self.domain.as_str())
            .with("Role", self.role.as_str())
            .with("ObjectType", self.component.object_type.as_str())
            .with("Permission", self.permission.as_str())
            .with("component", self.component.identifier())
            .with("middleware", self.component.kind.to_string())
    }
}

/// Default number of decisions a trust manager memoises.
const DEFAULT_CACHE_CAPACITY: usize = 1024;

/// One authorization question, built fluently: *which principal(s)*,
/// *for what action or attributes*, *supported by which request-scoped
/// credentials*. This is the single entry point into
/// [`TrustManager::decide`] — it replaces the four overlapping
/// `authorizes`/`query` variants the trust manager used to expose.
///
/// ```
/// # use hetsec_webcom::{AuthzRequest, ScheduledAction, TrustManager};
/// # use hetsec_middleware::component::ComponentRef;
/// # use hetsec_middleware::naming::MiddlewareKind;
/// let tm = TrustManager::permissive();
/// tm.add_policy("Authorizer: POLICY\nLicensees: \"Ka\"\nConditions: app_domain==\"WebCom\";\n")
///     .unwrap();
/// let action = ScheduledAction::new(
///     ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
///     "Dom",
///     "Worker",
/// );
/// assert!(tm.decide(&AuthzRequest::principal("Ka").action(&action)));
/// assert!(!tm.decide(&AuthzRequest::principal("Kb").action(&action)));
/// ```
pub struct AuthzRequest<'a> {
    principals: Vec<&'a str>,
    attrs: Cow<'a, ActionAttributes>,
    credentials: &'a [Assertion],
}

impl<'a> AuthzRequest<'a> {
    /// A request asked on behalf of one principal.
    pub fn principal(principal: &'a str) -> Self {
        AuthzRequest {
            principals: vec![principal],
            attrs: Cow::Owned(ActionAttributes::new()),
            credentials: &[],
        }
    }

    /// A request asked on behalf of several principals at once (KeyNote
    /// evaluates the set jointly, e.g. for k-of threshold licensees).
    pub fn principals(principals: &[&'a str]) -> Self {
        AuthzRequest {
            principals: principals.to_vec(),
            attrs: Cow::Owned(ActionAttributes::new()),
            credentials: &[],
        }
    }

    /// Asks about a scheduled action (sets the full WebCom attribute
    /// set: `app_domain`, `Domain`, `Role`, `ObjectType`, `Permission`,
    /// `component`, `middleware`).
    pub fn action(mut self, action: &ScheduledAction) -> Self {
        self.attrs = Cow::Owned(action.attributes());
        self
    }

    /// Asks about an arbitrary attribute set (escape hatch for callers
    /// that build their own attributes, e.g. KeyCom's admin checks).
    pub fn attributes(mut self, attrs: ActionAttributes) -> Self {
        self.attrs = Cow::Owned(attrs);
        self
    }

    /// Borrows an attribute set the caller keeps alive. Batch producers
    /// should prefer this: requests sharing one borrowed attribute set
    /// are recognised as coincident by [`TrustManager::decide_batch`]
    /// (one fingerprint, one fixpoint pass) where owned copies are not.
    pub fn attributes_ref(mut self, attrs: &'a ActionAttributes) -> Self {
        self.attrs = Cow::Borrowed(attrs);
        self
    }

    /// Attaches request-scoped credentials: they are vetted like stored
    /// credentials and support *this* decision, but are never persisted,
    /// so authority presented with one request cannot leak into later
    /// ones.
    pub fn credentials(mut self, credentials: &'a [Assertion]) -> Self {
        self.credentials = credentials;
        self
    }

    /// The comma-joined principal list (cache key component).
    fn principal_key(&self) -> String {
        self.principals.join(",")
    }

    /// True when `other` presents the same attribute set (by address —
    /// only borrowed sets can match) and the same credential slice, so
    /// its fingerprint can be reused without rehashing.
    fn shares_inputs(&self, other: &AuthzRequest<'_>) -> bool {
        let same_attrs = match (&self.attrs, &other.attrs) {
            (Cow::Borrowed(a), Cow::Borrowed(b)) => std::ptr::eq(*a, *b),
            _ => false,
        };
        same_attrs
            && std::ptr::eq(self.credentials.as_ptr(), other.credentials.as_ptr())
            && self.credentials.len() == other.credentials.len()
    }
}

/// The per-environment trust-management state: a KeyNote session behind
/// a lock, mutated as credentials arrive and queried on every
/// scheduling decision. Decisions are memoised in an epoch-invalidated
/// [`DecisionCache`]: a cached answer is only served while the session
/// epoch it was computed under is still current, so any policy,
/// credential or revocation change takes effect on the very next query.
pub struct TrustManager {
    session: RwLock<KeyNoteSession>,
    cache: DecisionCache,
}

impl TrustManager {
    /// A trust manager accepting only signed credentials.
    pub fn strict() -> Self {
        TrustManager {
            session: RwLock::new(KeyNoteSession::new()),
            cache: DecisionCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// A trust manager accepting symbolic/unsigned credentials (used by
    /// the worked examples that mirror the paper's figures).
    pub fn permissive() -> Self {
        TrustManager {
            session: RwLock::new(KeyNoteSession::permissive()),
            cache: DecisionCache::new(DEFAULT_CACHE_CAPACITY),
        }
    }

    /// Installs locally-trusted policy text.
    pub fn add_policy(&self, text: &str) -> Result<usize, SessionError> {
        self.session.write().add_policy(text)
    }

    /// Installs a pre-built policy assertion.
    pub fn add_policy_assertion(&self, assertion: Assertion) -> Result<(), SessionError> {
        self.session.write().add_policy_assertion(assertion)
    }

    /// Adds a credential (verified according to the session mode).
    pub fn add_credential(&self, assertion: Assertion) -> Result<(), SessionError> {
        self.session.write().add_credential_parsed(assertion)
    }

    /// Adds credentials from text.
    pub fn add_credentials_text(&self, text: &str) -> Result<usize, SessionError> {
        self.session.write().add_credentials(text)
    }

    /// Answers one [`AuthzRequest`]: a batch of one through
    /// [`decide_batch`](Self::decide_batch).
    pub fn decide(&self, request: &AuthzRequest<'_>) -> bool {
        self.decide_batch(std::slice::from_ref(request))[0]
    }

    /// Answers a burst of [`AuthzRequest`]s in one run. The session
    /// read lock is taken once and held across the epoch read, all
    /// evaluations and the cache refill, so a concurrent mutation can
    /// never produce an entry that outlives it; each cache shard's lock
    /// is taken at most once for the lookups and once for the inserts.
    /// A request that is *fully* coincident with its predecessor (same
    /// principals, same borrowed attribute set, same credential slice)
    /// shares the predecessor's representative outright — one key, one
    /// cache probe, one verdict for the whole run; a request sharing
    /// only inputs reuses the fingerprint hash. Cache misses are sorted
    /// by (principal, fingerprint) before evaluation so coincident
    /// requests sit adjacent and collapse into a single fixpoint pass
    /// inside the session's batch evaluator. Results are positionally
    /// aligned with `requests` and identical to calling
    /// [`decide`](Self::decide) per request.
    pub fn decide_batch(&self, requests: &[AuthzRequest<'_>]) -> Vec<bool> {
        // rep[i] = dense index of the representative request whose key
        // (and therefore verdict) request i shares.
        let mut rep: Vec<usize> = Vec::with_capacity(requests.len());
        let mut keys: Vec<CacheKey> = Vec::new();
        let mut rep_req: Vec<usize> = Vec::new();
        for (i, r) in requests.iter().enumerate() {
            let fingerprint = if i > 0 && r.shares_inputs(&requests[i - 1]) {
                let prev = rep[i - 1];
                if r.principals == requests[i - 1].principals {
                    rep.push(prev);
                    continue;
                }
                keys[prev].fingerprint
            } else {
                decision_fingerprint(&r.attrs, r.credentials)
            };
            keys.push(CacheKey {
                principal: r.principal_key(),
                fingerprint,
            });
            rep_req.push(i);
            rep.push(keys.len() - 1);
        }
        let session = self.session.read();
        let epoch = session.epoch();
        let cached = self.cache.get_many(&keys, epoch);
        let mut verdicts: Vec<bool> = cached.iter().map(|c| c.unwrap_or(false)).collect();
        let mut miss_idx: Vec<usize> = cached
            .iter()
            .enumerate()
            .filter_map(|(k, c)| c.is_none().then_some(k))
            .collect();
        if !miss_idx.is_empty() {
            miss_idx.sort_by(|&a, &b| {
                keys[a]
                    .principal
                    .cmp(&keys[b].principal)
                    .then(keys[a].fingerprint.cmp(&keys[b].fingerprint))
            });
            let queries: Vec<ActionQuery<'_>> = miss_idx
                .iter()
                .map(|&k| {
                    let r = &requests[rep_req[k]];
                    ActionQuery::principals(&r.principals)
                        .attributes(&r.attrs)
                        .extra(r.credentials)
                })
                .collect();
            let results = session.evaluate_batch(&queries);
            let mut inserts: Vec<(CacheKey, bool)> = Vec::with_capacity(miss_idx.len());
            for (&k, result) in miss_idx.iter().zip(results) {
                let permitted = result.is_authorized();
                verdicts[k] = permitted;
                inserts.push((keys[k].clone(), permitted));
            }
            self.cache.insert_many(inserts, epoch);
        }
        rep.iter().map(|&k| verdicts[k]).collect()
    }

    /// The underlying session's mutation epoch: rises whenever policies,
    /// credentials, the value set, or revocations change.
    pub fn epoch(&self) -> u64 {
        self.session.read().epoch()
    }

    /// Decision-cache counters (hits, misses, epoch invalidations,
    /// evictions).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Signature-verdict memo counters from the underlying session's
    /// verified-credential cache.
    pub fn verify_cache_stats(&self) -> hetsec_keynote::VerifyCacheStats {
        self.session.read().verify_cache_stats()
    }

    /// The underlying session's signature-verdict memo cache. The stamp
    /// verifier admits attested verdicts through this handle; the cache
    /// has interior mutability, so no session write lock is involved.
    pub fn verify_cache(&self) -> std::sync::Arc<hetsec_keynote::VerifyCache> {
        std::sync::Arc::clone(self.session.read().verify_cache())
    }

    /// Points the underlying session at a shared verify cache, so every
    /// trust manager on a node can be fed by one stamp admission.
    /// Verdicts are immutable facts about credential bytes — sharing
    /// never changes decisions and does not move the epoch.
    pub fn share_verify_cache(&self, cache: std::sync::Arc<hetsec_keynote::VerifyCache>) {
        self.session.write().share_verify_cache(cache);
    }

    /// Assertion-compile diagnostics from the underlying session
    /// (e.g. malformed `~=` pattern literals).
    pub fn compile_notes(&self) -> Vec<String> {
        self.session.read().compile_notes().to_vec()
    }

    /// Number of stored credentials (diagnostic).
    pub fn credential_count(&self) -> usize {
        self.session.read().credentials().len()
    }

    /// Revokes a key for all subsequent mediation decisions.
    pub fn revoke_key(&self, key_text: impl Into<String>) {
        self.session.write().revoke_key(key_text);
    }

    /// Reinstates a previously revoked key.
    pub fn reinstate_key(&self, key_text: &str) -> bool {
        self.session.write().reinstate_key(key_text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_middleware::naming::MiddlewareKind;
    use hetsec_rbac::fixtures::salaries_policy;
    use hetsec_translate::{encode_policy, SymbolicDirectory};

    fn component() -> ComponentRef {
        ComponentRef::new(MiddlewareKind::Ejb, "Sales", "SalariesDB", "read")
    }

    fn manager_with_salaries() -> TrustManager {
        let tm = TrustManager::permissive();
        let dir = SymbolicDirectory::default();
        for a in encode_policy(&salaries_policy(), "KWebCom", &dir) {
            tm.add_policy_assertion(a).unwrap();
        }
        tm
    }

    #[test]
    fn action_attributes_shape() {
        let a = ScheduledAction::new(component(), "Sales", "Manager");
        let attrs = a.attributes();
        assert_eq!(attrs.get("app_domain"), "WebCom");
        assert_eq!(attrs.get("Domain"), "Sales");
        assert_eq!(attrs.get("Role"), "Manager");
        assert_eq!(attrs.get("ObjectType"), "SalariesDB");
        assert_eq!(attrs.get("Permission"), "read");
        assert_eq!(attrs.get("middleware"), "EJB");
        assert!(attrs.get("component").starts_with("ejb://"));
    }

    fn allowed(tm: &TrustManager, principal: &str, action: &ScheduledAction) -> bool {
        tm.decide(&AuthzRequest::principal(principal).action(action))
    }

    #[test]
    fn decide_follows_encoded_policy() {
        let tm = manager_with_salaries();
        let action = ScheduledAction::new(component(), "Sales", "Manager");
        assert!(allowed(&tm, "Kclaire", &action));
        assert!(!allowed(&tm, "Kdave", &action));
        // write is not granted to Sales/Manager.
        let write = ScheduledAction {
            permission: Permission::new("write"),
            ..action
        };
        assert!(!allowed(&tm, "Kclaire", &write));
    }

    #[test]
    fn delegation_credentials_extend_authorisation() {
        let tm = manager_with_salaries();
        let dir = SymbolicDirectory::default();
        let cred = hetsec_translate::delegate_role(
            &"Claire".into(),
            &"Fred".into(),
            &hetsec_rbac::DomainRole::new("Sales", "Manager"),
            &dir,
        );
        let action = ScheduledAction::new(component(), "Sales", "Manager");
        assert!(!allowed(&tm, "Kfred", &action));
        tm.add_credential(cred).unwrap();
        // 5 membership credentials from the encoded policy + the delegation.
        assert_eq!(tm.credential_count(), 6);
        assert!(allowed(&tm, "Kfred", &action));
    }

    #[test]
    fn repeated_queries_hit_the_cache() {
        let tm = manager_with_salaries();
        let action = ScheduledAction::new(component(), "Sales", "Manager");
        assert!(allowed(&tm, "Kclaire", &action));
        let after_first = tm.cache_stats();
        assert_eq!(after_first.hits, 0);
        for _ in 0..10 {
            assert!(allowed(&tm, "Kclaire", &action));
        }
        let stats = tm.cache_stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, after_first.misses);
    }

    #[test]
    fn revocation_invalidates_cached_decisions_immediately() {
        let tm = manager_with_salaries();
        let action = ScheduledAction::new(component(), "Sales", "Manager");
        assert!(allowed(&tm, "Kclaire", &action));
        assert!(allowed(&tm, "Kclaire", &action)); // cached grant
        let epoch_before = tm.epoch();
        tm.revoke_key("Kclaire");
        assert!(tm.epoch() > epoch_before);
        // The very next decision reflects the revocation.
        assert!(!allowed(&tm, "Kclaire", &action));
        assert!(tm.cache_stats().invalidations >= 1);
        tm.reinstate_key("Kclaire");
        assert!(allowed(&tm, "Kclaire", &action));
    }

    #[test]
    fn presented_credentials_do_not_persist() {
        let tm = manager_with_salaries();
        let dir = SymbolicDirectory::default();
        let cred = hetsec_translate::delegate_role(
            &"Claire".into(),
            &"Fred".into(),
            &hetsec_rbac::DomainRole::new("Sales", "Manager"),
            &dir,
        );
        let action = ScheduledAction::new(component(), "Sales", "Manager");
        let count_before = tm.credential_count();
        let with_cred = |tm: &TrustManager| {
            tm.decide(
                &AuthzRequest::principal("Kfred")
                    .action(&action)
                    .credentials(std::slice::from_ref(&cred)),
            )
        };
        assert!(with_cred(&tm));
        // Nothing was stored: the count and the epoch are unchanged, and
        // a request without the credential is denied.
        assert_eq!(tm.credential_count(), count_before);
        assert!(!allowed(&tm, "Kfred", &action));
        // Presenting again still works (served from cache or not).
        assert!(with_cred(&tm));
    }

    #[test]
    fn threshold_requests_take_multiple_principals() {
        let tm = TrustManager::permissive();
        tm.add_policy(
            "Authorizer: POLICY\nLicensees: 2-of(\"Ka\", \"Kb\", \"Kc\")\n\
             Conditions: app_domain==\"WebCom\";\n",
        )
        .unwrap();
        let action = ScheduledAction::new(component(), "Sales", "Manager");
        assert!(tm.decide(&AuthzRequest::principals(&["Ka", "Kb"]).action(&action)));
        assert!(!tm.decide(&AuthzRequest::principal("Ka").action(&action)));
    }

    #[test]
    fn strict_manager_rejects_unsigned() {
        let tm = TrustManager::strict();
        let a = hetsec_keynote::parser::parse_assertion(
            "Authorizer: \"Kx\"\nLicensees: \"Ky\"\n",
        )
        .unwrap();
        assert!(tm.add_credential(a).is_err());
    }
}

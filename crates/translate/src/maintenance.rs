//! Policy Maintenance (paper §4.4): keeping a consistent global policy
//! across heterogeneous middlewares.
//!
//! The paper recommends making changes *to the trust-management policy*
//! and propagating them down the security stack. [`PolicyBus`] holds the
//! unified (trust-level) policy, fans every change out to the registered
//! middleware endpoints that own the affected domain, and can audit
//! end-to-end consistency by diffing each endpoint's exported policy
//! against the unified view.

use hetsec_middleware::security::MiddlewareSecurity;
use hetsec_rbac::{Domain, PermissionGrant, PolicyDiff, RbacPolicy, RoleAssignment};
use parking_lot::RwLock;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One change to the unified policy.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyChange {
    /// Add a `HasPermission` row.
    Grant(PermissionGrant),
    /// Remove a `HasPermission` row.
    Revoke(PermissionGrant),
    /// Add a `UserRole` row.
    Assign(RoleAssignment),
    /// Remove a `UserRole` row.
    Unassign(RoleAssignment),
}

impl PolicyChange {
    /// The domain the change affects.
    pub fn domain(&self) -> &Domain {
        match self {
            PolicyChange::Grant(g) | PolicyChange::Revoke(g) => &g.domain,
            PolicyChange::Assign(a) | PolicyChange::Unassign(a) => &a.domain,
        }
    }
}

/// A concrete verdict-flip witness attached to a semantic-diff
/// objection (`HS015`/`HS016`): the exact request the candidate policy
/// decides differently from the current one. All fields are
/// pre-rendered strings so the type stays serialization-stable without
/// depending on the analyzer crate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionWitness {
    /// The requesting principal (key text).
    pub principal: String,
    /// The request's action-attribute valuation, `Attr="value", ...`.
    pub attributes: String,
    /// The current policy's verdict: `GRANT` or `DENY`.
    pub before: String,
    /// The candidate policy's verdict: `GRANT` or `DENY`.
    pub after: String,
}

/// One objection raised by an [`AdmissionGate`] reviewing a candidate
/// unified policy. Mirrors the analyzer's JSON finding shape (stable
/// `HS0xx` code, lowercase severity label) without depending on the
/// analyzer crate — the gate implementation lives above this crate.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdmissionFinding {
    /// Stable lint code (`HS0xx`).
    pub code: String,
    /// Severity label: `error`, `warn` or `info`.
    pub severity: String,
    /// Human-readable description of the objection.
    pub message: String,
    /// Verdict-flip witnesses, for semantic-diff objections. Empty for
    /// syntactic findings (and for payloads serialized before the field
    /// existed).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub witnesses: Vec<AdmissionWitness>,
}

impl AdmissionFinding {
    /// True for findings that block admission.
    pub fn is_error(&self) -> bool {
        self.severity == "error"
    }
}

/// Pre-commit review of a candidate unified policy. [`PolicyBus::apply`]
/// evaluates the candidate (current policy + change) through the gate
/// *before* committing; any `error`-severity finding rejects the change
/// outright — nothing is committed and nothing propagates.
pub trait AdmissionGate: Send + Sync {
    /// Reviews `candidate` against `current`, returning objections.
    /// Implementations should report only *new* problems the change
    /// introduces, so pre-existing debt does not freeze the policy.
    fn review(&self, current: &RbacPolicy, candidate: &RbacPolicy) -> Vec<AdmissionFinding>;

    /// Delta-aware review: like [`AdmissionGate::review`], but also
    /// told *which* change produced the candidate, so incremental
    /// implementations can dirty only what the change touches instead
    /// of re-deriving the edit by diffing the two policies. The default
    /// ignores the change and falls back to the full review.
    fn review_delta(
        &self,
        current: &RbacPolicy,
        candidate: &RbacPolicy,
        change: &PolicyChange,
    ) -> Vec<AdmissionFinding> {
        let _ = change;
        self.review(current, candidate)
    }
}

/// What happened when a change was propagated.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PropagationReport {
    /// Whether the unified policy actually changed.
    pub unified_changed: bool,
    /// Admission-gate objections. Non-empty means the change was
    /// rejected before commit: the unified policy is untouched and
    /// nothing propagated.
    pub rejected: Vec<AdmissionFinding>,
    /// Endpoints (by instance name) that accepted the change.
    pub propagated_to: Vec<String>,
    /// Endpoint failures: (instance name, error text).
    pub failures: Vec<(String, String)>,
    /// Post-propagation consistency audit over every endpoint (the
    /// analyzer's pass 4 run from the maintenance flow): each entry is
    /// one endpoint diffed against the unified view.
    pub consistency: Vec<EndpointConsistency>,
}

impl PropagationReport {
    /// True when the change passed the admission gate (or no gate is
    /// installed).
    pub fn admitted(&self) -> bool {
        self.rejected.is_empty()
    }

    /// True when every endpoint agreed with the unified policy after
    /// the propagation.
    pub fn is_consistent(&self) -> bool {
        self.consistency.iter().all(|c| c.is_consistent())
    }

    /// Instance names of endpoints that disagree with the unified view.
    pub fn inconsistent_endpoints(&self) -> Vec<&str> {
        self.consistency
            .iter()
            .filter(|c| !c.is_consistent())
            .map(|c| c.instance.as_str())
            .collect()
    }
}

/// Consistency audit result for one endpoint.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EndpointConsistency {
    /// The endpoint's instance name.
    pub instance: String,
    /// Difference between the endpoint's export and the unified view
    /// restricted to the endpoint's domains (empty diff = consistent).
    pub diff: PolicyDiff,
}

impl EndpointConsistency {
    /// True when the endpoint agrees with the unified policy.
    pub fn is_consistent(&self) -> bool {
        self.diff.is_empty()
    }
}

/// The maintenance bus.
pub struct PolicyBus {
    unified: RwLock<RbacPolicy>,
    endpoints: RwLock<Vec<Arc<dyn MiddlewareSecurity>>>,
    gate: RwLock<Option<Arc<dyn AdmissionGate>>>,
}

/// Applies `change` to `policy`, returning whether anything changed.
fn apply_change(policy: &mut RbacPolicy, change: &PolicyChange) -> bool {
    match change {
        PolicyChange::Grant(g) => policy.grant(g.clone()),
        PolicyChange::Revoke(g) => policy.revoke(g),
        PolicyChange::Assign(a) => policy.assign(a.clone()),
        PolicyChange::Unassign(a) => policy.unassign(a),
    }
}

impl Default for PolicyBus {
    fn default() -> Self {
        Self::new()
    }
}

impl PolicyBus {
    /// An empty bus.
    pub fn new() -> Self {
        PolicyBus {
            unified: RwLock::new(RbacPolicy::new()),
            endpoints: RwLock::new(Vec::new()),
            gate: RwLock::new(None),
        }
    }

    /// A bus seeded with an initial unified policy.
    pub fn with_policy(policy: RbacPolicy) -> Self {
        PolicyBus {
            unified: RwLock::new(policy),
            endpoints: RwLock::new(Vec::new()),
            gate: RwLock::new(None),
        }
    }

    /// Installs an admission gate reviewed on every [`PolicyBus::apply`].
    pub fn set_gate(&self, gate: Arc<dyn AdmissionGate>) {
        *self.gate.write() = Some(gate);
    }

    /// Removes the admission gate.
    pub fn clear_gate(&self) {
        *self.gate.write() = None;
    }

    /// Registers a middleware endpoint and commissions it with the
    /// portion of the unified policy it owns (initial configuration).
    pub fn register(&self, endpoint: Arc<dyn MiddlewareSecurity>) {
        endpoint.import_policy(&self.unified.read());
        self.endpoints.write().push(endpoint);
    }

    /// The current unified policy.
    pub fn unified(&self) -> RbacPolicy {
        self.unified.read().clone()
    }

    /// Registered endpoint count.
    pub fn endpoint_count(&self) -> usize {
        self.endpoints.read().len()
    }

    /// Applies a change to the unified policy and propagates it to every
    /// endpoint owning the affected domain (the paper's recommended
    /// top-down maintenance flow).
    pub fn apply(&self, change: &PolicyChange) -> PropagationReport {
        let mut report = PropagationReport::default();
        // Admission review: evaluate the candidate policy *before*
        // committing, so a rejected change never reaches the unified
        // view or any endpoint.
        let gate = self.gate.read().clone();
        if let Some(gate) = gate {
            let current = self.unified.read().clone();
            let mut candidate = current.clone();
            if apply_change(&mut candidate, change) {
                let findings = gate.review_delta(&current, &candidate, change);
                if findings.iter().any(AdmissionFinding::is_error) {
                    report.rejected = findings;
                    report.consistency = self.consistency_report();
                    return report;
                }
            }
        }
        {
            let mut unified = self.unified.write();
            report.unified_changed = apply_change(&mut unified, change);
        }
        let domain = change.domain();
        for ep in self.endpoints.read().iter() {
            if !ep.owned_domains().contains(domain) {
                continue;
            }
            let result = match change {
                PolicyChange::Grant(g) => ep.grant(g),
                PolicyChange::Revoke(g) => ep.revoke(g),
                PolicyChange::Assign(a) => ep.assign(a),
                PolicyChange::Unassign(a) => ep.unassign(a),
            };
            match result {
                Ok(()) => report.propagated_to.push(ep.instance_name()),
                Err(e) => report.failures.push((ep.instance_name(), e.to_string())),
            }
        }
        // Audit every endpoint right away, so a change that silently
        // failed to land (or out-of-band drift) surfaces with the
        // propagation that noticed it, not at the next manual audit.
        report.consistency = self.consistency_report();
        report
    }

    /// Restricts `policy` to the rows within `domains`.
    fn restrict(policy: &RbacPolicy, domains: &[Domain]) -> RbacPolicy {
        let mut out = RbacPolicy::new();
        for g in policy.grants() {
            if domains.contains(&g.domain) {
                out.grant(g.clone());
            }
        }
        for a in policy.assignments() {
            if domains.contains(&a.domain) {
                out.assign(a.clone());
            }
        }
        out
    }

    /// Audits every endpoint against the unified view.
    pub fn consistency_report(&self) -> Vec<EndpointConsistency> {
        let unified = self.unified.read().clone();
        self.endpoints
            .read()
            .iter()
            .map(|ep| {
                let owned = ep.owned_domains();
                let want = Self::restrict(&unified, &owned);
                let have = Self::restrict(&ep.export_policy(), &owned);
                EndpointConsistency {
                    instance: ep.instance_name(),
                    diff: PolicyDiff::between(&have, &want),
                }
            })
            .collect()
    }

    /// Repairs every inconsistent endpoint by re-importing the unified
    /// view (changes made behind the bus's back are overwritten in the
    /// additive direction; stale extra rows are revoked). Returns the
    /// number of rows changed across endpoints.
    pub fn repair(&self) -> usize {
        let mut changed = 0;
        let unified = self.unified.read().clone();
        for ep in self.endpoints.read().iter() {
            let owned = ep.owned_domains();
            let want = Self::restrict(&unified, &owned);
            let have = Self::restrict(&ep.export_policy(), &owned);
            let diff = PolicyDiff::between(&have, &want);
            for g in &diff.added_grants {
                if ep.grant(g).is_ok() {
                    changed += 1;
                }
            }
            for g in &diff.removed_grants {
                if ep.revoke(g).is_ok() {
                    changed += 1;
                }
            }
            for a in &diff.added_assignments {
                if ep.assign(a).is_ok() {
                    changed += 1;
                }
            }
            for a in &diff.removed_assignments {
                if ep.unassign(a).is_ok() {
                    changed += 1;
                }
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_com::ComMiddleware;
    use hetsec_ejb::EjbMiddleware;
    use hetsec_middleware::naming::EjbDomain;
    use hetsec_middleware::security::MiddlewareSecurityExt;
    use hetsec_rbac::fixtures::salaries_policy;

    fn two_endpoint_bus() -> (PolicyBus, Arc<ComMiddleware>, Arc<EjbMiddleware>, String) {
        let ejb_domain = EjbDomain::new("h", "s", "j").to_string();
        // Unified policy: COM rows in CORP, EJB rows in the EJB domain.
        let mut unified = RbacPolicy::new();
        unified.grant(PermissionGrant::new("CORP", "Manager", "SalariesDB", "Access"));
        unified.assign(RoleAssignment::new("bob", "CORP", "Manager"));
        unified.grant(PermissionGrant::new(
            ejb_domain.as_str(),
            "Clerk",
            "SalariesBean",
            "write",
        ));
        unified.assign(RoleAssignment::new("alice", ejb_domain.as_str(), "Clerk"));
        let bus = PolicyBus::with_policy(unified);
        let com = Arc::new(ComMiddleware::new("CORP"));
        let ejb = Arc::new(EjbMiddleware::new(EjbDomain::new("h", "s", "j")));
        bus.register(com.clone());
        bus.register(ejb.clone());
        (bus, com, ejb, ejb_domain)
    }

    #[test]
    fn registration_commissions_owned_portion() {
        let (bus, com, ejb, ejb_domain) = two_endpoint_bus();
        assert_eq!(bus.endpoint_count(), 2);
        assert!(com.allows(&"bob".into(), &"CORP".into(), &"SalariesDB".into(), &"Access".into()));
        assert!(ejb.allows(
            &"alice".into(),
            &ejb_domain.as_str().into(),
            &"SalariesBean".into(),
            &"write".into()
        ));
        // Everything consistent right after commissioning.
        assert!(bus.consistency_report().iter().all(|c| c.is_consistent()));
    }

    #[test]
    fn apply_propagates_to_owning_endpoint_only() {
        let (bus, com, ejb, ejb_domain) = two_endpoint_bus();
        let change = PolicyChange::Assign(RoleAssignment::new("carol", "CORP", "Manager"));
        let report = bus.apply(&change);
        assert!(report.unified_changed);
        assert_eq!(report.propagated_to, vec![com.instance_name()]);
        assert!(report.failures.is_empty());
        assert!(report.is_consistent());
        assert_eq!(report.consistency.len(), 2);
        assert!(com.allows(&"carol".into(), &"CORP".into(), &"SalariesDB".into(), &"Access".into()));
        // EJB untouched.
        assert!(!ejb.allows(
            &"carol".into(),
            &ejb_domain.as_str().into(),
            &"SalariesBean".into(),
            &"write".into()
        ));
        assert!(bus.consistency_report().iter().all(|c| c.is_consistent()));
    }

    #[test]
    fn revocation_propagates() {
        let (bus, com, _, _) = two_endpoint_bus();
        let change = PolicyChange::Unassign(RoleAssignment::new("bob", "CORP", "Manager"));
        let report = bus.apply(&change);
        assert!(report.unified_changed);
        assert!(!com.allows(&"bob".into(), &"CORP".into(), &"SalariesDB".into(), &"Access".into()));
    }

    #[test]
    fn idempotent_change_reports_no_unified_change() {
        let (bus, _, _, _) = two_endpoint_bus();
        let change = PolicyChange::Assign(RoleAssignment::new("bob", "CORP", "Manager"));
        let report = bus.apply(&change);
        assert!(!report.unified_changed); // already present
    }

    #[test]
    fn out_of_band_drift_detected_and_repaired() {
        let (bus, com, _, _) = two_endpoint_bus();
        // Someone edits the COM catalogue behind the bus's back.
        com.catalog().add_role_member("Manager", "mallory");
        let audit = bus.consistency_report();
        let com_audit = audit.iter().find(|c| c.instance.contains("COM+")).unwrap();
        assert!(!com_audit.is_consistent());
        assert_eq!(com_audit.diff.removed_assignments.len(), 1);
        let changed = bus.repair();
        assert_eq!(changed, 1);
        assert!(bus.consistency_report().iter().all(|c| c.is_consistent()));
        assert!(!com.allows(&"mallory".into(), &"CORP".into(), &"SalariesDB".into(), &"Access".into()));
    }

    #[test]
    fn apply_surfaces_out_of_band_drift() {
        let (bus, com, _, _) = two_endpoint_bus();
        // Drift introduced behind the bus's back ...
        com.catalog().add_role_member("Manager", "mallory");
        // ... is reported by the very next propagation, without a
        // separate audit call.
        let change = PolicyChange::Assign(RoleAssignment::new("carol", "CORP", "Manager"));
        let report = bus.apply(&change);
        assert!(!report.is_consistent());
        let bad = report.inconsistent_endpoints();
        assert_eq!(bad.len(), 1);
        assert!(bad[0].contains("COM+"), "{bad:?}");
    }

    /// A gate that objects (with the given severity) to any change
    /// touching the named user.
    struct UserBan {
        user: &'static str,
        severity: &'static str,
    }

    impl AdmissionGate for UserBan {
        fn review(&self, current: &RbacPolicy, candidate: &RbacPolicy) -> Vec<AdmissionFinding> {
            let had = current.assignments().any(|a| a.user.as_str() == self.user);
            let has = candidate.assignments().any(|a| a.user.as_str() == self.user);
            if has && !had {
                vec![AdmissionFinding {
                    code: "HS013".to_string(),
                    severity: self.severity.to_string(),
                    message: format!("user {:?} is banned", self.user),
                    witnesses: Vec::new(),
                }]
            } else {
                Vec::new()
            }
        }
    }

    #[test]
    fn gate_rejects_before_commit_and_propagation() {
        let (bus, com, _, _) = two_endpoint_bus();
        bus.set_gate(Arc::new(UserBan { user: "mallory", severity: "error" }));
        let before = bus.unified();
        let report = bus.apply(&PolicyChange::Assign(RoleAssignment::new(
            "mallory", "CORP", "Manager",
        )));
        assert!(!report.admitted());
        assert!(!report.unified_changed);
        assert!(report.propagated_to.is_empty());
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].code, "HS013");
        assert!(report.rejected[0].is_error());
        // Nothing committed, nothing propagated.
        assert_eq!(bus.unified(), before);
        assert!(!com.allows(&"mallory".into(), &"CORP".into(), &"SalariesDB".into(), &"Access".into()));
        // The fabric is still consistent — the rejection left no drift.
        assert!(report.is_consistent());
    }

    #[test]
    fn gate_admits_clean_changes_and_non_error_findings() {
        let (bus, com, _, _) = two_endpoint_bus();
        bus.set_gate(Arc::new(UserBan { user: "mallory", severity: "warn" }));
        // A change the gate has no objection to goes through untouched.
        let clean = bus.apply(&PolicyChange::Assign(RoleAssignment::new(
            "carol", "CORP", "Manager",
        )));
        assert!(clean.admitted() && clean.unified_changed);
        // Warn-severity objections do not block.
        let warned = bus.apply(&PolicyChange::Assign(RoleAssignment::new(
            "mallory", "CORP", "Manager",
        )));
        assert!(warned.admitted() && warned.unified_changed);
        assert!(com.allows(&"mallory".into(), &"CORP".into(), &"SalariesDB".into(), &"Access".into()));
    }

    #[test]
    fn cleared_gate_stops_reviewing() {
        let (bus, _, _, _) = two_endpoint_bus();
        bus.set_gate(Arc::new(UserBan { user: "mallory", severity: "error" }));
        bus.clear_gate();
        let report = bus.apply(&PolicyChange::Assign(RoleAssignment::new(
            "mallory", "CORP", "Manager",
        )));
        assert!(report.admitted() && report.unified_changed);
    }

    #[test]
    fn unified_policy_snapshot() {
        let bus = PolicyBus::with_policy(salaries_policy());
        assert_eq!(bus.unified(), salaries_policy());
        assert_eq!(bus.endpoint_count(), 0);
    }

    #[test]
    fn change_domain_accessor() {
        let g = PermissionGrant::new("D", "R", "T", "p");
        assert_eq!(PolicyChange::Grant(g.clone()).domain().as_str(), "D");
        assert_eq!(PolicyChange::Revoke(g).domain().as_str(), "D");
        let a = RoleAssignment::new("u", "E", "R");
        assert_eq!(PolicyChange::Assign(a.clone()).domain().as_str(), "E");
        assert_eq!(PolicyChange::Unassign(a).domain().as_str(), "E");
    }

    #[test]
    fn empty_witnesses_are_left_out_of_the_json() {
        let mut finding = AdmissionFinding {
            code: "HS013".to_string(),
            severity: "error".to_string(),
            message: "banned".to_string(),
            witnesses: Vec::new(),
        };
        let text = serde_json::to_string(&finding).unwrap();
        assert_eq!(text, r#"{"code":"HS013","severity":"error","message":"banned"}"#);
        assert_eq!(serde_json::from_str::<AdmissionFinding>(&text).unwrap(), finding);
        finding.witnesses.push(AdmissionWitness {
            principal: "Kalice".to_string(),
            attributes: "oper=\"read\"".to_string(),
            before: "DENY".to_string(),
            after: "GRANT".to_string(),
        });
        let text = serde_json::to_string(&finding).unwrap();
        assert!(text.contains(r#""witnesses":[{"principal":"Kalice""#), "{text}");
        assert_eq!(serde_json::from_str::<AdmissionFinding>(&text).unwrap(), finding);
    }
}

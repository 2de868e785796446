//! The stacked authorisation architecture (paper §5, Figure 10).
//!
//! Security mediation is a stack of pluggable layers:
//!
//! ```text
//! L3  Application security   (workflow rules in the condensed graph)
//! L2  Trust management       (KeyNote)
//! L1  Middleware security    (COM+/EJB/CORBA)
//! L0  OS security            (Windows ACLs / Unix modes)
//! ```
//!
//! Layers are pluggable "in the sense of PAM" [17, 25]: an environment
//! stacks whatever its platform provides (Figure 9's System X has only
//! OS(U) + T(KN); System Y has OS(W) + M(COM)). Each layer returns a
//! [`Verdict`]; the stack combines them under a configurable rule.

use crate::authz::{AuthzRequest, ScheduledAction, TrustManager};
use crate::protocol::Presented;
use hetsec_keynote::eval::ActionAttributes;
use hetsec_middleware::security::MiddlewareSecurity;
use hetsec_os::unix::{UnixAccess, UnixSecurity};
use hetsec_os::windows::{AccessMask, WindowsSecurity};
use hetsec_rbac::User;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::sync::Arc;

/// The four layer positions of Figure 10.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LayerLevel {
    /// Operating system security.
    L0Os,
    /// Middleware security.
    L1Middleware,
    /// Trust management.
    L2TrustManagement,
    /// Application (workflow) security.
    L3Application,
}

impl std::fmt::Display for LayerLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            LayerLevel::L0Os => "L0/OS",
            LayerLevel::L1Middleware => "L1/Middleware",
            LayerLevel::L2TrustManagement => "L2/TrustManagement",
            LayerLevel::L3Application => "L3/Application",
        };
        write!(f, "{s}")
    }
}

/// One layer's opinion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The layer explicitly permits the action.
    Grant,
    /// The layer explicitly forbids the action.
    Deny(String),
    /// The layer has no opinion (e.g. the OS layer for an action with no
    /// OS-level object).
    Abstain,
}

/// Everything a layer may need to decide.
#[derive(Clone, Debug)]
pub struct AuthzContext {
    /// The requesting user (middleware/OS identity).
    pub user: User,
    /// The requesting principal's key text (trust-management identity).
    pub principal: String,
    /// The action.
    pub action: ScheduledAction,
    /// Credentials presented with the request (delegation chains etc.)
    /// and the stamps over them, shared with the request; the
    /// credentials are consumed by the trust-management layer.
    pub presented: Presented,
}

impl AuthzContext {
    /// A context with no presented credentials.
    pub fn new(user: impl Into<User>, principal: impl Into<String>, action: ScheduledAction) -> Self {
        AuthzContext {
            user: user.into(),
            principal: principal.into(),
            action,
            presented: Presented::Nothing,
        }
    }

    /// The presented credentials.
    pub fn credentials(&self) -> &[hetsec_keynote::ast::Assertion] {
        self.presented.credentials()
    }
}

/// A pluggable mediation layer.
pub trait AuthzLayer: Send + Sync {
    /// Where the layer sits in the stack.
    fn level(&self) -> LayerLevel;

    /// Diagnostic name.
    fn name(&self) -> String;

    /// The layer's verdict for a request.
    fn decide(&self, ctx: &AuthzContext) -> Verdict;

    /// The layer's verdicts for a burst of requests, positionally
    /// aligned with `ctxs`. The default consults
    /// [`decide`](Self::decide) per request; layers with batch-aware
    /// backends (trust management) override it to amortise lock
    /// acquisition and evaluation setup across the burst. Overrides
    /// must be element-wise equivalent to the sequential default.
    fn decide_batch(&self, ctxs: &[&AuthzContext]) -> Vec<Verdict> {
        ctxs.iter().map(|c| self.decide(c)).collect()
    }

    /// Version of the layer's decision-relevant state, for diagnostics:
    /// trust management reports its KeyNote epoch, which moves as
    /// credentials arrive and keys are revoked; other layers keep the
    /// default constant. Nothing caches on it — L0/L1 policy changes
    /// through native administration without moving any epoch.
    fn epoch(&self) -> u64 {
        0
    }
}

/// How layer verdicts combine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CombinationRule {
    /// Every present layer that does not abstain must grant, and at
    /// least one layer must grant (the paper's stacked semantics:
    /// mediation mechanisms that exist must all permit).
    #[default]
    AllPresentMustGrant,
    /// Every layer must explicitly grant; abstentions deny. Used when an
    /// environment requires full-stack mediation.
    Conjunctive,
    /// The first non-abstaining layer (highest level first) decides —
    /// e.g. trust management overrides middleware during migration.
    FirstOpinion,
}

/// The outcome of a stack evaluation, with the per-layer trace.
#[derive(Clone, Debug)]
pub struct StackDecision {
    /// Whether the request is permitted.
    pub permitted: bool,
    /// (layer name, verdict) in evaluation order (L3 down to L0).
    pub trace: Vec<(String, Verdict)>,
}

/// An authorisation stack: layers sorted top (L3) to bottom (L0).
pub struct AuthzStack {
    layers: Vec<Arc<dyn AuthzLayer>>,
    rule: CombinationRule,
}

impl AuthzStack {
    /// An empty stack with the default combination rule.
    pub fn new() -> Self {
        AuthzStack {
            layers: Vec::new(),
            rule: CombinationRule::default(),
        }
    }

    /// Sets the combination rule.
    pub fn with_rule(mut self, rule: CombinationRule) -> Self {
        self.rule = rule;
        self
    }

    /// Plugs a layer in (kept sorted top-down).
    pub fn push(&mut self, layer: Arc<dyn AuthzLayer>) {
        self.layers.push(layer);
        self.layers.sort_by_key(|l| std::cmp::Reverse(l.level()));
    }

    /// The installed levels, top-down.
    pub fn levels(&self) -> Vec<LayerLevel> {
        self.layers.iter().map(|l| l.level()).collect()
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when no layers are installed.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Evaluates the stack for one request: a batch of one through
    /// [`decide_batch`](Self::decide_batch).
    pub fn decide(&self, ctx: &AuthzContext) -> StackDecision {
        self.decide_batch(std::slice::from_ref(ctx))
            .pop()
            .expect("batch of one yields one decision")
    }

    /// Evaluates the stack for a burst of requests: every layer sees
    /// the requests still undecided as one [`AuthzLayer::decide_batch`]
    /// call. Results are positionally aligned with `ctxs` and identical
    /// to deciding each request on its own.
    pub fn decide_batch(&self, ctxs: &[AuthzContext]) -> Vec<StackDecision> {
        struct Acc {
            trace: Vec<(String, Verdict)>,
            grants: usize,
            denied: bool,
            first_opinion: Option<bool>,
        }
        let mut accs: Vec<Acc> = ctxs
            .iter()
            .map(|_| Acc {
                trace: Vec::with_capacity(self.layers.len()),
                grants: 0,
                denied: false,
                first_opinion: None,
            })
            .collect();
        // Requests a layer still needs to see. Under FirstOpinion the
        // decision is fixed by the highest non-abstaining layer, so a
        // decided request drops out of the burst handed to lower
        // layers; the other rules consult every layer for every
        // request.
        let mut live: Vec<usize> = (0..ctxs.len()).collect();
        for layer in &self.layers {
            if live.is_empty() {
                break;
            }
            let burst: Vec<&AuthzContext> = live.iter().map(|&i| &ctxs[i]).collect();
            let verdicts = layer.decide_batch(&burst);
            debug_assert_eq!(verdicts.len(), burst.len());
            let name = layer.name();
            for (&i, v) in live.iter().zip(verdicts) {
                let acc = &mut accs[i];
                match &v {
                    Verdict::Grant => {
                        acc.grants += 1;
                        acc.first_opinion.get_or_insert(true);
                    }
                    Verdict::Deny(_) => {
                        acc.denied = true;
                        acc.first_opinion.get_or_insert(false);
                    }
                    Verdict::Abstain => {}
                }
                acc.trace.push((name.clone(), v));
            }
            if self.rule == CombinationRule::FirstOpinion {
                live.retain(|&i| accs[i].first_opinion.is_none());
            }
        }
        accs.into_iter()
            .map(|acc| {
                let permitted = match self.rule {
                    CombinationRule::AllPresentMustGrant => !acc.denied && acc.grants > 0,
                    CombinationRule::Conjunctive => {
                        !acc.denied && acc.grants == self.layers.len() && !self.layers.is_empty()
                    }
                    CombinationRule::FirstOpinion => acc.first_opinion.unwrap_or(false),
                };
                StackDecision {
                    permitted,
                    trace: acc.trace,
                }
            })
            .collect()
    }
}

impl Default for AuthzStack {
    fn default() -> Self {
        Self::new()
    }
}

// ---- Concrete layers ----

/// L2: trust management via KeyNote.
pub struct TrustLayer {
    tm: Arc<TrustManager>,
}

impl TrustLayer {
    /// Wraps a trust manager.
    pub fn new(tm: Arc<TrustManager>) -> Self {
        TrustLayer { tm }
    }
}

impl AuthzLayer for TrustLayer {
    fn level(&self) -> LayerLevel {
        LayerLevel::L2TrustManagement
    }

    fn name(&self) -> String {
        "T(KN)".to_string()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        // Presented credentials are evaluated request-scoped: vetted
        // like stored ones (invalid ones are simply not taken into
        // account) but never added to the layer's store, so authority
        // presented with one request cannot leak into later requests.
        if self.tm.decide(
            &AuthzRequest::principal(&ctx.principal)
                .action(&ctx.action)
                .credentials(ctx.credentials()),
        ) {
            Verdict::Grant
        } else {
            Verdict::Deny(format!(
                "KeyNote: {} not authorised for {}",
                ctx.principal,
                ctx.action.component.identifier()
            ))
        }
    }

    fn decide_batch(&self, ctxs: &[&AuthzContext]) -> Vec<Verdict> {
        // Attribute sets are materialised once per request and lent to
        // the trust manager, which answers the whole burst under one
        // session lock / one cache pass.
        let attr_sets: Vec<ActionAttributes> =
            ctxs.iter().map(|c| c.action.attributes()).collect();
        let requests: Vec<AuthzRequest<'_>> = ctxs
            .iter()
            .zip(&attr_sets)
            .map(|(c, attrs)| {
                AuthzRequest::principal(&c.principal)
                    .attributes_ref(attrs)
                    .credentials(c.credentials())
            })
            .collect();
        self.tm
            .decide_batch(&requests)
            .into_iter()
            .zip(ctxs)
            .map(|(permitted, c)| {
                if permitted {
                    Verdict::Grant
                } else {
                    Verdict::Deny(format!(
                        "KeyNote: {} not authorised for {}",
                        c.principal,
                        c.action.component.identifier()
                    ))
                }
            })
            .collect()
    }

    fn epoch(&self) -> u64 {
        self.tm.epoch()
    }
}

/// L1: middleware security. Abstains for components hosted on a foreign
/// domain (another environment's middleware mediates those).
pub struct MiddlewareLayer {
    middleware: Arc<dyn MiddlewareSecurity>,
}

impl MiddlewareLayer {
    /// Wraps a middleware endpoint.
    pub fn new(middleware: Arc<dyn MiddlewareSecurity>) -> Self {
        MiddlewareLayer { middleware }
    }
}

impl AuthzLayer for MiddlewareLayer {
    fn level(&self) -> LayerLevel {
        LayerLevel::L1Middleware
    }

    fn name(&self) -> String {
        format!("M({})", self.middleware.kind())
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        if !self.middleware.owned_domains().contains(&ctx.action.domain) {
            return Verdict::Abstain;
        }
        let decision = self.middleware.check(
            &ctx.user,
            &ctx.action.domain,
            Some(&ctx.action.role),
            &ctx.action.component.object_type,
            &ctx.action.permission,
        );
        match decision {
            hetsec_middleware::security::Decision::Granted => Verdict::Grant,
            hetsec_middleware::security::Decision::Denied(r) => Verdict::Deny(r),
        }
    }
}

/// L0 on Windows: the object named by the component's `ObjectType` must
/// grant the user the mask implied by the permission. Abstains for
/// objects with no ACL registered.
pub struct WindowsOsLayer {
    os: Arc<WindowsSecurity>,
    /// Objects known to the OS layer (only these are mediated).
    mediated: BTreeSet<String>,
}

impl WindowsOsLayer {
    /// Wraps a Windows machine, mediating the listed objects.
    pub fn new(os: Arc<WindowsSecurity>, mediated: impl IntoIterator<Item = String>) -> Self {
        WindowsOsLayer {
            os,
            mediated: mediated.into_iter().collect(),
        }
    }

    /// The access mask a permission implies, or `None` for permissions
    /// the layer does not understand. Unknown permissions must *deny*,
    /// not silently degrade to EXECUTE — a mediation layer guessing at
    /// semantics it does not know is fail-open.
    fn mask_for(permission: &str) -> Option<AccessMask> {
        match permission {
            "read" => Some(AccessMask::READ),
            "write" => Some(AccessMask::WRITE),
            "Launch" | "Access" | "execute" | "invoke" => Some(AccessMask::EXECUTE),
            _ => None,
        }
    }
}

impl AuthzLayer for WindowsOsLayer {
    fn level(&self) -> LayerLevel {
        LayerLevel::L0Os
    }

    fn name(&self) -> String {
        "OS(W)".to_string()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        let object = ctx.action.component.object_type.as_str();
        if !self.mediated.contains(object) {
            return Verdict::Abstain;
        }
        let Some(mask) = Self::mask_for(ctx.action.permission.as_str()) else {
            return Verdict::Deny(format!(
                "Windows layer does not understand permission `{}` on {object}",
                ctx.action.permission.as_str()
            ));
        };
        if self.os.access_check(ctx.user.as_str(), object, mask) {
            Verdict::Grant
        } else {
            Verdict::Deny(format!("Windows ACL denies {} on {object}", ctx.user))
        }
    }
}

/// L0 on Unix: like [`WindowsOsLayer`] with rwx semantics.
pub struct UnixOsLayer {
    os: Arc<UnixSecurity>,
    mediated: BTreeSet<String>,
}

impl UnixOsLayer {
    /// Wraps a Unix machine, mediating the listed objects.
    pub fn new(os: Arc<UnixSecurity>, mediated: impl IntoIterator<Item = String>) -> Self {
        UnixOsLayer {
            os,
            mediated: mediated.into_iter().collect(),
        }
    }

    fn access_for(permission: &str) -> UnixAccess {
        match permission {
            "read" => UnixAccess::Read,
            "write" => UnixAccess::Write,
            _ => UnixAccess::Execute,
        }
    }
}

impl AuthzLayer for UnixOsLayer {
    fn level(&self) -> LayerLevel {
        LayerLevel::L0Os
    }

    fn name(&self) -> String {
        "OS(U)".to_string()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        let object = ctx.action.component.object_type.as_str();
        if !self.mediated.contains(object) {
            return Verdict::Abstain;
        }
        let access = Self::access_for(ctx.action.permission.as_str());
        if self.os.access_check(ctx.user.as_str(), object, access) {
            Verdict::Grant
        } else {
            Verdict::Deny(format!("Unix mode denies {} on {object}", ctx.user))
        }
    }
}

/// L3: application/workflow security — an allow/deny list over component
/// identifiers encoded alongside the condensed graph. The paper notes L3
/// is out of scope; this minimal layer exists so the full four-layer
/// stack is exercisable.
pub struct ApplicationLayer {
    denied_components: BTreeSet<String>,
}

impl ApplicationLayer {
    /// A layer denying the listed component identifiers.
    pub fn denying(components: impl IntoIterator<Item = String>) -> Self {
        ApplicationLayer {
            denied_components: components.into_iter().collect(),
        }
    }
}

impl AuthzLayer for ApplicationLayer {
    fn level(&self) -> LayerLevel {
        LayerLevel::L3Application
    }

    fn name(&self) -> String {
        "App(CG)".to_string()
    }

    fn decide(&self, ctx: &AuthzContext) -> Verdict {
        if self
            .denied_components
            .contains(&ctx.action.component.identifier())
        {
            Verdict::Deny("workflow policy denies component".to_string())
        } else {
            Verdict::Abstain
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_ejb::EjbMiddleware;
    use hetsec_middleware::component::ComponentRef;
    use hetsec_middleware::naming::{EjbDomain, MiddlewareKind};
    use hetsec_os::windows::{Ace, AceKind, Sid};
    use hetsec_rbac::{PermissionGrant, RoleAssignment};
    use hetsec_translate::{encode_policy, SymbolicDirectory};

    fn ejb_domain() -> EjbDomain {
        EjbDomain::new("h", "s", "j")
    }

    fn ctx(user: &str, principal: &str, perm: &str) -> AuthzContext {
        let component = ComponentRef::new(
            MiddlewareKind::Ejb,
            ejb_domain().to_string(),
            "SalariesBean",
            perm,
        );
        AuthzContext::new(
            user,
            principal,
            ScheduledAction::new(component, ejb_domain().to_string(), "Manager"),
        )
    }

    fn middleware_layer() -> Arc<MiddlewareLayer> {
        let m = EjbMiddleware::new(ejb_domain());
        let d = ejb_domain().to_string();
        m.grant(&PermissionGrant::new(d.as_str(), "Manager", "SalariesBean", "read"))
            .unwrap();
        m.assign(&RoleAssignment::new("bob", d.as_str(), "Manager"))
            .unwrap();
        Arc::new(MiddlewareLayer::new(Arc::new(m)))
    }

    fn trust_layer() -> Arc<TrustLayer> {
        let tm = Arc::new(TrustManager::permissive());
        // Policy granting Manager read on SalariesBean in the EJB domain.
        let mut p = hetsec_rbac::RbacPolicy::new();
        p.grant(PermissionGrant::new(
            ejb_domain().to_string().as_str(),
            "Manager",
            "SalariesBean",
            "read",
        ));
        p.assign(RoleAssignment::new(
            "Bob",
            ejb_domain().to_string().as_str(),
            "Manager",
        ));
        for a in encode_policy(&p, "KWebCom", &SymbolicDirectory::default()) {
            tm.add_policy_assertion(a).unwrap();
        }
        Arc::new(TrustLayer::new(tm))
    }

    #[test]
    fn two_layer_stack_grants_when_both_grant() {
        let mut stack = AuthzStack::new();
        stack.push(middleware_layer());
        stack.push(trust_layer());
        assert_eq!(stack.len(), 2);
        assert_eq!(
            stack.levels(),
            vec![LayerLevel::L2TrustManagement, LayerLevel::L1Middleware]
        );
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(d.permitted, "{:?}", d.trace);
        assert_eq!(d.trace.len(), 2);
    }

    #[test]
    fn any_deny_denies() {
        let mut stack = AuthzStack::new();
        stack.push(middleware_layer());
        stack.push(trust_layer());
        // Middleware knows bob, trust layer doesn't know Kmallory.
        let d = stack.decide(&ctx("bob", "Kmallory", "read"));
        assert!(!d.permitted);
        assert!(d
            .trace
            .iter()
            .any(|(_, v)| matches!(v, Verdict::Deny(_))));
    }

    #[test]
    fn empty_stack_denies() {
        let stack = AuthzStack::new();
        assert!(stack.is_empty());
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(!d.permitted);
    }

    #[test]
    fn abstaining_layers_are_neutral_by_default() {
        let mut stack = AuthzStack::new();
        stack.push(trust_layer());
        // An application layer with nothing denied always abstains.
        stack.push(Arc::new(ApplicationLayer::denying(Vec::new())));
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(d.permitted);
    }

    #[test]
    fn conjunctive_rule_rejects_abstentions() {
        let mut stack = AuthzStack::new().with_rule(CombinationRule::Conjunctive);
        stack.push(trust_layer());
        stack.push(Arc::new(ApplicationLayer::denying(Vec::new())));
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(!d.permitted); // the app layer abstained
    }

    #[test]
    fn first_opinion_rule_takes_highest_layer() {
        let mut stack = AuthzStack::new().with_rule(CombinationRule::FirstOpinion);
        stack.push(middleware_layer());
        stack.push(trust_layer());
        // Trust layer (L2) grants Kbob before middleware is consulted;
        // with an unknown middleware user the request still passes.
        let d = stack.decide(&ctx("stranger", "Kbob", "read"));
        assert!(d.permitted);
    }

    #[test]
    fn application_layer_vetoes_specific_components() {
        let component_id = ctx("bob", "Kbob", "read").action.component.identifier();
        let mut stack = AuthzStack::new();
        stack.push(trust_layer());
        stack.push(Arc::new(ApplicationLayer::denying([component_id])));
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(!d.permitted);
    }

    #[test]
    fn presented_credentials_are_request_scoped() {
        // Request A presents a delegation credential; it must authorise
        // request A only. Before the fix, TrustLayer persisted presented
        // credentials into the trust manager, so request B (without the
        // credential) kept the authority.
        let tm = Arc::new(TrustManager::permissive());
        tm.add_policy(
            "Authorizer: POLICY\nLicensees: \"Kboss\"\nConditions: app_domain==\"WebCom\";\n",
        )
        .unwrap();
        let layer = TrustLayer::new(Arc::clone(&tm));
        let delegation = hetsec_keynote::parser::parse_assertion(
            "Authorizer: \"Kboss\"\nLicensees: \"Ktemp\"\n",
        )
        .unwrap();

        let count_before = tm.credential_count();
        let mut request_a = ctx("temp", "Ktemp", "read");
        request_a.presented = vec![delegation].into();
        assert!(matches!(layer.decide(&request_a), Verdict::Grant));
        // Nothing leaked into the store...
        assert_eq!(tm.credential_count(), count_before);
        // ...so request B, without the credential, is denied.
        let request_b = ctx("temp", "Ktemp", "read");
        assert!(matches!(layer.decide(&request_b), Verdict::Deny(_)));
    }

    #[test]
    fn stack_decide_does_not_grow_credential_store() {
        let tm = Arc::new(TrustManager::permissive());
        tm.add_policy(
            "Authorizer: POLICY\nLicensees: \"Kboss\"\nConditions: app_domain==\"WebCom\";\n",
        )
        .unwrap();
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(TrustLayer::new(Arc::clone(&tm))));
        let delegation = hetsec_keynote::parser::parse_assertion(
            "Authorizer: \"Kboss\"\nLicensees: \"Ktemp\"\n",
        )
        .unwrap();
        let mut c = ctx("temp", "Ktemp", "read");
        c.presented = vec![delegation].into();
        let count_before = tm.credential_count();
        assert!(stack.decide(&c).permitted);
        assert_eq!(tm.credential_count(), count_before);
    }

    /// A probe layer recording how often it is consulted.
    struct ProbeLayer {
        level: LayerLevel,
        verdict: Verdict,
        calls: std::sync::atomic::AtomicUsize,
    }

    impl ProbeLayer {
        fn new(level: LayerLevel, verdict: Verdict) -> Self {
            ProbeLayer { level, verdict, calls: std::sync::atomic::AtomicUsize::new(0) }
        }

        fn calls(&self) -> usize {
            self.calls.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl AuthzLayer for ProbeLayer {
        fn level(&self) -> LayerLevel {
            self.level
        }

        fn name(&self) -> String {
            format!("probe@{}", self.level)
        }

        fn decide(&self, _ctx: &AuthzContext) -> Verdict {
            self.calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.verdict.clone()
        }
    }

    #[test]
    fn first_opinion_short_circuits_lower_layers() {
        let upper = Arc::new(ProbeLayer::new(LayerLevel::L2TrustManagement, Verdict::Grant));
        let lower = Arc::new(ProbeLayer::new(
            LayerLevel::L0Os,
            Verdict::Deny("should never run".to_string()),
        ));
        let mut stack = AuthzStack::new().with_rule(CombinationRule::FirstOpinion);
        stack.push(Arc::clone(&upper) as Arc<dyn AuthzLayer>);
        stack.push(Arc::clone(&lower) as Arc<dyn AuthzLayer>);
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(d.permitted);
        assert_eq!(upper.calls(), 1);
        assert_eq!(lower.calls(), 0, "lower layer consulted after decision was fixed");
        assert_eq!(d.trace.len(), 1);
        // Under the default rule every layer still runs.
        let mut full = AuthzStack::new();
        let probe = Arc::new(ProbeLayer::new(LayerLevel::L0Os, Verdict::Grant));
        full.push(Arc::new(ProbeLayer::new(LayerLevel::L2TrustManagement, Verdict::Grant)));
        full.push(Arc::clone(&probe) as Arc<dyn AuthzLayer>);
        assert!(full.decide(&ctx("bob", "Kbob", "read")).permitted);
        assert_eq!(probe.calls(), 1);
    }

    #[test]
    fn windows_os_layer_denies_unknown_permission() {
        // Unknown permissions used to degrade to an EXECUTE check —
        // fail-open whenever the trustee happened to hold EXECUTE.
        let os = Arc::new(WindowsSecurity::new("CORP"));
        os.with_domain(|d| {
            d.add_member("Payroll", "bob");
        });
        os.add_ace(
            "SalariesBean",
            Ace {
                kind: AceKind::Allow,
                trustee: Sid::of("CORP", "Payroll"),
                mask: AccessMask::EXECUTE,
            },
        );
        let layer = WindowsOsLayer::new(os, ["SalariesBean".to_string()]);
        // bob holds EXECUTE, so a real execute permission passes...
        assert!(matches!(layer.decide(&ctx("bob", "Kbob", "execute")), Verdict::Grant));
        // ...but a permission the layer does not understand is denied.
        match layer.decide(&ctx("bob", "Kbob", "transmogrify")) {
            Verdict::Deny(reason) => assert!(reason.contains("transmogrify")),
            v => panic!("expected deny for unknown permission, got {v:?}"),
        }
    }

    #[test]
    fn windows_os_layer_mediates_known_objects() {
        let os = Arc::new(WindowsSecurity::new("CORP"));
        os.with_domain(|d| {
            d.add_member("Payroll", "bob");
        });
        os.add_ace(
            "SalariesBean",
            Ace {
                kind: AceKind::Allow,
                trustee: Sid::of("CORP", "Payroll"),
                mask: AccessMask::READ,
            },
        );
        let layer = WindowsOsLayer::new(os, ["SalariesBean".to_string()]);
        assert!(matches!(layer.decide(&ctx("bob", "Kbob", "read")), Verdict::Grant));
        assert!(matches!(
            layer.decide(&ctx("bob", "Kbob", "write")),
            Verdict::Deny(_)
        ));
        assert!(matches!(
            layer.decide(&ctx("mallory", "Km", "read")),
            Verdict::Deny(_)
        ));
        let unmediated = WindowsOsLayer::new(Arc::new(WindowsSecurity::new("X")), []);
        assert!(matches!(
            unmediated.decide(&ctx("bob", "Kbob", "read")),
            Verdict::Abstain
        ));
    }

    #[test]
    fn unix_os_layer_mediates_known_objects() {
        use hetsec_os::unix::{Mode, UnixObject, UnixUser};
        let os = Arc::new(UnixSecurity::new());
        os.add_user("bob", UnixUser { uid: 1000, gid: 100, groups: vec![] });
        os.set_object(
            "SalariesBean",
            UnixObject { owner: 1000, group: 100, mode: Mode::from_octal(0o400) },
        );
        let layer = UnixOsLayer::new(os, ["SalariesBean".to_string()]);
        assert!(matches!(layer.decide(&ctx("bob", "Kbob", "read")), Verdict::Grant));
        assert!(matches!(
            layer.decide(&ctx("bob", "Kbob", "write")),
            Verdict::Deny(_)
        ));
    }

    #[test]
    fn middleware_layer_abstains_for_foreign_domain() {
        let layer = middleware_layer();
        let mut c = ctx("bob", "Kbob", "read");
        c.action.domain = "elsewhere".into();
        assert!(matches!(layer.decide(&c), Verdict::Abstain));
    }

    #[test]
    fn four_layer_stack_full_trace() {
        use hetsec_os::unix::{Mode, UnixObject, UnixUser};
        let os = Arc::new(UnixSecurity::new());
        os.add_user("bob", UnixUser { uid: 1, gid: 1, groups: vec![] });
        os.set_object(
            "SalariesBean",
            UnixObject { owner: 1, group: 1, mode: Mode::from_octal(0o700) },
        );
        let mut stack = AuthzStack::new();
        stack.push(Arc::new(UnixOsLayer::new(os, ["SalariesBean".to_string()])));
        stack.push(middleware_layer());
        stack.push(trust_layer());
        stack.push(Arc::new(ApplicationLayer::denying(Vec::new())));
        let d = stack.decide(&ctx("bob", "Kbob", "read"));
        assert!(d.permitted, "{:?}", d.trace);
        assert_eq!(d.trace.len(), 4);
        // Trace order is top-down.
        assert_eq!(d.trace[0].0, "App(CG)");
        assert_eq!(d.trace[3].0, "OS(U)");
    }
}

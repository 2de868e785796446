//! Escalation detection: diff the authority the credential store
//! actually conveys against the RBAC relations it is supposed to
//! encode.
//!
//! For every candidate principal and every (Domain, Role, ObjectType,
//! Permission) tuple in the combined universe, the pass runs the
//! compiled compliance fixpoint — the very checker the middleware
//! consults at request time — and compares the verdict with
//! `RbacPolicy::check_access_as`. A verdict the RBAC policy never
//! granted is an escalation (`HS004`); an RBAC grant the store does
//! not honour is decode drift (`HS014`). On a faithful
//! `encode_policy` round-trip both directions are empty, which is the
//! analyzer's own differential oracle.
//!
//! The pass is factored into `user_universe` / `tuple_universe` /
//! `probe_user` / `materialize` so the incremental engine can re-probe
//! only the users whose delegation neighbourhood changed while reusing
//! cached sweeps for everyone else, and still assemble findings that
//! are byte-identical to this cold path.

use crate::diag::{Finding, LintCode};
use hetsec_keynote::ast::{Assertion, Clause};
use hetsec_keynote::compiled::{CompiledStore, QueryView, ViewQuery};
use hetsec_keynote::eval::ActionAttributes;
use hetsec_keynote::values::ComplianceValues;
use hetsec_rbac::{Domain, ObjectType, Permission, RbacPolicy, Role, User};
use hetsec_translate::{decode_policy, PrincipalDirectory, APP_DOMAIN};
use std::collections::{BTreeMap, BTreeSet};

pub(crate) type Tuple = (String, String, String, String);

/// Harvests candidate (Domain, Role, ObjectType, Permission) tuples
/// from the equality conjuncts of the store's condition programs, so
/// drifted stores granting tuples the RBAC policy never listed are
/// still probed.
fn tuples_from_conditions(assertions: &[Assertion], out: &mut BTreeSet<Tuple>) {
    fn conjuncts(e: &hetsec_keynote::ast::Expr) -> Vec<BTreeMap<String, String>> {
        use hetsec_keynote::ast::{CmpOp, Expr, Term};
        match e {
            Expr::Or(a, b) => {
                let mut out = conjuncts(a);
                out.extend(conjuncts(b));
                out
            }
            Expr::And(a, b) => {
                let left = conjuncts(a);
                let right = conjuncts(b);
                let mut out = Vec::new();
                for l in &left {
                    for r in &right {
                        let mut c = l.clone();
                        c.extend(r.iter().map(|(k, v)| (k.clone(), v.clone())));
                        out.push(c);
                    }
                }
                out
            }
            Expr::Cmp {
                op: CmpOp::Eq,
                lhs: Term::Attr(name),
                rhs: Term::Str(value),
            } => vec![[(name.clone(), value.clone())].into_iter().collect()],
            _ => vec![BTreeMap::new()],
        }
    }
    for a in assertions {
        let Some(program) = &a.conditions else { continue };
        for clause in &program.clauses {
            let (Clause::Bare(test) | Clause::Arrow(test, _) | Clause::Nested(test, _)) = clause;
            for c in conjuncts(test) {
                if let (Some(d), Some(r), Some(t), Some(p)) = (
                    c.get("Domain"),
                    c.get("Role"),
                    c.get("ObjectType"),
                    c.get("Permission"),
                ) {
                    out.insert((d.clone(), r.clone(), t.clone(), p.clone()));
                }
            }
        }
    }
}

/// Candidate users: everyone the RBAC policy mentions, everyone a
/// decode of the store recovers, and every *live* store principal the
/// directory can resolve (catching credentials for users the RBAC side
/// has never heard of — the classic escalation). Live means the
/// principal is the authorizer or a licensee of some stored assertion:
/// after incremental removals the interner may still hold retired
/// names, and those must not widen the probe matrix beyond what a cold
/// compile of the same assertions would produce.
pub(crate) fn user_universe(
    assertions: &[Assertion],
    store: &CompiledStore,
    rbac: &RbacPolicy,
    webcom_key: &str,
    directory: &dyn PrincipalDirectory,
) -> BTreeSet<User> {
    let mut users: BTreeSet<User> = rbac.users();
    users.extend(decode_policy(assertions, webcom_key, directory).policy.users());
    let mut live: BTreeSet<u32> = BTreeSet::new();
    for (_, authorizer, licensees) in store.delegations() {
        live.insert(authorizer);
        live.extend(licensees.iter().copied());
    }
    for id in live {
        let Some(text) = store.principals().text(id) else {
            continue;
        };
        if text == webcom_key {
            continue;
        }
        if let Some(u) = directory.user_of(text) {
            users.insert(u);
        }
    }
    if let Some(admin) = directory.user_of(webcom_key) {
        users.remove(&admin);
    }
    users
}

/// Tuple universe: RBAC grants plus tuples harvested from the store.
pub(crate) fn tuple_universe(assertions: &[Assertion], rbac: &RbacPolicy) -> BTreeSet<Tuple> {
    let mut tuples: BTreeSet<Tuple> = rbac
        .grants()
        .map(|g| {
            (
                g.domain.as_str().to_string(),
                g.role.as_str().to_string(),
                g.object_type.as_str().to_string(),
                g.permission.as_str().to_string(),
            )
        })
        .collect();
    tuples_from_conditions(assertions, &mut tuples);
    tuples
}

/// Sweeps one user across the whole tuple universe through a single
/// `query_batch` call (paying for worklist scratch once per user) and
/// returns the escalated and missing probe points, each formatted as
/// `"{d}/{r}: {p} on {t}"` in tuple order.
pub(crate) fn probe_user(
    store: &CompiledStore,
    rbac: &RbacPolicy,
    directory: &dyn PrincipalDirectory,
    revoked: &BTreeSet<String>,
    values: &ComplianceValues,
    tuples: &BTreeSet<Tuple>,
    user: &User,
) -> (Vec<String>, Vec<String>) {
    let key = directory.key_of(user);
    let authorizers = [key.as_str()];
    let attr_sets: Vec<ActionAttributes> = tuples
        .iter()
        .map(|(d, r, t, p)| {
            [
                ("app_domain", APP_DOMAIN),
                ("Domain", d.as_str()),
                ("Role", r.as_str()),
                ("ObjectType", t.as_str()),
                ("Permission", p.as_str()),
            ]
            .into_iter()
            .collect()
        })
        .collect();
    let probes: Vec<ViewQuery<'_>> = attr_sets
        .iter()
        .map(|attrs| ViewQuery {
            authorizers: &authorizers,
            attributes: attrs,
            extra: &[],
        })
        .collect();
    let mut view = QueryView::new(store, values, revoked);
    let results = view.query_batch(&probes);
    let mut esc = Vec::new();
    let mut miss = Vec::new();
    for ((d, r, t, p), result) in tuples.iter().zip(results) {
        let keynote = result.is_authorized();
        let rbac_ok = rbac.check_access_as(
            user,
            &Domain::new(d.as_str()),
            &Role::new(r.as_str()),
            &ObjectType::new(t.as_str()),
            &Permission::new(p.as_str()),
        );
        let point = format!("{d}/{r}: {p} on {t}");
        if keynote && !rbac_ok {
            esc.push(point);
        } else if !keynote && rbac_ok {
            miss.push(point);
        }
    }
    (esc, miss)
}

/// Expands per-user probe results into findings, in user order.
pub(crate) fn materialize(
    escalations: &BTreeMap<User, Vec<String>>,
    missing: &BTreeMap<User, Vec<String>>,
    directory: &dyn PrincipalDirectory,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (user, points) in escalations {
        let key = directory.key_of(user);
        findings.push(Finding {
            code: LintCode::Escalation,
            assertion: None,
            line_start: None,
            line_end: None,
            message: format!(
                "principal {key:?} (user {user}) can reach verdicts the RBAC policy \
                 never granted: {}",
                points.join("; ")
            ),
            hint: "revoke or narrow the credential chain, or add the matching RBAC rows"
                .to_string(),
        });
    }
    for (user, points) in missing {
        let key = directory.key_of(user);
        findings.push(Finding {
            code: LintCode::MissingGrant,
            assertion: None,
            line_start: None,
            line_end: None,
            message: format!(
                "RBAC grants for user {user} (key {key:?}) that the credential store \
                 does not honour: {}",
                points.join("; ")
            ),
            hint: "re-encode the policy or issue the missing membership credential".to_string(),
        });
    }
    findings
}

/// Runs the escalation diff cold. `revoked` keys are honoured exactly
/// as at request time.
pub fn analyze_escalation(
    assertions: &[Assertion],
    store: &CompiledStore,
    rbac: &RbacPolicy,
    webcom_key: &str,
    directory: &dyn PrincipalDirectory,
    revoked: &BTreeSet<String>,
) -> Vec<Finding> {
    let users = user_universe(assertions, store, rbac, webcom_key, directory);
    let tuples = tuple_universe(assertions, rbac);

    // Probe the user × tuple matrix one user at a time. Per-user
    // results come back in `users` (BTreeSet) order, so findings are
    // deterministic.
    let values = ComplianceValues::binary();
    let users_list: Vec<&User> = users.iter().collect();
    let per_user: Vec<(Vec<String>, Vec<String>)> = users_list
        .iter()
        .map(|user| probe_user(store, rbac, directory, revoked, &values, &tuples, user))
        .collect();

    let mut escalations: BTreeMap<User, Vec<String>> = BTreeMap::new();
    let mut missing: BTreeMap<User, Vec<String>> = BTreeMap::new();
    for (user, (esc, miss)) in users_list.iter().zip(per_user) {
        if !esc.is_empty() {
            escalations.insert((*user).clone(), esc);
        }
        if !miss.is_empty() {
            missing.insert((*user).clone(), miss);
        }
    }
    materialize(&escalations, &missing, directory)
}

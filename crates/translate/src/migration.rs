//! Policy Migration (paper §4.3): moving a security policy from one
//! middleware system to another.
//!
//! Migration is comprehension followed by configuration with
//! *interpretation* in between: domains must be remapped onto the target
//! instance's domains, permission vocabularies differ (COM+'s coarse
//! `Launch`/`Access`/`RunAs` vs method-level EJB/CORBA permissions), and
//! role names may have drifted — resolved with similarity metrics \[13\].

use crate::similarity::best_match;
use hetsec_middleware::security::{ImportReport, MiddlewareSecurity};
use hetsec_middleware::MiddlewareKind;
use hetsec_rbac::{Domain, PermissionGrant, RbacPolicy, RoleAssignment};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Declarative migration rules.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MigrationSpec {
    /// Source domain -> target domain. Unmapped domains pass through
    /// unchanged (and will be skipped by the target if foreign).
    pub domain_map: BTreeMap<String, String>,
    /// Source permission -> target permission, applied before the
    /// kind-level defaults.
    pub permission_map: BTreeMap<String, String>,
    /// Source object type -> target object type.
    pub object_map: BTreeMap<String, String>,
    /// When set, source role names are fuzzily matched against this
    /// vocabulary of target role names; matches at or above
    /// `role_threshold` are renamed.
    pub target_roles: Vec<String>,
    /// Similarity threshold for role matching (default 0.85).
    pub role_threshold: f64,
}

impl MigrationSpec {
    /// A spec that maps one source domain onto one target domain.
    pub fn domain(src: impl Into<String>, dst: impl Into<String>) -> Self {
        let mut m = MigrationSpec {
            role_threshold: 0.85,
            ..Self::default()
        };
        m.domain_map.insert(src.into(), dst.into());
        m
    }

    /// Adds a permission mapping.
    pub fn map_permission(mut self, src: impl Into<String>, dst: impl Into<String>) -> Self {
        self.permission_map.insert(src.into(), dst.into());
        self
    }

    /// Adds an object-type mapping.
    pub fn map_object(mut self, src: impl Into<String>, dst: impl Into<String>) -> Self {
        self.object_map.insert(src.into(), dst.into());
        self
    }

    /// Enables fuzzy role matching against the given target vocabulary.
    pub fn with_target_roles(mut self, roles: impl IntoIterator<Item = String>) -> Self {
        self.target_roles = roles.into_iter().collect();
        if self.role_threshold == 0.0 {
            self.role_threshold = 0.85;
        }
        self
    }
}

/// The default permission interpretation between middleware families:
/// method-level `read`/`write`-style permissions all require COM+
/// `Access`; COM+ `Access` maps to method-level `invoke`. Everything
/// else passes through.
pub fn default_permission_interpretation(
    from: MiddlewareKind,
    to: MiddlewareKind,
    permission: &str,
) -> String {
    match (from, to) {
        (MiddlewareKind::ComPlus, MiddlewareKind::Ejb | MiddlewareKind::Corba) => {
            match permission {
                "Access" => "invoke".to_string(),
                // Launch/RunAs have no method-level analogue; kept
                // verbatim so the report shows them skipped or the
                // target models them explicitly.
                other => other.to_string(),
            }
        }
        (MiddlewareKind::Ejb | MiddlewareKind::Corba, MiddlewareKind::ComPlus) => {
            // Any method-level permission needs COM+ Access.
            match permission {
                "Launch" | "Access" | "RunAs" => permission.to_string(),
                _ => "Access".to_string(),
            }
        }
        _ => permission.to_string(),
    }
}

/// What a migration did.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct MigrationReport {
    /// The policy as transformed (before target-side skipping).
    pub transformed: RbacPolicy,
    /// Renames performed by similarity matching: (from, to, score).
    pub role_renames: Vec<(String, String, f64)>,
    /// The target's import report.
    pub import: ImportReport,
}

/// Transforms a source-shaped policy according to `spec` and the default
/// kind-level permission interpretation.
pub fn transform_policy(
    policy: &RbacPolicy,
    from: MiddlewareKind,
    to: MiddlewareKind,
    spec: &MigrationSpec,
) -> (RbacPolicy, Vec<(String, String, f64)>) {
    let mut renames: BTreeMap<String, (String, f64)> = BTreeMap::new();
    let mut map_role = |role: &str| -> String {
        if spec.target_roles.is_empty() {
            return role.to_string();
        }
        if let Some((to_name, score)) = renames.get(role) {
            let _ = score;
            return to_name.clone();
        }
        match best_match(
            role,
            spec.target_roles.iter().map(String::as_str),
            spec.role_threshold,
        ) {
            Some((m, score)) => {
                renames.insert(role.to_string(), (m.to_string(), score));
                m.to_string()
            }
            None => role.to_string(),
        }
    };
    let map_domain = |d: &Domain| -> String {
        spec.domain_map
            .get(d.as_str())
            .cloned()
            .unwrap_or_else(|| d.as_str().to_string())
    };
    let mut out = RbacPolicy::new();
    for g in policy.grants() {
        let permission = spec
            .permission_map
            .get(g.permission.as_str())
            .cloned()
            .unwrap_or_else(|| {
                default_permission_interpretation(from, to, g.permission.as_str())
            });
        let object = spec
            .object_map
            .get(g.object_type.as_str())
            .cloned()
            .unwrap_or_else(|| g.object_type.as_str().to_string());
        out.grant(PermissionGrant::new(
            map_domain(&g.domain),
            map_role(g.role.as_str()),
            object,
            permission,
        ));
    }
    for a in policy.assignments() {
        out.assign(RoleAssignment::new(
            a.user.as_str(),
            map_domain(&a.domain),
            map_role(a.role.as_str()),
        ));
    }
    let renames = renames
        .into_iter()
        .filter(|(from_name, (to_name, _))| from_name != to_name)
        .map(|(f, (t, s))| (f, t, s))
        .collect();
    (out, renames)
}

/// Full migration: export from `source`, transform, import into
/// `target` (the Figure 9 legacy-COM → EJB path).
pub fn migrate(
    source: &dyn MiddlewareSecurity,
    target: &dyn MiddlewareSecurity,
    spec: &MigrationSpec,
) -> MigrationReport {
    let exported = source.export_policy();
    let (transformed, role_renames) =
        transform_policy(&exported, source.kind(), target.kind(), spec);
    let import = target.import_policy(&transformed);
    MigrationReport {
        transformed,
        role_renames,
        import,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetsec_com::ComMiddleware;
    use hetsec_corba::CorbaMiddleware;
    use hetsec_ejb::EjbMiddleware;
    use hetsec_middleware::naming::{CorbaDomain, EjbDomain};
    use hetsec_middleware::security::MiddlewareSecurityExt;

    fn com_fixture() -> ComMiddleware {
        let m = ComMiddleware::new("CORP");
        m.grant(&PermissionGrant::new("CORP", "Manager", "SalariesDB", "Access"))
            .unwrap();
        m.grant(&PermissionGrant::new("CORP", "Manager", "SalariesDB", "Launch"))
            .unwrap();
        m.assign(&RoleAssignment::new("bob", "CORP", "Manager")).unwrap();
        m
    }

    #[test]
    fn com_to_ejb_migration() {
        let com = com_fixture();
        let ejb_domain = EjbDomain::new("host1", "ejbsrv", "Salaries");
        let ejb = EjbMiddleware::new(ejb_domain.clone());
        let spec = MigrationSpec::domain("CORP", ejb_domain.to_string());
        let report = migrate(&com, &ejb, &spec);
        // Access -> invoke applied; Launch passes through verbatim.
        assert!(ejb.allows(
            &"bob".into(),
            &ejb_domain.to_string().as_str().into(),
            &"SalariesDB".into(),
            &"invoke".into()
        ));
        assert!(report.transformed.grants().any(|g| g.permission.as_str() == "Launch"));
        assert!(report.import.applied >= 2);
    }

    #[test]
    fn ejb_to_com_permission_interpretation() {
        let d = EjbDomain::new("h", "s", "j");
        let ejb = EjbMiddleware::new(d.clone());
        ejb.grant(&PermissionGrant::new(
            d.to_string().as_str(),
            "Clerk",
            "SalariesBean",
            "write",
        ))
        .unwrap();
        ejb.assign(&RoleAssignment::new("alice", d.to_string().as_str(), "Clerk"))
            .unwrap();
        let com = ComMiddleware::new("CORP");
        let spec = MigrationSpec::domain(d.to_string(), "CORP");
        let report = migrate(&ejb, &com, &spec);
        assert!(report.import.skipped.is_empty(), "{:?}", report.import.skipped);
        assert!(com.allows(
            &"alice".into(),
            &"CORP".into(),
            &"SalariesBean".into(),
            &"Access".into()
        ));
    }

    #[test]
    fn similarity_renames_drifted_roles() {
        let d = CorbaDomain::new("zeus", "orb");
        let corba = CorbaMiddleware::new(d.clone());
        corba
            .grant(&PermissionGrant::new(
                d.to_string().as_str(),
                "Managers", // drifted name
                "Salaries",
                "read",
            ))
            .unwrap();
        corba
            .assign(&RoleAssignment::new("claire", d.to_string().as_str(), "Managers"))
            .unwrap();
        let target_d = EjbDomain::new("h", "s", "j");
        let ejb = EjbMiddleware::new(target_d.clone());
        let spec = MigrationSpec::domain(d.to_string(), target_d.to_string())
            .with_target_roles(vec!["Manager".to_string(), "Clerk".to_string()]);
        let report = migrate(&corba, &ejb, &spec);
        assert_eq!(report.role_renames.len(), 1);
        assert_eq!(report.role_renames[0].0, "Managers");
        assert_eq!(report.role_renames[0].1, "Manager");
        assert!(ejb.allows(
            &"claire".into(),
            &target_d.to_string().as_str().into(),
            &"Salaries".into(),
            &"read".into()
        ));
    }

    #[test]
    fn unmapped_domains_pass_through_and_get_skipped() {
        let com = com_fixture();
        let ejb = EjbMiddleware::new(EjbDomain::new("h", "s", "j"));
        let report = migrate(&com, &ejb, &MigrationSpec::default());
        // Nothing imported: the CORP domain is foreign to the EJB server.
        assert_eq!(report.import.applied, 0);
        assert!(!report.import.skipped.is_empty());
    }

    #[test]
    fn explicit_maps_override_defaults() {
        let com = com_fixture();
        let d = EjbDomain::new("h", "s", "j");
        let ejb = EjbMiddleware::new(d.clone());
        let spec = MigrationSpec::domain("CORP", d.to_string())
            .map_permission("Access", "getSalary")
            .map_object("SalariesDB", "SalariesBean");
        let report = migrate(&com, &ejb, &spec);
        assert!(report
            .transformed
            .grants()
            .any(|g| g.permission.as_str() == "getSalary"
                && g.object_type.as_str() == "SalariesBean"));
        assert!(ejb.allows(
            &"bob".into(),
            &d.to_string().as_str().into(),
            &"SalariesBean".into(),
            &"getSalary".into()
        ));
    }

    #[test]
    fn default_interpretation_table() {
        use MiddlewareKind::*;
        assert_eq!(default_permission_interpretation(ComPlus, Ejb, "Access"), "invoke");
        assert_eq!(default_permission_interpretation(ComPlus, Corba, "Launch"), "Launch");
        assert_eq!(default_permission_interpretation(Ejb, ComPlus, "write"), "Access");
        assert_eq!(default_permission_interpretation(Ejb, ComPlus, "RunAs"), "RunAs");
        assert_eq!(default_permission_interpretation(Ejb, Corba, "write"), "write");
        assert_eq!(default_permission_interpretation(Corba, Corba, "op"), "op");
    }

    #[test]
    fn roundtrip_com_ejb_com_preserves_access_rows() {
        let com = com_fixture();
        let d = EjbDomain::new("h", "s", "j");
        let ejb = EjbMiddleware::new(d.clone());
        migrate(&com, &ejb, &MigrationSpec::domain("CORP", d.to_string()));
        let com2 = ComMiddleware::new("CORP");
        migrate(&ejb, &com2, &MigrationSpec::domain(d.to_string(), "CORP"));
        // bob's Access right survives the round trip.
        assert!(com2.allows(
            &"bob".into(),
            &"CORP".into(),
            &"SalariesDB".into(),
            &"Access".into()
        ));
    }
}

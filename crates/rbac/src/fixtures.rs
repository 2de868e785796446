//! Shared policy fixtures, most importantly the paper's Figure 1.

use crate::policy::{PermissionGrant, RbacPolicy, RoleAssignment};

/// The paper's Figure 1: the RBAC relations for a salaries database.
///
/// ```text
/// HasPermission:                      UserRole:
///   Finance Clerk    write              Finance Clerk    Alice
///   Finance Manager  read/write         Finance Manager  Bob
///   Sales   Manager  read               Sales   Manager  Claire
///   Sales   Assistant no access         Sales   Assistant Dave
///                                       Sales   Manager  Elaine
/// ```
pub fn salaries_policy() -> RbacPolicy {
    let mut p = RbacPolicy::new();
    let db = "SalariesDB";
    p.grant(PermissionGrant::new("Finance", "Clerk", db, "write"));
    p.grant(PermissionGrant::new("Finance", "Manager", db, "read"));
    p.grant(PermissionGrant::new("Finance", "Manager", db, "write"));
    p.grant(PermissionGrant::new("Sales", "Manager", db, "read"));
    // Sales/Assistant has "no access": no HasPermission rows.
    p.assign(RoleAssignment::new("Alice", "Finance", "Clerk"));
    p.assign(RoleAssignment::new("Bob", "Finance", "Manager"));
    p.assign(RoleAssignment::new("Claire", "Sales", "Manager"));
    p.assign(RoleAssignment::new("Dave", "Sales", "Assistant"));
    p.assign(RoleAssignment::new("Elaine", "Sales", "Manager"));
    p
}

/// A synthetic policy generator for tests and benches: `domains` domains
/// x `roles` roles x `perms` permissions on one object type per domain,
/// plus `users_per_role` users in every role. Deterministic.
pub fn synthetic_policy(
    domains: usize,
    roles: usize,
    perms: usize,
    users_per_role: usize,
) -> RbacPolicy {
    let mut p = RbacPolicy::new();
    for d in 0..domains {
        let domain = format!("Dom{d}");
        let object = format!("Obj{d}");
        for r in 0..roles {
            let role = format!("Role{r}");
            for q in 0..perms {
                p.grant(PermissionGrant::new(
                    domain.as_str(),
                    role.as_str(),
                    object.as_str(),
                    format!("perm{q}"),
                ));
            }
            for u in 0..users_per_role {
                p.assign(RoleAssignment::new(
                    format!("user-{d}-{r}-{u}"),
                    domain.as_str(),
                    role.as_str(),
                ));
            }
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salaries_policy_matches_figure_1_sizes() {
        let p = salaries_policy();
        assert_eq!(p.grant_count(), 4);
        assert_eq!(p.assignment_count(), 5);
        assert_eq!(p.domains().len(), 2);
    }

    #[test]
    fn synthetic_policy_sizes() {
        let p = synthetic_policy(3, 4, 2, 5);
        assert_eq!(p.grant_count(), 3 * 4 * 2);
        assert_eq!(p.assignment_count(), 3 * 4 * 5);
        assert_eq!(p.domains().len(), 3);
        assert_eq!(p.object_types().len(), 3);
    }

    #[test]
    fn synthetic_policy_is_deterministic() {
        assert_eq!(synthetic_policy(2, 2, 2, 2), synthetic_policy(2, 2, 2, 2));
    }
}

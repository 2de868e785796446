//! The extended RBAC policy: the paper's `HasPermission` and `UserRole`
//! relations (§2).
//!
//! ```text
//! HasPermission ⊆ Domain × Role × ObjectType × Permission
//! UserRole      ⊆ User × Domain × Role
//! ```
//!
//! `HasPermission(d, r, t, p)` means the role `r` in domain `d` holds
//! permission `p` on objects of type `t`; `UserRole(u, d, r)` assigns
//! user `u` to the domain-role pair `(d, r)`.

use crate::ids::{Domain, DomainRole, ObjectType, Permission, Role, User};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One row of the `HasPermission` relation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PermissionGrant {
    /// Domain of the role.
    pub domain: Domain,
    /// The role.
    pub role: Role,
    /// Object type the permission ranges over.
    pub object_type: ObjectType,
    /// The permission.
    pub permission: Permission,
}

impl PermissionGrant {
    /// Builds a row.
    pub fn new(
        domain: impl Into<Domain>,
        role: impl Into<Role>,
        object_type: impl Into<ObjectType>,
        permission: impl Into<Permission>,
    ) -> Self {
        PermissionGrant {
            domain: domain.into(),
            role: role.into(),
            object_type: object_type.into(),
            permission: permission.into(),
        }
    }

    /// The (domain, role) pair of the row.
    pub fn domain_role(&self) -> DomainRole {
        DomainRole {
            domain: self.domain.clone(),
            role: self.role.clone(),
        }
    }
}

impl fmt::Display for PermissionGrant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}/{} may {} on {}",
            self.domain, self.role, self.permission, self.object_type
        )
    }
}

/// One row of the `UserRole` relation.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RoleAssignment {
    /// The user.
    pub user: User,
    /// Domain of the role.
    pub domain: Domain,
    /// The role.
    pub role: Role,
}

impl RoleAssignment {
    /// Builds a row.
    pub fn new(user: impl Into<User>, domain: impl Into<Domain>, role: impl Into<Role>) -> Self {
        RoleAssignment {
            user: user.into(),
            domain: domain.into(),
            role: role.into(),
        }
    }

    /// The (domain, role) pair of the row.
    pub fn domain_role(&self) -> DomainRole {
        DomainRole {
            domain: self.domain.clone(),
            role: self.role.clone(),
        }
    }
}

impl fmt::Display for RoleAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} is {}/{}", self.user, self.domain, self.role)
    }
}

/// An extended RBAC policy: the two relations plus convenience queries.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RbacPolicy {
    has_permission: BTreeSet<PermissionGrant>,
    user_role: BTreeSet<RoleAssignment>,
}

impl RbacPolicy {
    /// An empty policy.
    pub fn new() -> Self {
        Self::default()
    }

    // ---- mutation ----

    /// Adds a `HasPermission` row; returns false if it already existed.
    pub fn grant(&mut self, grant: PermissionGrant) -> bool {
        self.has_permission.insert(grant)
    }

    /// Removes a `HasPermission` row; returns false if absent.
    pub fn revoke(&mut self, grant: &PermissionGrant) -> bool {
        self.has_permission.remove(grant)
    }

    /// Adds a `UserRole` row; returns false if it already existed.
    pub fn assign(&mut self, assignment: RoleAssignment) -> bool {
        self.user_role.insert(assignment)
    }

    /// Removes a `UserRole` row; returns false if absent.
    pub fn unassign(&mut self, assignment: &RoleAssignment) -> bool {
        self.user_role.remove(assignment)
    }

    /// Removes a user from every role (the RBAC "revoke individual
    /// user's rights without touching objects" operation).
    pub fn remove_user(&mut self, user: &User) -> usize {
        let before = self.user_role.len();
        self.user_role.retain(|a| &a.user != user);
        before - self.user_role.len()
    }

    // ---- raw access ----

    /// The `HasPermission` relation.
    pub fn grants(&self) -> impl Iterator<Item = &PermissionGrant> {
        self.has_permission.iter()
    }

    /// The `UserRole` relation.
    pub fn assignments(&self) -> impl Iterator<Item = &RoleAssignment> {
        self.user_role.iter()
    }

    /// Number of `HasPermission` rows.
    pub fn grant_count(&self) -> usize {
        self.has_permission.len()
    }

    /// Number of `UserRole` rows.
    pub fn assignment_count(&self) -> usize {
        self.user_role.len()
    }

    /// True when both relations are empty.
    pub fn is_empty(&self) -> bool {
        self.has_permission.is_empty() && self.user_role.is_empty()
    }

    // ---- queries ----

    /// True when `HasPermission(d, r, t, p)` holds.
    pub fn role_has_permission(
        &self,
        domain: &Domain,
        role: &Role,
        object_type: &ObjectType,
        permission: &Permission,
    ) -> bool {
        self.has_permission.contains(&PermissionGrant {
            domain: domain.clone(),
            role: role.clone(),
            object_type: object_type.clone(),
            permission: permission.clone(),
        })
    }

    /// True when `UserRole(u, d, r)` holds.
    pub fn user_in_role(&self, user: &User, domain: &Domain, role: &Role) -> bool {
        self.user_role.contains(&RoleAssignment {
            user: user.clone(),
            domain: domain.clone(),
            role: role.clone(),
        })
    }

    /// The core access-check: does `user` hold `permission` on
    /// `object_type` via any of their roles?
    pub fn check_access(
        &self,
        user: &User,
        object_type: &ObjectType,
        permission: &Permission,
    ) -> bool {
        self.user_role.iter().any(|a| {
            &a.user == user
                && self.role_has_permission(&a.domain, &a.role, object_type, permission)
        })
    }

    /// Like [`Self::check_access`] but restricted to one (domain, role)
    /// the user must be acting in — the WebCom scheduler's question.
    pub fn check_access_as(
        &self,
        user: &User,
        domain: &Domain,
        role: &Role,
        object_type: &ObjectType,
        permission: &Permission,
    ) -> bool {
        self.user_in_role(user, domain, role)
            && self.role_has_permission(domain, role, object_type, permission)
    }

    /// All (domain, role) memberships of a user.
    pub fn roles_of(&self, user: &User) -> Vec<DomainRole> {
        self.user_role
            .iter()
            .filter(|a| &a.user == user)
            .map(RoleAssignment::domain_role)
            .collect()
    }

    /// All users assigned to a (domain, role).
    pub fn members_of(&self, domain: &Domain, role: &Role) -> Vec<User> {
        self.user_role
            .iter()
            .filter(|a| &a.domain == domain && &a.role == role)
            .map(|a| a.user.clone())
            .collect()
    }

    /// All domains mentioned by either relation.
    pub fn domains(&self) -> BTreeSet<Domain> {
        let mut out: BTreeSet<Domain> = self
            .has_permission
            .iter()
            .map(|g| g.domain.clone())
            .collect();
        out.extend(self.user_role.iter().map(|a| a.domain.clone()));
        out
    }

    /// All (domain, role) pairs mentioned by either relation.
    pub fn domain_roles(&self) -> BTreeSet<DomainRole> {
        let mut out: BTreeSet<DomainRole> = self
            .has_permission
            .iter()
            .map(PermissionGrant::domain_role)
            .collect();
        out.extend(self.user_role.iter().map(RoleAssignment::domain_role));
        out
    }

    /// All users.
    pub fn users(&self) -> BTreeSet<User> {
        self.user_role.iter().map(|a| a.user.clone()).collect()
    }

    /// All object types mentioned by `HasPermission`.
    pub fn object_types(&self) -> BTreeSet<ObjectType> {
        self.has_permission
            .iter()
            .map(|g| g.object_type.clone())
            .collect()
    }

    /// Merges another policy into this one (set union); returns the
    /// number of new rows.
    pub fn merge(&mut self, other: &RbacPolicy) -> usize {
        let before = self.has_permission.len() + self.user_role.len();
        self.has_permission
            .extend(other.has_permission.iter().cloned());
        self.user_role.extend(other.user_role.iter().cloned());
        self.has_permission.len() + self.user_role.len() - before
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::salaries_policy;

    #[test]
    fn figure_1_relations() {
        // The paper's Figure 1 tables, row by row.
        let p = salaries_policy();
        assert_eq!(p.grant_count(), 4);
        assert_eq!(p.assignment_count(), 5);
        let t = ObjectType::new("SalariesDB");
        assert!(p.role_has_permission(
            &"Finance".into(),
            &"Clerk".into(),
            &t,
            &"write".into()
        ));
        assert!(p.role_has_permission(
            &"Finance".into(),
            &"Manager".into(),
            &t,
            &"read".into()
        ));
        assert!(p.role_has_permission(
            &"Finance".into(),
            &"Manager".into(),
            &t,
            &"write".into()
        ));
        assert!(p.role_has_permission(&"Sales".into(), &"Manager".into(), &t, &"read".into()));
        // Sales/Assistant: "no access".
        assert!(!p.role_has_permission(&"Sales".into(), &"Assistant".into(), &t, &"read".into()));
        assert!(p.user_in_role(&"Alice".into(), &"Finance".into(), &"Clerk".into()));
        assert!(p.user_in_role(&"Elaine".into(), &"Sales".into(), &"Manager".into()));
    }

    #[test]
    fn access_checks_follow_roles() {
        let p = salaries_policy();
        let t = ObjectType::new("SalariesDB");
        // Alice is Finance/Clerk: write yes, read no.
        assert!(p.check_access(&"Alice".into(), &t, &"write".into()));
        assert!(!p.check_access(&"Alice".into(), &t, &"read".into()));
        // Bob is Finance/Manager: both.
        assert!(p.check_access(&"Bob".into(), &t, &"read".into()));
        assert!(p.check_access(&"Bob".into(), &t, &"write".into()));
        // Claire is Sales/Manager: read only.
        assert!(p.check_access(&"Claire".into(), &t, &"read".into()));
        assert!(!p.check_access(&"Claire".into(), &t, &"write".into()));
        // Dave is Sales/Assistant: nothing.
        assert!(!p.check_access(&"Dave".into(), &t, &"read".into()));
        // Unknown user: nothing.
        assert!(!p.check_access(&"Mallory".into(), &t, &"read".into()));
    }

    #[test]
    fn check_access_as_requires_both_relations() {
        let p = salaries_policy();
        let t = ObjectType::new("SalariesDB");
        assert!(p.check_access_as(
            &"Bob".into(),
            &"Finance".into(),
            &"Manager".into(),
            &t,
            &"read".into()
        ));
        // Bob is not a Sales manager, even though the role has read.
        assert!(!p.check_access_as(
            &"Bob".into(),
            &"Sales".into(),
            &"Manager".into(),
            &t,
            &"read".into()
        ));
    }

    #[test]
    fn grant_revoke_assign_unassign() {
        let mut p = RbacPolicy::new();
        let g = PermissionGrant::new("D", "R", "T", "read");
        assert!(p.grant(g.clone()));
        assert!(!p.grant(g.clone())); // duplicate
        assert!(p.revoke(&g));
        assert!(!p.revoke(&g));
        let a = RoleAssignment::new("U", "D", "R");
        assert!(p.assign(a.clone()));
        assert!(!p.assign(a.clone()));
        assert!(p.unassign(&a));
        assert!(p.is_empty());
    }

    #[test]
    fn remove_user_drops_their_memberships() {
        let mut p = salaries_policy();
        assert_eq!(p.remove_user(&"Elaine".into()), 1);
        assert!(!p.user_in_role(&"Elaine".into(), &"Sales".into(), &"Manager".into()));
    }

    #[test]
    fn enumeration_queries() {
        let p = salaries_policy();
        assert_eq!(
            p.domains(),
            ["Finance", "Sales"].iter().map(|s| Domain::new(*s)).collect()
        );
        assert_eq!(p.users().len(), 5);
        assert_eq!(p.object_types().len(), 1);
        let members = p.members_of(&"Sales".into(), &"Manager".into());
        assert_eq!(members, vec![User::new("Claire"), User::new("Elaine")]);
        let roles = p.roles_of(&"Bob".into());
        assert_eq!(roles, vec![DomainRole::new("Finance", "Manager")]);
    }

    #[test]
    fn merge_unions() {
        let mut a = salaries_policy();
        let mut b = RbacPolicy::new();
        b.grant(PermissionGrant::new("HR", "Officer", "PersonnelDB", "read"));
        b.assign(RoleAssignment::new("Fred", "HR", "Officer"));
        // Overlapping row contributes nothing.
        b.assign(RoleAssignment::new("Alice", "Finance", "Clerk"));
        let added = a.merge(&b);
        assert_eq!(added, 2);
        assert!(a.check_access(&"Fred".into(), &"PersonnelDB".into(), &"read".into()));
    }

    #[test]
    fn serde_roundtrip() {
        let p = salaries_policy();
        let json = serde_json::to_string(&p).unwrap();
        let back: RbacPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn display_formats() {
        let g = PermissionGrant::new("Finance", "Clerk", "SalariesDB", "write");
        assert_eq!(g.to_string(), "Finance/Clerk may write on SalariesDB");
        let a = RoleAssignment::new("Alice", "Finance", "Clerk");
        assert_eq!(a.to_string(), "Alice is Finance/Clerk");
    }
}

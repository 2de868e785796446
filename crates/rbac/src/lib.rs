//! The extended Role-Based Access Control model of the paper (§2).
//!
//! Classic RBAC relates Users, Roles and Permissions; the paper extends
//! it with **Domain** (a logical grouping of roles — a department, an NT
//! domain, an EJB server) and **ObjectType** (what permissions range
//! over), giving the two relations
//!
//! ```text
//! HasPermission ⊆ Domain × Role × ObjectType × Permission
//! UserRole      ⊆ User × Domain × Role
//! ```
//!
//! which every supported middleware (COM+, EJB, CORBA) concretises and
//! which the trust layer encodes into KeyNote credentials.
//!
//! Modules: [`ids`] (typed names), [`policy`] (the relations and access
//! checks), [`diff`] (policy differencing for maintenance), [`fixtures`]
//! (the paper's Figure 1 and synthetic workloads). Delegation is not an
//! RBAC relation here: it is KeyNote delegation, done by the trust layer
//! (the paper's Figures 4 and 7).

pub mod diff;
pub mod fixtures;
pub mod ids;
pub mod policy;

pub use diff::PolicyDiff;
pub use ids::{Domain, DomainRole, ObjectType, Permission, Role, User};
pub use policy::{PermissionGrant, RbacPolicy, RoleAssignment};

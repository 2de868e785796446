//! Policy translation between middleware RBAC and KeyNote trust
//! management — the paper's central contribution (§4).
//!
//! The five characteristics of §1 map onto the modules:
//!
//! * **Policy Configuration** (§4.1) — [`configuration`]: KeyNote
//!   credentials decompiled into RBAC rows and commissioned into
//!   middleware;
//! * **Policy Comprehension** (§4.2) — [`comprehension`]: middleware
//!   RBAC encoded as the Figure 5 policy assertion plus Figure 6
//!   membership credentials;
//! * **Policy Migration** (§4.3) — [`migration`]: export → interpret
//!   (domain/permission maps, similarity-matched roles \[13\]) → import;
//! * **Policy Maintenance** (§4.4) — [`maintenance`]: the
//!   [`maintenance::PolicyBus`] propagating top-down changes and
//!   auditing consistency;
//! * **Policy Decentralisation** (§4.5) — Figure 7 delegation
//!   credentials ([`comprehension::delegate_role`]) evaluated by the
//!   KeyNote compliance checker without any central table.
//!
//! [`directory`] maps users to keys (symbolic or PKI-backed);
//! [`similarity`] provides the string metrics; [`batch`] signs
//! credential sets with real keys.

pub mod batch;
pub mod comprehension;
pub mod configuration;
pub mod directory;
pub mod maintenance;
pub mod migration;
pub mod similarity;

pub use comprehension::{delegate_role, encode_has_permission, encode_policy, encode_user_role, APP_DOMAIN};
pub use configuration::{decode_policy, expr_to_dnf, DecodeReport};
pub use directory::{KeyStoreDirectory, PrincipalDirectory, SymbolicDirectory};
pub use maintenance::{
    AdmissionFinding, AdmissionGate, AdmissionWitness, EndpointConsistency, PolicyBus, PolicyChange,
    PropagationReport,
};
pub use migration::{migrate, transform_policy, MigrationReport, MigrationSpec};

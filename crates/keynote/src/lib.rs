//! A from-scratch implementation of the KeyNote trust-management system
//! (RFC 2704), the trust layer of the paper's Secure WebCom framework.
//!
//! KeyNote answers the question *"what can I trust this public key to
//! do?"*: applications describe a requested action as a set of string
//! attributes, supply locally-trusted **policy assertions** plus signed
//! **credentials**, and the compliance checker computes how far the
//! requesting key(s) are authorised.
//!
//! Modules:
//! * [`values`] — ordered compliance value sets;
//! * [`ast`] — assertions, licensee formulas, condition expressions;
//! * [`lexer`] / [`parser`] — the RFC 2704 assertion syntax;
//! * [`mod@print`] — canonical serialisation (used for signing);
//! * [`regex`] — the POSIX-flavoured engine behind `~=`;
//! * [`eval`] — condition evaluation against action attribute sets;
//! * [`signing`] — credential signatures over the canonical text;
//! * [`compliance`] — the delegation fixpoint / compliance checker;
//! * [`compiled`] — the precompiled request-path form of assertions;
//! * [`verify_cache`] — sharded memo cache for signature verdicts;
//! * [`stamp`] — signed verdict stamps (portable verify-cache entries);
//! * [`explain`] — proof-trace variant of the compliance checker;
//! * [`session`] — the `kn_*`-style application API.
//!
//! # Example (the paper's Example 1/2)
//!
//! ```
//! use hetsec_keynote::session::KeyNoteSession;
//!
//! let mut kn = KeyNoteSession::permissive();
//! kn.add_policy(
//!     "Authorizer: POLICY\n\
//!      licensees: \"Kbob\"\n\
//!      Conditions: app_domain==\"SalariesDB\" && (oper==\"read\" || oper==\"write\");\n",
//! ).unwrap();
//! kn.add_credentials(
//!     "Authorizer: \"Kbob\"\n\
//!      licensees: \"Kalice\"\n\
//!      Conditions: app_domain==\"SalariesDB\" && oper==\"write\";\n",
//! ).unwrap();
//! kn.add_action_authorizer("Kalice");
//! kn.add_action_attribute("app_domain", "SalariesDB");
//! kn.add_action_attribute("oper", "write");
//! assert!(kn.query().is_authorized());
//! ```

pub mod ast;
pub mod compiled;
pub mod compliance;
pub mod eval;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod print;
pub mod regex;
pub mod session;
pub mod signing;
pub mod stamp;
pub mod values;
pub mod verify_cache;

pub use ast::{Assertion, Clause, CmpOp, ConditionsProgram, Expr, LicenseeExpr, Principal, Term};
pub use compiled::{principal_fingerprint, query_compiled, CompiledStore, QueryView, ViewQuery};
pub use compliance::{check_compliance, check_compliance_refs, Query, QueryResult};
pub use eval::ActionAttributes;
pub use explain::{explain_compliance, Explanation, TraceStep};
pub use session::{ActionQuery, KeyNoteSession, SessionError, SignaturePolicy};
pub use signing::{sign_assertion, verify_assertion, SignatureStatus};
pub use stamp::{status_code, status_from_code, VerdictStamp};
pub use values::{ComplianceValue, ComplianceValues, MAX_TRUST, MIN_TRUST};
pub use verify_cache::{credential_fingerprint, VerifyCache, VerifyCacheStats};

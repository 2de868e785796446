//! Integration-test and example host crate.
//!
//! The doctests below pin the vendored serde derive's attribute rules:
//! the attributes it implements compile, and any other `serde(...)`
//! attribute is a compile error instead of being silently ignored.
//!
//! ```
//! #[derive(serde::Serialize, serde::Deserialize)]
//! #[serde(transparent)]
//! struct Name(String);
//!
//! #[derive(serde::Serialize, serde::Deserialize)]
//! struct Finding {
//!     #[serde(default, skip_serializing_if = "Vec::is_empty")]
//!     witnesses: Vec<Name>,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! struct Renamed {
//!     #[serde(rename = "other")]
//!     field: u8,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Deserialize)]
//! #[serde(deny_unknown_fields)]
//! struct Strict {
//!     field: u8,
//! }
//! ```
//!
//! ```compile_fail
//! #[derive(serde::Serialize)]
//! enum Tagged {
//!     #[serde(skip)]
//!     Hidden,
//! }
//! ```

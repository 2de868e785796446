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

/// The seeded generator behind the integration tests' random cases:
/// splitmix64, enough statistical quality for test-case generation and
/// fully reproducible from its seed, so a failing case replays exactly.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator starting from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

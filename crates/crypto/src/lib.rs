//! Simulated PKI substrate for the heterogeneous middleware security
//! framework.
//!
//! The original Secure WebCom system relied on the KeyNote toolkit's
//! RSA/DSA signatures and an external PKI. Neither exists as an offline
//! Rust crate, so this crate builds the substrate from scratch:
//!
//! * [`bigint::U512`] — fixed-width 512-bit arithmetic (add/sub/mul/
//!   divmod/modpow/modinv/gcd, Miller-Rabin support),
//! * [`mod@sha256`] — FIPS 180-4 SHA-256,
//! * [`rsa`] — textbook RSA signatures with toy 256-bit moduli,
//! * [`keys`] — printable key/signature encodings used by KeyNote
//!   principals,
//! * [`keystore`] — a thread-safe name → keypair store with
//!   deterministic derivation, and
//! * [`drbg`] — a SHA-256 counter DRBG so everything is reproducible.
//!
//! **Security note:** the parameters are deliberately small so that key
//! generation stays fast inside tests and benches. This is a functional
//! simulation of a PKI, not a secure one; see DESIGN.md.

pub mod bigint;
pub mod drbg;
pub mod keys;
pub mod keystore;
pub mod rsa;
pub mod sha256;
pub mod stamp;

pub use drbg::Drbg;
pub use keys::{KeyError, KeyPair, PublicKey, Signature};
pub use keystore::KeyStore;
pub use sha256::{hex_digest, sha256};
pub use stamp::{sign_stamp, stamp_payload, verify_stamp};

//! Principal key material: printable public keys, keypairs, signatures.
//!
//! KeyNote principals are printable strings; this module defines the
//! canonical textual encodings used throughout the framework:
//!
//! * public key: `rsa-sim:<hex n>:<hex e>`
//! * signature:  `sig-rsa-sha256:<hex s>`

use crate::bigint::U512;
use crate::drbg::Drbg;
use crate::rsa::{self, RsaPublic, RsaSecret, RsaSignature};
use crate::sha256::{hex_digest, sha256};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// Prefix of textual public keys.
pub const KEY_PREFIX: &str = "rsa-sim";
/// Prefix of textual signatures.
pub const SIG_PREFIX: &str = "sig-rsa-sha256";

/// Errors from parsing textual key material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KeyError {
    /// The string did not have the expected `prefix:field:field` shape.
    Malformed(String),
    /// A hex field failed to parse.
    BadHex(String),
}

impl fmt::Display for KeyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyError::Malformed(s) => write!(f, "malformed key material: {s}"),
            KeyError::BadHex(s) => write!(f, "invalid hex in key material: {s}"),
        }
    }
}

impl std::error::Error for KeyError {}

/// A parsed public key.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct PublicKey {
    inner: RsaPublic,
}

impl PublicKey {
    /// Canonical textual form (`rsa-sim:<n>:<e>`).
    pub fn to_text(&self) -> String {
        format!(
            "{KEY_PREFIX}:{}:{}",
            self.inner.n.to_hex(),
            self.inner.e.to_hex()
        )
    }

    /// Short fingerprint: first 16 hex chars of SHA-256 of the text form.
    pub fn fingerprint(&self) -> String {
        let digest = sha256(self.to_text().as_bytes());
        hex_digest(&digest)[..16].to_string()
    }

    /// Verifies `sig` over `payload`.
    pub fn verify(&self, payload: &[u8], sig: &Signature) -> bool {
        rsa::verify(&self.inner, payload, &sig.inner)
    }

    /// Raw RSA public key.
    pub fn raw(&self) -> &RsaPublic {
        &self.inner
    }
}

impl FromStr for PublicKey {
    type Err = KeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        let prefix = parts.next().unwrap_or_default();
        if prefix != KEY_PREFIX {
            return Err(KeyError::Malformed(s.to_string()));
        }
        let n_hex = parts.next().ok_or_else(|| KeyError::Malformed(s.to_string()))?;
        let e_hex = parts.next().ok_or_else(|| KeyError::Malformed(s.to_string()))?;
        if parts.next().is_some() {
            return Err(KeyError::Malformed(s.to_string()));
        }
        let n = U512::from_hex(n_hex).ok_or_else(|| KeyError::BadHex(n_hex.to_string()))?;
        let e = U512::from_hex(e_hex).ok_or_else(|| KeyError::BadHex(e_hex.to_string()))?;
        Ok(PublicKey {
            inner: RsaPublic { n, e },
        })
    }
}

impl fmt::Display for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

impl Serialize for PublicKey {
    fn serialize<S: serde::Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        s.serialize_str(&self.to_text())
    }
}

impl<'de> Deserialize<'de> for PublicKey {
    fn deserialize<D: serde::Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let s = String::deserialize(d)?;
        s.parse().map_err(serde::de::Error::custom)
    }
}

/// A detached signature.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Signature {
    inner: RsaSignature,
}

impl Signature {
    /// Canonical textual form (`sig-rsa-sha256:<s>`).
    pub fn to_text(&self) -> String {
        format!("{SIG_PREFIX}:{}", self.inner.0.to_hex())
    }

    /// Raw RSA signature, mirroring [`PublicKey::raw`]. Lets callers
    /// reach the uncached [`rsa`] entry points for baselines.
    pub fn raw(&self) -> &RsaSignature {
        &self.inner
    }
}

impl FromStr for Signature {
    type Err = KeyError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut parts = s.split(':');
        if parts.next() != Some(SIG_PREFIX) {
            return Err(KeyError::Malformed(s.to_string()));
        }
        let hex = parts.next().ok_or_else(|| KeyError::Malformed(s.to_string()))?;
        if parts.next().is_some() {
            return Err(KeyError::Malformed(s.to_string()));
        }
        let v = U512::from_hex(hex).ok_or_else(|| KeyError::BadHex(hex.to_string()))?;
        Ok(Signature {
            inner: RsaSignature(v),
        })
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_text())
    }
}

/// A signing keypair for one principal.
#[derive(Clone, Debug)]
pub struct KeyPair {
    public: PublicKey,
    secret: RsaSecret,
}

impl KeyPair {
    /// Deterministically derives a keypair from a seed label, e.g. the
    /// principal's name. Same label, same keypair.
    pub fn from_label(label: &str) -> Self {
        let mut drbg = Drbg::from_label(label);
        let (public, secret) = rsa::generate_keypair(&mut drbg);
        KeyPair {
            public: PublicKey { inner: public },
            secret,
        }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// Signs a payload.
    pub fn sign(&self, payload: &[u8]) -> Signature {
        Signature {
            inner: rsa::sign(&self.secret, payload),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip() {
        let kp = KeyPair::from_label("alice");
        let text = kp.public().to_text();
        let parsed: PublicKey = text.parse().unwrap();
        assert_eq!(&parsed, kp.public());
    }

    #[test]
    fn signature_text_roundtrip() {
        let kp = KeyPair::from_label("bob");
        let sig = kp.sign(b"payload");
        let parsed: Signature = sig.to_text().parse().unwrap();
        assert!(kp.public().verify(b"payload", &parsed));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<PublicKey>().is_err());
        assert!("rsa-sim".parse::<PublicKey>().is_err());
        assert!("rsa-sim:zz:10001".parse::<PublicKey>().is_err());
        assert!("other:aa:bb".parse::<PublicKey>().is_err());
        assert!("rsa-sim:aa:bb:cc".parse::<PublicKey>().is_err());
        assert!("sig-rsa-sha256".parse::<Signature>().is_err());
        assert!("sig-rsa-sha256:zz".parse::<Signature>().is_err());
    }

    #[test]
    fn fingerprint_is_stable_and_short() {
        let kp = KeyPair::from_label("carol");
        let f1 = kp.public().fingerprint();
        let f2 = kp.public().fingerprint();
        assert_eq!(f1, f2);
        assert_eq!(f1.len(), 16);
    }

    #[test]
    fn distinct_labels_give_distinct_keys() {
        let a = KeyPair::from_label("a");
        let b = KeyPair::from_label("b");
        assert_ne!(a.public(), b.public());
    }

    #[test]
    fn serde_roundtrip() {
        let kp = KeyPair::from_label("serde");
        let json = serde_json::to_string(kp.public()).unwrap();
        let back: PublicKey = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, kp.public());
    }
}

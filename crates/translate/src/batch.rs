//! Real-key signing of translated assertions.

use crate::directory::KeyStoreDirectory;
use hetsec_keynote::ast::{Assertion, Principal};
use hetsec_keynote::signing::sign_assertion;
use hetsec_crypto::PublicKey;

/// Signs every *unsigned* key-authored assertion whose authorizer key is
/// owned by the directory's keystore. Returns how many were signed.
/// Assertions with `POLICY` authorizers (locally trusted), foreign keys,
/// and existing signatures are left untouched.
pub fn sign_owned(assertions: &mut [Assertion], directory: &KeyStoreDirectory) -> usize {
    let mut signed = 0;
    for a in assertions.iter_mut() {
        if a.signature.is_some() {
            continue;
        }
        let Principal::Key(key_text) = &a.authorizer else {
            continue;
        };
        let Ok(public) = key_text.parse::<PublicKey>() else {
            continue;
        };
        let Some(owner) = directory.store().name_of(&public) else {
            continue;
        };
        let kp = directory.store().keypair(&owner);
        if sign_assertion(a, &kp).is_ok() {
            signed += 1;
        }
    }
    signed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comprehension::encode_policy;
    use crate::directory::PrincipalDirectory;
    use hetsec_keynote::session::{ActionQuery, KeyNoteSession};
    use hetsec_keynote::signing::{verify_assertion, SignatureStatus};
    use hetsec_rbac::fixtures::salaries_policy;
    use hetsec_rbac::User;

    #[test]
    fn sign_owned_produces_verifiable_credentials() {
        let dir = KeyStoreDirectory::new();
        // Materialise the WebCom key and use its real text as authorizer.
        let webcom_key = dir.key_of(&User::new("WebCom"));
        let mut assertions = encode_policy(&salaries_policy(), &webcom_key, &dir);
        let signed = sign_owned(&mut assertions, &dir);
        // One credential per assignment; the POLICY assertion stays
        // unsigned.
        assert_eq!(signed, salaries_policy().assignment_count());
        for a in &assertions {
            match &a.authorizer {
                Principal::Policy => assert_eq!(verify_assertion(a), SignatureStatus::Unsigned),
                Principal::Key(_) => assert_eq!(verify_assertion(a), SignatureStatus::Valid),
            }
        }
        // The signed set passes a strict session end-to-end.
        let mut s = KeyNoteSession::new();
        for a in assertions {
            s.add_policy_assertion(a).unwrap();
        }
        let claire = dir.key_of(&User::new("Claire"));
        let attrs = [
            ("app_domain", "WebCom"),
            ("Domain", "Sales"),
            ("Role", "Manager"),
            ("ObjectType", "SalariesDB"),
            ("Permission", "read"),
        ]
        .into_iter()
        .collect();
        assert!(s.evaluate(&ActionQuery::principals(&[claire.as_str()]).attributes(&attrs)).is_authorized());
    }

    #[test]
    fn sign_owned_skips_foreign_keys() {
        let dir = KeyStoreDirectory::new();
        let foreign = hetsec_crypto::KeyPair::from_label("foreign-stranger");
        let mut assertions = vec![Assertion::new(
            Principal::key(foreign.public().to_text()),
            hetsec_keynote::ast::LicenseeExpr::Principal("Kx".into()),
        )];
        assert_eq!(sign_owned(&mut assertions, &dir), 0);
        assert!(assertions[0].signature.is_none());
    }
}

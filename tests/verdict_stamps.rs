//! Signed verdict stamps end to end: tamper resistance of the stamp
//! envelope, cluster-wide verification amortisation (a credential's
//! RSA verify happens once at its home master, every other node admits
//! the stamped verdict), and the revocation guarantee — a perfectly
//! valid stamp never bypasses compliance-time refusal of a revoked
//! authorizer.

use hetsec_crypto::KeyPair;
use hetsec_keynote::{
    credential_fingerprint, sign_assertion, Assertion, LicenseeExpr, Principal, SignatureStatus,
    VerdictStamp, VerifyCache,
};
use hetsec_middleware::component::ComponentRef;
use hetsec_middleware::naming::MiddlewareKind;
use hetsec_suite::Rng;
use hetsec_webcom::stack::TrustLayer;
use hetsec_webcom::{
    serve_tcp, ArithComponentExecutor, AuthzRequest, AuthzStack, ClientConfig, ClientEngine,
    ClientTransport, ExecOutcome, MuxTransport, Presented, ScheduleRequest, ScheduledAction,
    StampIssuer, StampVerifier, TrustManager,
};
use std::sync::Arc;
use std::time::Duration;

/// A value in `0..n`, drawn as a `u64` from the shared splitmix64
/// generator.
fn below(rng: &mut Rng, n: u64) -> u64 {
    rng.next_u64() % n
}

fn delegation(delegator: &KeyPair, licensee: &str) -> Assertion {
    let mut a = Assertion::new(
        Principal::key(delegator.public().to_text()),
        LicenseeExpr::Principal(licensee.to_string()),
    );
    sign_assertion(&mut a, delegator).expect("delegation signs");
    a
}

/// A strict trust manager whose only root is POLICY licensing the
/// delegator key — principals are reachable solely through signed
/// delegations, so every decision exercises credential verification.
fn strict_tm(delegator_key: &str) -> Arc<TrustManager> {
    let tm = TrustManager::strict();
    tm.add_policy(&format!(
        "Authorizer: POLICY\nLicensees: \"{delegator_key}\"\nConditions: app_domain==\"WebCom\";\n"
    ))
    .expect("policy parses");
    Arc::new(tm)
}

fn add_action() -> ScheduledAction {
    ScheduledAction::new(
        ComponentRef::new(MiddlewareKind::Ejb, "Dom", "Calc", "add"),
        "Dom",
        "Worker",
    )
}

/// Flips one character of a hex string to a different hex digit.
fn flip_hex(s: &mut String, idx: usize) {
    let flipped: String = s
        .chars()
        .enumerate()
        .map(|(i, c)| {
            if i == idx {
                if c == '0' {
                    '1'
                } else {
                    '0'
                }
            } else {
                c
            }
        })
        .collect();
    *s = flipped;
}

#[test]
fn tampering_any_stamp_field_defeats_admission() {
    let mut rng = Rng::new(0xD1CE_5EED_0BAD_CAFE);
    let issuer_a = KeyPair::from_label("vs-prop-issuer-a");
    let issuer_b = KeyPair::from_label("vs-prop-issuer-b");
    for case in 0..48u64 {
        let delegator = KeyPair::from_label(&format!("vs-prop-delegator-{case}"));
        let cred = delegation(&delegator, &format!("Kuser{}", below(&mut rng, 1000)));
        let fp = credential_fingerprint(&cred).expect("signed credential has a fingerprint");
        let stamp = VerdictStamp::issue(
            &issuer_a,
            fp,
            &SignatureStatus::Valid,
            below(&mut rng, 1 << 40),
            below(&mut rng, 1 << 40),
        );
        let mut forged = stamp.clone();
        let field = below(&mut rng, 6);
        match field {
            0 => {
                let idx = below(&mut rng, forged.fingerprint.len() as u64) as usize;
                flip_hex(&mut forged.fingerprint, idx);
            }
            1 => forged.status = ((forged.status as u64 + 1 + below(&mut rng, 3)) % 4) as u8,
            2 => forged.epoch ^= 1 + below(&mut rng, u32::MAX as u64),
            3 => forged.issued_at ^= 1 + below(&mut rng, u32::MAX as u64),
            // A fleet key that did not sign this stamp.
            4 => forged.issuer = issuer_b.public().to_text(),
            _ => {
                let idx = below(&mut rng, forged.signature.len() as u64 - 1) as usize + 1;
                flip_hex(&mut forged.signature, idx);
            }
        }
        assert_ne!(forged, stamp, "case {case}: tamper must change a field");
        let verifier = StampVerifier::new(Arc::new(VerifyCache::new()))
            .trust_issuer(&issuer_a.public().to_text())
            .trust_issuer(&issuer_b.public().to_text());
        let delta = verifier.admit(std::slice::from_ref(&forged));
        assert_eq!(
            (delta.admitted, delta.rejected),
            (0, 1),
            "case {case}: tampered field {field} must be rejected, not admitted"
        );
        assert_eq!(verifier.cache().stats().entries, 0, "case {case}");
        // Control: the untampered stamp admits on the same verifier.
        let delta = verifier.admit(std::slice::from_ref(&stamp));
        assert_eq!(delta.admitted, 1, "case {case}: genuine stamp admits");
    }
}

#[test]
fn revoked_authorizer_is_refused_despite_a_valid_stamp() {
    let delegator = KeyPair::from_label("vs-revoke-delegator");
    let dkey = delegator.public().to_text();
    let cred = delegation(&delegator, "Kuser1");
    let master = KeyPair::from_label("vs-revoke-master");
    let fp = credential_fingerprint(&cred).unwrap();
    let stamp = VerdictStamp::issue(&master, fp, &SignatureStatus::Valid, 0, 0);

    let tm = strict_tm(&dkey);
    let verifier =
        StampVerifier::new(tm.verify_cache()).trust_issuer(&master.public().to_text());
    assert_eq!(verifier.admit(std::slice::from_ref(&stamp)).admitted, 1);

    let action = add_action();
    let request = AuthzRequest::principal("Kuser1")
        .action(&action)
        .credentials(std::slice::from_ref(&cred));
    assert!(tm.decide(&request), "stamped credential authorises Kuser1");
    let stats = tm.verify_cache_stats();
    assert_eq!(
        (stats.misses, stats.stamped),
        (0, 1),
        "the verdict came from the stamp, not a local verify"
    );

    // Revoke the delegator. The stamp is still perfectly valid — it
    // attests a true fact about the signature — but compliance now
    // refuses the revoked authorizer. Stamps amortise verification,
    // never authorisation.
    tm.revoke_key(dkey.clone());
    assert!(
        !tm.decide(&request),
        "revoked authorizer must be refused at compliance time"
    );
    assert_eq!(
        tm.verify_cache_stats().misses,
        0,
        "refusal is compliance-time: no re-verification happened"
    );
    // Reinstating restores the stamped authority without any new RSA.
    assert!(tm.reinstate_key(&dkey));
    assert!(tm.decide(&request));
    assert_eq!(tm.verify_cache_stats().misses, 0);
}

#[test]
fn second_node_re_presentation_pays_zero_per_credential_verifies() {
    let delegator = KeyPair::from_label("vs-fleet-delegator");
    let dkey = delegator.public().to_text();
    let creds: Vec<Assertion> = (0..6)
        .map(|i| delegation(&delegator, &format!("Kuser{i}")))
        .collect();
    let issuer = StampIssuer::new(KeyPair::from_label("vs-fleet-master"));
    // The home master pays the per-credential verifies exactly once,
    // at issuance.
    let stamps = issuer.stamps_for(0, &creds);
    assert_eq!(stamps.len(), creds.len());

    // Every node the credentials are re-presented to — first or fifth,
    // order does not matter — admits the stamped verdicts and decides
    // without a single per-credential RSA verify of its own.
    let action = add_action();
    for node in ["node-a", "node-b"] {
        let tm = strict_tm(&dkey);
        let verifier = StampVerifier::new(tm.verify_cache()).trust_issuer(issuer.key_text());
        let delta = verifier.admit(&stamps);
        assert_eq!(delta.admitted, creds.len() as u64, "{node}");
        for i in 0..creds.len() {
            let principal = format!("Kuser{i}");
            let request = AuthzRequest::principal(&principal)
                .action(&action)
                .credentials(&creds);
            assert!(tm.decide(&request), "{node}: Kuser{i}");
        }
        let stats = tm.verify_cache_stats();
        assert_eq!(stats.misses, 0, "{node}: zero per-credential verifies");
        assert_eq!(stats.stamped, creds.len() as u64, "{node}");
        assert!(stats.hits >= creds.len() as u64, "{node}");
    }

    // Control: a node outside the fleet (no stamps) pays one real
    // verify per credential — the cost the stamps amortise away.
    let cold = strict_tm(&dkey);
    let request = AuthzRequest::principal("Kuser0")
        .action(&action)
        .credentials(&creds);
    assert!(cold.decide(&request));
    assert_eq!(cold.verify_cache_stats().misses, creds.len() as u64);
}

#[test]
fn client_engine_admits_stamps_riding_the_request() {
    let delegator = KeyPair::from_label("vs-engine-delegator");
    let dkey = delegator.public().to_text();
    let creds: Vec<Assertion> = (0..3)
        .map(|i| delegation(&delegator, &format!("Kuser{i}")))
        .collect();
    let issuer = StampIssuer::new(KeyPair::from_label("vs-engine-master"));
    let stamps = issuer.stamps_for(0, &creds);

    let master_trust = {
        let tm = TrustManager::permissive();
        tm.add_policy(
            "Authorizer: POLICY\nLicensees: \"Km\"\nConditions: app_domain==\"WebCom\";\n",
        )
        .unwrap();
        Arc::new(tm)
    };
    let user_tm = strict_tm(&dkey);
    let mut stack = AuthzStack::new();
    stack.push(Arc::new(TrustLayer::new(Arc::clone(&user_tm))));
    let engine = ClientEngine::new(ClientConfig {
        name: "c1".to_string(),
        key_text: "Kc1".to_string(),
        master_trust,
        stack: Arc::new(stack),
        executor: Arc::new(ArithComponentExecutor),
    })
    .with_stamp_verifier(Arc::new(
        StampVerifier::new(user_tm.verify_cache()).trust_issuer(issuer.key_text()),
    ));

    let req = ScheduleRequest {
        op_id: 1,
        action: add_action(),
        user: "worker".into(),
        principal: "Kuser0".to_string(),
        master_key: "Km".to_string(),
        presented: Presented::new(creds.clone(), stamps),
        args: vec![
            hetsec_graphs::Value::Int(20),
            hetsec_graphs::Value::Int(22),
        ],
    };
    let reply = engine.handle(&req);
    assert_eq!(reply.outcome, ExecOutcome::Ok(hetsec_graphs::Value::Int(42)));
    let stats = engine.stats();
    assert_eq!(stats.executed, 1);
    assert_eq!(stats.stamps.admitted, creds.len() as u64);
    let vstats = user_tm.verify_cache_stats();
    assert_eq!(
        vstats.misses, 0,
        "the serving client verified nothing locally"
    );
}

/// The tamper property carried onto the wire: a credential altered
/// after signing, in a set a mux connection sends once as a definition
/// and then names by id, is refused exactly as the same set presented
/// inline is, stamps and all. Each alteration keeps the credential
/// licensing the requesting principal, so only the broken signature
/// refuses it; the genuine credential is the control.
#[test]
fn a_tampered_credential_in_a_definition_is_refused_as_inline() {
    let mut rng = Rng::new(0xDEF1_5E75_7A3B_E5E7);
    let issuer = KeyPair::from_label("vs-def-issuer");
    for case in 0..12u64 {
        let delegator = KeyPair::from_label(&format!("vs-def-delegator-{case}"));
        let dkey = delegator.public().to_text();
        let principal = format!("Kuser{}", below(&mut rng, 1000));
        let genuine = delegation(&delegator, &principal);
        let fp = credential_fingerprint(&genuine).expect("signed credential has a fingerprint");
        let stamp = VerdictStamp::issue(&issuer, fp, &SignatureStatus::Valid, 0, 0);
        let mut forged = genuine.clone();
        let field = below(&mut rng, 4);
        match field {
            0 => {
                let mut signature = forged.signature.take().expect("signed");
                let idx = signature.len() - 1 - below(&mut rng, 8) as usize;
                flip_hex(&mut signature, idx);
                forged.signature = Some(signature);
            }
            1 => forged.licensees = Some(LicenseeExpr::Or(
                Box::new(LicenseeExpr::Principal(principal.clone())),
                Box::new(LicenseeExpr::Principal("Kother".to_string())),
            )),
            2 => forged.comment = Some(format!("case {case}")),
            _ => forged
                .local_constants
                .push(("ORIGIN".to_string(), format!("case {case}"))),
        }
        assert_ne!(forged, genuine, "case {case}: tamper must change a field");
        for (credential, grants) in [(&forged, false), (&genuine, true)] {
            let engine = || {
                let user_tm = strict_tm(&dkey);
                let mut stack = AuthzStack::new();
                stack.push(Arc::new(TrustLayer::new(Arc::clone(&user_tm))));
                Arc::new(
                    ClientEngine::new(ClientConfig {
                        name: "c1".to_string(),
                        key_text: "Kc1".to_string(),
                        master_trust: strict_tm("Km"),
                        stack: Arc::new(stack),
                        executor: Arc::new(ArithComponentExecutor),
                    })
                    .with_stamp_verifier(Arc::new(
                        StampVerifier::new(user_tm.verify_cache())
                            .trust_issuer(&issuer.public().to_text()),
                    )),
                )
            };
            let request = ScheduleRequest {
                op_id: 1,
                action: add_action(),
                user: "worker".into(),
                principal: principal.clone(),
                master_key: "Km".to_string(),
                presented: Presented::new(vec![credential.clone()], vec![stamp.clone()]),
                args: vec![
                    hetsec_graphs::Value::Int(20),
                    hetsec_graphs::Value::Int(22),
                ],
            };
            let inline = engine();
            let inline_outcome = inline.handle(&request).outcome;
            let served = engine();
            let server = serve_tcp(Arc::clone(&served), vec!["Dom".into()], "127.0.0.1:0").unwrap();
            let wire_outcome = MuxTransport::new(server.local_addr())
                .call(&request, Duration::from_secs(10))
                .expect("the served client answers")
                .outcome;
            server.stop();
            assert_eq!(
                wire_outcome, inline_outcome,
                "case {case}: field {field}, grants {grants}: the definition changed the verdict"
            );
            assert_eq!(
                inline_outcome.is_ok(),
                grants,
                "case {case}: field {field}: {inline_outcome:?}"
            );
            assert_eq!(served.stats(), inline.stats(), "case {case}: field {field}");
        }
    }
}

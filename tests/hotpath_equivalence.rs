//! Equivalence suites for the authorization hot-path overhaul.
//!
//! Two independently implemented fast paths exist in the tree: the
//! Montgomery-form modular arithmetic in `hetsec-crypto` (vs the
//! schoolbook long-division path) and the compiled KeyNote evaluator in
//! `hetsec-keynote` (vs the AST interpreter). Both are held to the slow
//! implementation's answers on pseudo-random inputs from a seeded
//! splitmix64 stream — deterministic, so any failure is reproducible
//! from the case index in the assertion message.

use hetsec_crypto::bigint::{Montgomery, U512};
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::parser::parse_assertions;
use hetsec_keynote::session::{ActionQuery, KeyNoteSession};
use hetsec_keynote::signing::sign_assertion;
use hetsec_keynote::ActionAttributes;
use hetsec_crypto::KeyPair;
use hetsec_suite::Rng;

// ---- Deterministic generator helpers over `hetsec_suite::Rng` ----

/// A uniformly random `U512` with up to `bits` significant bits.
fn next_u512(rng: &mut Rng, bits: u32) -> U512 {
    let mut limbs = [0u64; 8];
    for limb in &mut limbs {
        *limb = rng.next_u64();
    }
    U512::from_limbs(limbs).shr_small(512 - bits)
}

/// A random odd modulus with exactly `bits` significant bits
/// (top bit forced so the width is predictable).
fn next_odd_modulus(rng: &mut Rng, bits: u32) -> U512 {
    let mut m = next_u512(rng, bits);
    let mut limbs = m.limbs();
    limbs[0] |= 1;
    m = U512::from_limbs(limbs);
    if !m.bit(bits - 1) {
        m = m.add(&U512::ONE.shl_small(bits - 1));
    }
    m
}

// ---- Montgomery vs schoolbook ----

#[test]
fn montgomery_mulmod_matches_schoolbook_on_random_operands() {
    let mut rng = Rng::new(0x4d6f_6e74_676f_6d01);
    for case in 0..200 {
        // Vary the modulus width across the whole supported range,
        // including full 512-bit moduli where the schoolbook divider
        // exercises its high-bit overflow path.
        let bits = [64, 128, 256, 384, 500, 512][case % 6] as u32;
        let m = next_odd_modulus(&mut rng, bits);
        if m == U512::ONE {
            continue;
        }
        let ctx = Montgomery::new(&m).expect("odd modulus");
        let a = next_u512(&mut rng, 512).rem(&m);
        let b = next_u512(&mut rng, 512).rem(&m);
        let fast = ctx.from_mont(&ctx.mul(&ctx.to_mont(&a), &ctx.to_mont(&b)));
        let slow = a.mulmod(&b, &m);
        assert_eq!(fast, slow, "case {case}: mulmod diverged for bits={bits}");
    }
}

#[test]
fn montgomery_modpow_matches_schoolbook_on_random_operands() {
    let mut rng = Rng::new(0x4d6f_6e74_676f_6d02);
    for case in 0..60 {
        let bits = [64, 192, 256, 512][case % 4] as u32;
        let m = next_odd_modulus(&mut rng, bits);
        if m == U512::ONE {
            continue;
        }
        let base = next_u512(&mut rng, 512);
        // Exponent width varies from tiny to full so every window
        // pattern of the fixed-window ladder is exercised.
        let exp = next_u512(&mut rng, [1, 17, 64, 250, 512][case % 5] as u32);
        let fast = base.modpow(&exp, &m);
        let slow = base.modpow_schoolbook(&exp, &m);
        assert_eq!(fast, slow, "case {case}: modpow diverged for bits={bits}");
    }
}

#[test]
fn montgomery_edge_exponents_match_schoolbook() {
    let mut rng = Rng::new(0x4d6f_6e74_676f_6d03);
    let m = next_odd_modulus(&mut rng, 256);
    let base = next_u512(&mut rng, 512);
    for exp in [
        U512::ZERO,
        U512::ONE,
        U512::TWO,
        U512::from_u64(65_537),
        U512::from_u64(u64::MAX),
    ] {
        assert_eq!(
            base.modpow(&exp, &m),
            base.modpow_schoolbook(&exp, &m),
            "exp {exp:?}"
        );
    }
}

// ---- Compiled vs interpreted KeyNote evaluation ----

/// Generates a random assertion-store text plus query inputs, drawing
/// principals from a small pool so delegation chains actually connect.
fn random_policy_text(rng: &mut Rng) -> String {
    const PRINCIPALS: [&str; 6] = ["Ka", "Kb", "Kc", "Kd", "Ke", "Kf"];
    const OPS: [&str; 4] = ["read", "write", "grant", "delete"];
    let mut text = String::new();
    let n_assertions = rng.below(6) + 2;
    for i in 0..n_assertions {
        let authorizer = if i == 0 || rng.below(3) == 0 {
            "POLICY".to_string()
        } else {
            format!("\"{}\"", PRINCIPALS[rng.below(PRINCIPALS.len())])
        };
        let licensees = match rng.below(4) {
            0 => format!("\"{}\"", PRINCIPALS[rng.below(PRINCIPALS.len())]),
            1 => format!(
                "\"{}\" || \"{}\"",
                PRINCIPALS[rng.below(PRINCIPALS.len())],
                PRINCIPALS[rng.below(PRINCIPALS.len())]
            ),
            2 => format!(
                "\"{}\" && \"{}\"",
                PRINCIPALS[rng.below(PRINCIPALS.len())],
                PRINCIPALS[rng.below(PRINCIPALS.len())]
            ),
            _ => format!(
                "2-of(\"{}\", \"{}\", \"{}\")",
                PRINCIPALS[rng.below(PRINCIPALS.len())],
                PRINCIPALS[rng.below(PRINCIPALS.len())],
                PRINCIPALS[rng.below(PRINCIPALS.len())]
            ),
        };
        let conditions = match rng.below(5) {
            0 => String::new(),
            1 => format!("Conditions: oper == \"{}\";\n", OPS[rng.below(OPS.len())]),
            2 => format!(
                "Conditions: oper == \"{}\" || level > {};\n",
                OPS[rng.below(OPS.len())],
                rng.below(9)
            ),
            3 => format!("Conditions: oper ~= \"^(read|write)$\" && level <= {};\n", rng.below(9)),
            _ => format!(
                "Conditions: oper == \"{}\" -> \"_MAX_TRUST\"; level > {} -> \"_MIN_TRUST\";\n",
                OPS[rng.below(OPS.len())],
                rng.below(9)
            ),
        };
        text.push_str(&format!(
            "Authorizer: {authorizer}\nLicensees: {licensees}\n{conditions}\n"
        ));
    }
    text
}

#[test]
fn compiled_evaluation_matches_interpreter_on_random_stores() {
    const PRINCIPALS: [&str; 6] = ["Ka", "Kb", "Kc", "Kd", "Ke", "Kf"];
    const OPS: [&str; 4] = ["read", "write", "grant", "delete"];
    let mut rng = Rng::new(0x4b65_794e_6f74_6501);
    let mut checked = 0usize;
    for case in 0..150 {
        let text = random_policy_text(&mut rng);
        // Some random stores are syntactically invalid (e.g. duplicated
        // licensee pools are fine, but keep the guard anyway).
        let Ok(_) = parse_assertions(&text) else {
            continue;
        };
        let mut session = KeyNoteSession::permissive();
        if session.add_policy(&text).is_err() {
            continue;
        }
        if rng.below(4) == 0 {
            session.revoke_key(PRINCIPALS[rng.below(PRINCIPALS.len())]);
        }
        for _ in 0..4 {
            let who = PRINCIPALS[rng.below(PRINCIPALS.len())];
            let attrs: ActionAttributes = [
                ("oper", OPS[rng.below(OPS.len())].to_string()),
                ("level", rng.below(12).to_string()),
            ]
            .into_iter()
            .collect();
            let compiled = session.evaluate(&ActionQuery::principals(&[who]).attributes(&attrs));
            let interpreted = session.evaluate(&ActionQuery::principals(&[who]).attributes(&attrs).interpreted());
            assert_eq!(
                compiled.value, interpreted.value,
                "case {case}: verdict diverged for {who} over:\n{text}"
            );
            assert_eq!(
                compiled.value_name, interpreted.value_name,
                "case {case}: value name diverged for {who}"
            );
            checked += 1;
        }
    }
    assert!(checked > 400, "generator degenerated: only {checked} cases");
}

#[test]
fn compiled_evaluation_matches_interpreter_with_extra_credentials() {
    let mut rng = Rng::new(0x4b65_794e_6f74_6502);
    for case in 0..40 {
        let text = random_policy_text(&mut rng);
        let mut session = KeyNoteSession::permissive();
        if session.add_policy(&text).is_err() {
            continue;
        }
        // A request-scoped delegation from a random store principal.
        let from = ["Ka", "Kb", "Kc"][rng.below(3)];
        let extra_text = format!("Authorizer: \"{from}\"\nLicensees: \"Kx\"\n");
        let extra: Vec<Assertion> = parse_assertions(&extra_text).unwrap();
        let attrs: ActionAttributes = [("oper", "read"), ("level", "3")].into_iter().collect();
        let compiled = session.evaluate(&ActionQuery::principals(&["Kx"]).attributes(&attrs).extra(&extra));
        let interpreted = session.evaluate(&ActionQuery::principals(&["Kx"]).attributes(&attrs).extra(&extra).interpreted());
        assert_eq!(
            compiled.value, interpreted.value,
            "case {case}: extra-credential verdict diverged over:\n{text}"
        );
    }
}

#[test]
fn batch_evaluation_matches_sequential_on_random_stores() {
    const PRINCIPALS: [&str; 6] = ["Ka", "Kb", "Kc", "Kd", "Ke", "Kf"];
    const OPS: [&str; 4] = ["read", "write", "grant", "delete"];
    let mut rng = Rng::new(0x4b65_794e_6f74_6503);
    let mut checked = 0usize;
    for case in 0..80 {
        let text = random_policy_text(&mut rng);
        let mut session = KeyNoteSession::permissive();
        if session.add_policy(&text).is_err() {
            continue;
        }
        if rng.below(4) == 0 {
            session.revoke_key(PRINCIPALS[rng.below(PRINCIPALS.len())]);
        }
        // A mixed batch: varied principals and attribute sets, some
        // items carrying request-scoped credentials, some forced onto
        // the interpreted path, and occasional coincident repeats of
        // the predecessor (same borrowed attrs — the collapse case).
        let extra_text = format!(
            "Authorizer: \"{}\"\nLicensees: \"Kx\"\n",
            PRINCIPALS[rng.below(3)]
        );
        let extra: Vec<Assertion> = parse_assertions(&extra_text).unwrap();
        let n = rng.below(12) + 2;
        let attr_sets: Vec<ActionAttributes> = (0..n)
            .map(|_| {
                [
                    ("oper", OPS[rng.below(OPS.len())].to_string()),
                    ("level", rng.below(12).to_string()),
                ]
                .into_iter()
                .collect()
            })
            .collect();
        let mut queries: Vec<ActionQuery<'_>> = Vec::with_capacity(n);
        for i in 0..n {
            if i > 0 && rng.below(4) == 0 {
                queries.push(queries[i - 1]);
                continue;
            }
            let mut q = ActionQuery::principal(PRINCIPALS[rng.below(PRINCIPALS.len())])
                .attributes(&attr_sets[i]);
            if rng.below(3) == 0 {
                q = q.extra(&extra);
            }
            if rng.below(4) == 0 {
                q = q.interpreted();
            }
            queries.push(q);
        }
        let batch = session.evaluate_batch(&queries);
        assert_eq!(batch.len(), queries.len());
        for (i, q) in queries.iter().enumerate() {
            let single = session.evaluate(q);
            assert_eq!(
                batch[i].value, single.value,
                "case {case} item {i}: batch verdict diverged over:\n{text}"
            );
            assert_eq!(
                batch[i].value_name, single.value_name,
                "case {case} item {i}: value name diverged"
            );
            checked += 1;
        }
    }
    assert!(checked > 200, "generator degenerated: only {checked} cases");
}

// ---- Memoized signature verdicts vs revocation ----

#[test]
fn memoized_signature_verdict_does_not_defeat_revocation() {
    let kp = KeyPair::from_label("hotpath-revocation");
    let key_text = kp.public().to_text();
    let mut session = KeyNoteSession::new();
    session
        .add_policy(&format!("Authorizer: POLICY\nLicensees: \"{key_text}\"\n"))
        .unwrap();
    let mut signed = Assertion::new(
        hetsec_keynote::Principal::key(&key_text),
        hetsec_keynote::LicenseeExpr::Principal("Kworker".to_string()),
    );
    sign_assertion(&mut signed, &kp).unwrap();
    let attrs = ActionAttributes::new();
    let extra = std::slice::from_ref(&signed);

    // Warm the verdict memo, then revoke the signer: both the compiled
    // and the interpreted path must flip to denied, while the memoized
    // verdict keeps being served (no new misses).
    assert!(session.evaluate(&ActionQuery::principals(&["Kworker"]).attributes(&attrs).extra(extra)).is_authorized());
    assert!(session.evaluate(&ActionQuery::principals(&["Kworker"]).attributes(&attrs).extra(extra)).is_authorized());
    let warm = session.verify_cache_stats();
    assert!(warm.hits >= 1);
    session.revoke_key(&key_text);
    assert!(!session.evaluate(&ActionQuery::principals(&["Kworker"]).attributes(&attrs).extra(extra)).is_authorized());
    assert!(!session.evaluate(&ActionQuery::principals(&["Kworker"]).attributes(&attrs).extra(extra).interpreted()).is_authorized());
    assert_eq!(session.verify_cache_stats().misses, warm.misses);

    // Reinstating restores authority — with the verdict still memoized.
    session.reinstate_key(&key_text);
    assert!(session.evaluate(&ActionQuery::principals(&["Kworker"]).attributes(&attrs).extra(extra)).is_authorized());
    assert_eq!(session.verify_cache_stats().misses, warm.misses);
}

//! Property suite for the batch-first decision path: `decide_batch`
//! must be observationally identical to calling `decide` once per
//! request, for any batch order, with request-presented credentials in
//! the mix, and across epoch bumps (revocation / reinstatement) in the
//! middle of the request stream.
//!
//! Inputs come from the same seeded splitmix64 stream as
//! `tests/properties.rs`, so every failure reproduces from the case
//! index in the assertion message. The oracle is a second trust manager
//! built from the same policy text whose cache never sees the batches —
//! each of its verdicts is an independent single-shot `decide`.

use hetsec_keynote::ast::Assertion;
use hetsec_keynote::parser::parse_assertions;
use hetsec_keynote::ActionAttributes;
use hetsec_suite::Rng;
use hetsec_webcom::{AuthzRequest, TrustManager};

const PRINCIPALS: [&str; 6] = ["Ka", "Kb", "Kc", "Kd", "Ke", "Kf"];
const OPS: [&str; 4] = ["read", "write", "grant", "delete"];

/// A random delegation store over a small principal pool, mirroring the
/// generator in `tests/hotpath_equivalence.rs` so chains connect.
fn random_store_text(rng: &mut Rng) -> String {
    let mut text = String::new();
    let n_assertions = rng.below(6) + 2;
    for i in 0..n_assertions {
        let authorizer = if i == 0 || rng.below(3) == 0 {
            "POLICY".to_string()
        } else {
            format!("\"{}\"", PRINCIPALS[rng.below(PRINCIPALS.len())])
        };
        let licensees = match rng.below(3) {
            0 => format!("\"{}\"", PRINCIPALS[rng.below(PRINCIPALS.len())]),
            1 => format!(
                "\"{}\" || \"{}\"",
                PRINCIPALS[rng.below(PRINCIPALS.len())],
                PRINCIPALS[rng.below(PRINCIPALS.len())]
            ),
            _ => format!(
                "\"{}\" && \"{}\"",
                PRINCIPALS[rng.below(PRINCIPALS.len())],
                PRINCIPALS[rng.below(PRINCIPALS.len())]
            ),
        };
        let conditions = match rng.below(4) {
            0 => String::new(),
            1 => format!("Conditions: oper == \"{}\";\n", OPS[rng.below(OPS.len())]),
            2 => format!(
                "Conditions: oper == \"{}\" || level > {};\n",
                OPS[rng.below(OPS.len())],
                rng.below(9)
            ),
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

/// One request, described before the borrowed `AuthzRequest` is built
/// so the descriptor list can be shuffled freely.
#[derive(Clone, Copy)]
struct Desc {
    who: &'static str,
    attrs: usize,
    with_extra: bool,
}

#[test]
fn shuffled_batches_match_per_request_decides() {
    let mut rng = Rng::new(0x6261_7463_6865_7101);
    let mut checked = 0usize;
    let mut granted = 0usize;
    for case in 0..40 {
        let text = random_store_text(&mut rng);
        let subject = TrustManager::permissive();
        if subject.add_policy(&text).is_err() {
            continue;
        }
        let oracle = TrustManager::permissive();
        oracle.add_policy(&text).unwrap();

        // A request-scoped delegation from a store principal to Kx;
        // requests sometimes come from Kx so the credential matters.
        let extra: Vec<Assertion> = parse_assertions(&format!(
            "Authorizer: \"{}\"\nLicensees: \"Kx\"\n",
            PRINCIPALS[rng.below(3)]
        ))
        .unwrap();

        // Three rounds over the same managers, with an epoch bump
        // (revocation or reinstatement, applied to subject and oracle
        // alike) in the middle of the request stream.
        for round in 0..3 {
            if round > 0 {
                let key = PRINCIPALS[rng.below(PRINCIPALS.len())];
                if rng.below(2) == 0 {
                    subject.revoke_key(key);
                    oracle.revoke_key(key);
                } else {
                    subject.reinstate_key(key);
                    oracle.reinstate_key(key);
                }
            }
            let n = rng.below(10) + 3;
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
            let mut descs: Vec<Desc> = (0..n)
                .map(|i| Desc {
                    who: if rng.below(4) == 0 {
                        "Kx"
                    } else {
                        PRINCIPALS[rng.below(PRINCIPALS.len())]
                    },
                    attrs: i,
                    with_extra: rng.below(3) == 0,
                })
                .collect();
            // Fisher–Yates shuffle: batch order is adversarial, the
            // per-request verdicts must not depend on it.
            for i in (1..descs.len()).rev() {
                descs.swap(i, rng.below(i + 1));
            }
            let requests: Vec<AuthzRequest<'_>> = descs
                .iter()
                .map(|d| {
                    let mut r =
                        AuthzRequest::principal(d.who).attributes_ref(&attr_sets[d.attrs]);
                    if d.with_extra {
                        r = r.credentials(&extra);
                    }
                    r
                })
                .collect();
            let got = subject.decide_batch(&requests);
            assert_eq!(got.len(), requests.len());
            for (i, r) in requests.iter().enumerate() {
                let want = oracle.decide(r);
                assert_eq!(
                    got[i], want,
                    "case {case} round {round} item {i} ({}): batch verdict \
                     diverged from single-shot over:\n{text}",
                    descs[i].who
                );
                // The subject's own cached single-shot path must agree
                // with what the batch just decided (and inserted).
                assert_eq!(
                    subject.decide(r),
                    want,
                    "case {case} round {round} item {i}: post-batch decide disagreed"
                );
                checked += 1;
                granted += usize::from(want);
            }
        }
    }
    assert!(checked > 300, "generator degenerated: only {checked} cases");
    assert!(granted > 0, "degenerate stream: no request was ever granted");
}

#[test]
fn concurrent_epoch_bumps_do_not_corrupt_batch_results() {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // Revoking and reinstating a key no store mentions bumps the epoch
    // without changing any verdict, so every batch decided while the
    // bump thread spins must still produce the oracle answers.
    let tm = Arc::new(TrustManager::permissive());
    tm.add_policy(
        "Authorizer: POLICY\nLicensees: \"Kbob\"\n\
         Conditions: app_domain==\"SalariesDB\" && (oper==\"read\" || oper==\"write\");\n",
    )
    .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let bumper = {
        let tm = Arc::clone(&tm);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                tm.revoke_key("Kunrelated");
                tm.reinstate_key("Kunrelated");
            }
        })
    };
    let read: ActionAttributes = [("app_domain", "SalariesDB"), ("oper", "read")]
        .into_iter()
        .collect();
    let drop_attrs: ActionAttributes = [("app_domain", "SalariesDB"), ("oper", "drop")]
        .into_iter()
        .collect();
    for _ in 0..200 {
        let requests = [
            AuthzRequest::principal("Kbob").attributes_ref(&read),
            AuthzRequest::principal("Kbob").attributes_ref(&drop_attrs),
            AuthzRequest::principal("Kmallory").attributes_ref(&read),
            AuthzRequest::principal("Kbob").attributes_ref(&read),
        ];
        assert_eq!(tm.decide_batch(&requests), vec![true, false, false, true]);
    }
    stop.store(true, Ordering::Relaxed);
    bumper.join().unwrap();
}

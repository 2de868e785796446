//! Integration tests for the incremental analysis engine and the
//! semantic verdict diff: the incremental engine must be
//! *indistinguishable* from a cold `analyze` run after any edit
//! sequence, and `diff_verdicts` must witness exactly the verdict
//! flips an edit causes.
//!
//! The random tests use the same deterministic splitmix64 harness as
//! `tests/properties.rs`, so every failure reproduces from the seed.

use hetsec_analyze::{
    analyze_with_directory, diff_verdicts, AnalysisOptions, IncrementalAnalyzer, StoreEdit,
};
use hetsec_keynote::ast::Assertion;
use hetsec_keynote::parser::parse_assertions;
use hetsec_rbac::fixtures::salaries_policy;
use hetsec_rbac::RbacPolicy;
use hetsec_suite::Rng;
use hetsec_translate::{encode_policy, SymbolicDirectory};
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rbac_fixture(name: &str) -> RbacPolicy {
    serde_json::from_str(&fixture(name)).expect("fixture policy parses")
}

/// The CLI's defect-lint options, minus the line spans (the engine
/// analyzes parsed assertions, so both sides run span-free).
fn defect_options() -> AnalysisOptions {
    let mut opts = AnalysisOptions {
        rbac: Some(rbac_fixture("defects.rbac.json")),
        now: Some(200.0),
        ..Default::default()
    };
    opts.revoked.insert("Kdave".to_string());
    opts.known_attributes
        .extend(hetsec_webcom::ADAPTER_ATTRIBUTES.iter().map(|s| s.to_string()));
    opts
}

/// A pool of credential-shaped assertions to draw random edits from:
/// memberships, delegations, oddballs (tautologies, unknown
/// attributes, expired windows) — enough variety to drive every
/// analysis pass.
fn assertion_pool() -> Vec<Assertion> {
    let mut text = String::new();
    for d in 0..3 {
        for r in 0..2 {
            text.push_str(&format!(
                "KeyNote-Version: 2\nAuthorizer: \"KWebCom\"\nLicensees: \"Kpool{d}{r}\"\n\
                 Conditions: (app_domain == \"WebCom\" && (Domain == \"D{d}\" && Role == \"R{r}\"));\n\n"
            ));
        }
    }
    text.push_str(
        "KeyNote-Version: 2\nAuthorizer: \"Kpool00\"\nLicensees: \"Ksub\"\n\
         Conditions: app_domain == \"WebCom\";\n\n\
         KeyNote-Version: 2\nAuthorizer: \"Ksub\"\nLicensees: \"Kpool00\"\n\
         Conditions: app_domain == \"WebCom\";\n\n\
         KeyNote-Version: 2\nAuthorizer: \"KWebCom\"\nLicensees: \"Kodd1\"\n\
         Conditions: (app_domain == \"WebCom\" || app_domain != \"WebCom\");\n\n\
         KeyNote-Version: 2\nAuthorizer: \"KWebCom\"\nLicensees: \"Kodd2\"\n\
         Conditions: (clearance == \"high\");\n\n\
         KeyNote-Version: 2\nAuthorizer: \"KWebCom\"\nLicensees: \"Kodd3\"\n\
         Conditions: (app_domain == \"WebCom\" && now < 100);\n\n\
         KeyNote-Version: 2\nAuthorizer: \"Korphan\"\nLicensees: \"Kpool01\"\n\
         Conditions: app_domain == \"WebCom\";\n\n\
         KeyNote-Version: 2\nAuthorizer: \"KWebCom\"\nLicensees: \"ghost\"\n\
         Conditions: app_domain == \"WebCom\";\n",
    );
    parse_assertions(&text).expect("pool parses")
}

/// The core equivalence property: after EVERY step of a random edit
/// sequence, the warm incremental engine's report is byte-identical to
/// a cold `analyze` of the same assertion list.
#[test]
fn random_edit_sequences_match_cold_analysis_exactly() {
    let dir = SymbolicDirectory::default();
    let pool = assertion_pool();
    for seed in 0..6u64 {
        let mut rng = Rng::new(0x5eed_1ac0 ^ seed);
        // Start from the encoded salaries policy -- a store every pass
        // has opinions about once we mutate it.
        let policy = salaries_policy();
        let mut assertions = encode_policy(&policy, "KWebCom", &dir);
        let opts = AnalysisOptions {
            rbac: Some(policy),
            now: Some(200.0),
            ..Default::default()
        };
        let mut engine = IncrementalAnalyzer::new(assertions.clone(), opts.clone());
        let (mut total_relinted, mut total_cached) = (0usize, 0usize);
        for step in 0..24 {
            let edit = match rng.below(3) {
                0 => StoreEdit::Add(pool[rng.below(pool.len())].clone()),
                1 if !assertions.is_empty() => StoreEdit::Remove(rng.below(assertions.len())),
                _ if !assertions.is_empty() => StoreEdit::Modify(
                    rng.below(assertions.len()),
                    pool[rng.below(pool.len())].clone(),
                ),
                _ => StoreEdit::Add(pool[rng.below(pool.len())].clone()),
            };
            // Mirror the edit on the plain assertion list.
            match &edit {
                StoreEdit::Add(a) => assertions.push(a.clone()),
                StoreEdit::Remove(i) => {
                    assertions.remove(*i);
                }
                StoreEdit::Modify(i, a) => assertions[*i] = a.clone(),
            }
            engine.apply(edit);
            let warm = engine.analyze(&dir).to_json();
            let cold = analyze_with_directory(&assertions, &opts, &dir).to_json();
            assert_eq!(
                warm, cold,
                "seed {seed} step {step}: incremental report diverged from cold analysis"
            );
            total_relinted += engine.stats().assertions_relinted;
            total_cached += engine.stats().assertions_cached;
        }
        // The engine must actually be serving from its caches, not
        // re-deriving the world each step: across the whole sequence,
        // cache hits must dominate re-lints.
        assert!(
            total_cached > total_relinted,
            "seed {seed}: cache never took over: {total_cached} hits vs {total_relinted} relints"
        );
    }
}

#[test]
fn incremental_defect_fixture_matches_cold_run() {
    let dir = SymbolicDirectory::default();
    let assertions = parse_assertions(&fixture("defects.kn")).expect("fixture parses");
    let opts = defect_options();
    let cold = analyze_with_directory(&assertions, &opts, &dir).to_json();
    let mut engine = IncrementalAnalyzer::new(assertions, opts);
    assert_eq!(engine.analyze(&dir).to_json(), cold);
    // A second run with no edits is a pure cache replay.
    assert_eq!(engine.analyze(&dir).to_json(), cold);
    let stats = engine.stats();
    assert_eq!(stats.assertions_relinted, 0, "no edit, no relint: {stats:?}");
    assert_eq!(stats.components_recomputed, 0, "no edit, no graph work: {stats:?}");
}

// ---- semantic verdict diff ----

#[test]
fn semdiff_golden_fixture_reproduces() {
    let old = parse_assertions(&fixture("defects.kn")).expect("fixture parses");
    let new = parse_assertions(&fixture("defects_v2.kn")).expect("fixture parses");
    let mut opts = AnalysisOptions {
        now: Some(200.0),
        ..Default::default()
    };
    opts.revoked.insert("Kdave".to_string());
    opts.known_attributes
        .extend(hetsec_webcom::ADAPTER_ATTRIBUTES.iter().map(|s| s.to_string()));
    let diff = diff_verdicts(&old, &new, &opts);
    assert_eq!(
        diff.report.to_json().trim(),
        fixture("semdiff.golden.json").trim(),
        "semantic diff drifted from fixtures/semdiff.golden.json; regenerate it if intentional"
    );
    // The fixture edit grants Trent Sales/Manager: a widening witness
    // with a concrete flipped request must come back.
    assert!(diff
        .witnesses
        .iter()
        .any(|w| w.principal == "Ktrent" && !w.before && w.after));
}

#[test]
fn every_witness_is_a_real_verdict_flip() {
    // Soundness: re-evaluate each reported witness through both
    // fixpoints independently and require the claimed flip.
    use hetsec_keynote::compiled::{query_compiled, CompiledStore};
    use hetsec_keynote::Query;
    let old = parse_assertions(&fixture("defects.kn")).expect("fixture parses");
    let new = parse_assertions(&fixture("defects_v2.kn")).expect("fixture parses");
    let mut opts = AnalysisOptions {
        now: Some(200.0),
        ..Default::default()
    };
    opts.revoked.insert("Kdave".to_string());
    let diff = diff_verdicts(&old, &new, &opts);
    assert!(!diff.witnesses.is_empty());
    let mut old_store = CompiledStore::default();
    old.iter().for_each(|a| {
        old_store.add(a);
    });
    let mut new_store = CompiledStore::default();
    new.iter().for_each(|a| {
        new_store.add(a);
    });
    for w in &diff.witnesses {
        let attrs = w
            .attributes
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let mut query = Query::new(vec![w.principal.clone()], attrs);
        // Revocations are part of the diff environment; mirror them.
        query.revoked = opts.revoked.clone();
        let before = query_compiled(&old_store, &[], &query).is_authorized();
        let after = query_compiled(&new_store, &[], &query).is_authorized();
        assert_eq!(
            (before, after),
            (w.before, w.after),
            "witness {w:?} does not reproduce"
        );
    }
}

#[test]
fn identical_stores_diff_clean() {
    let a = parse_assertions(&fixture("defects.kn")).expect("fixture parses");
    let diff = diff_verdicts(&a, &a, &AnalysisOptions::default());
    assert!(diff.witnesses.is_empty());
    assert!(diff.report.is_clean());
}

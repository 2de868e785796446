//! Integration tests for the `hetsec-analyze` static analyzer: the
//! committed fixtures (clean stores stay clean, the seeded-defect store
//! trips every lint code and matches its golden JSON), the
//! encode/decode escalation oracle over the RBAC fixture workloads, and
//! property-style tests over random delegation DAGs.
//!
//! The random tests use the same deterministic splitmix64 harness as
//! `tests/properties.rs`, so every failure reproduces from the seed.

use hetsec_analyze::{analyze_text, analyze_with_directory, AnalysisOptions, LintCode};
use hetsec_keynote::compiled::{query_compiled, CompiledStore};
use hetsec_keynote::parser::parse_assertions;
use hetsec_keynote::Query;
use hetsec_rbac::fixtures::{salaries_policy, synthetic_policy};
use hetsec_rbac::RbacPolicy;
use hetsec_translate::{decode_policy, encode_policy, SymbolicDirectory, APP_DOMAIN};
use hetsec_suite::Rng;
use std::collections::BTreeSet;
use std::path::PathBuf;

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rbac_fixture(name: &str) -> RbacPolicy {
    serde_json::from_str(&fixture(name)).expect("fixture policy parses")
}

/// The CLI's lint options for the defect fixture run, mirrored exactly
/// (the golden file was produced through the CLI).
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

#[test]
fn clean_figure_fixture_is_lint_clean() {
    let opts = AnalysisOptions {
        rbac: Some(rbac_fixture("figures_clean.rbac.json")),
        ..Default::default()
    };
    let report = analyze_text(&fixture("figures_clean.kn"), &opts).expect("fixture parses");
    assert!(report.is_clean(), "expected clean, got:\n{report}");
}

#[test]
fn defect_fixture_trips_every_lint_code() {
    let report = analyze_text(&fixture("defects.kn"), &defect_options()).expect("fixture parses");
    // HS015/HS016 are verdict-diff codes: they compare two stores, so a
    // single-store lint can never produce them (see analyzer_incremental).
    let expected: BTreeSet<&str> = LintCode::ALL
        .iter()
        .filter(|c| !c.is_diff())
        .map(|c| c.as_str())
        .collect();
    assert_eq!(
        report.codes(),
        expected,
        "defect fixture must trip exactly the full single-store code set:\n{report}"
    );
}

#[test]
fn defect_fixture_matches_committed_golden_json() {
    let report = analyze_text(&fixture("defects.kn"), &defect_options()).expect("fixture parses");
    let golden = fixture("defects.golden.json");
    assert_eq!(
        report.to_json().trim(),
        golden.trim(),
        "lint output drifted from fixtures/defects.golden.json; regenerate it if intentional"
    );
}

#[test]
fn analyzer_default_vocabulary_covers_webcom_adapters() {
    // The analyzer must not flag attributes the shipped adapters set;
    // keeping this a test (rather than a webcom dependency in analyze)
    // lets third-party adapters extend the vocabulary at the CLI level.
    let defaults: BTreeSet<&str> = hetsec_analyze::DEFAULT_KNOWN_ATTRIBUTES.iter().copied().collect();
    for attr in hetsec_webcom::ADAPTER_ATTRIBUTES {
        assert!(defaults.contains(attr), "analyzer default vocabulary misses {attr:?}");
    }
}

// ---- encode/decode escalation oracle ----

fn rbac_workloads() -> Vec<RbacPolicy> {
    vec![
        salaries_policy(),
        synthetic_policy(2, 2, 2, 1),
        synthetic_policy(3, 2, 1, 2),
        synthetic_policy(1, 4, 3, 2),
    ]
}

#[test]
fn encoded_workloads_have_zero_escalation_diff() {
    for (i, policy) in rbac_workloads().into_iter().enumerate() {
        let dir = SymbolicDirectory::default();
        let assertions = encode_policy(&policy, "KWebCom", &dir);
        let opts = AnalysisOptions {
            rbac: Some(policy),
            ..Default::default()
        };
        let report = analyze_with_directory(&assertions, &opts, &dir);
        assert!(
            report.is_clean(),
            "workload {i}: faithful encoding must analyze clean, got:\n{report}"
        );
    }
}

#[test]
fn decode_report_roundtrips_through_the_analyzer() {
    // encode -> decode -> analyze with the *decoded* policy as the RBAC
    // side: the decoded view must agree with the store it came from.
    for (i, policy) in rbac_workloads().into_iter().enumerate() {
        let dir = SymbolicDirectory::default();
        let assertions = encode_policy(&policy, "KWebCom", &dir);
        let decoded = decode_policy(&assertions, "KWebCom", &dir);
        assert!(decoded.skipped.is_empty(), "workload {i}: {:?}", decoded.skipped);
        let opts = AnalysisOptions {
            rbac: Some(decoded.policy),
            ..Default::default()
        };
        let report = analyze_with_directory(&assertions, &opts, &dir);
        let escalation_codes: Vec<_> = report
            .findings
            .iter()
            .filter(|f| matches!(f.code, LintCode::Escalation | LintCode::MissingGrant))
            .collect();
        assert!(
            escalation_codes.is_empty(),
            "workload {i}: decode drifted from the store:\n{report}"
        );
    }
}

#[test]
fn escalation_findings_are_deterministic_across_runs() {
    // The escalation pass sweeps users × tuples; findings must come
    // back in the same order on every run. Run the full defect lint repeatedly and require
    // byte-identical reports.
    let text = fixture("defects.kn");
    let opts = defect_options();
    let baseline = format!("{}", analyze_text(&text, &opts).expect("fixture parses"));
    assert!(baseline.contains("HS004"), "sweep must produce escalation findings");
    for run in 1..4 {
        let report = format!("{}", analyze_text(&text, &opts).expect("fixture parses"));
        assert_eq!(baseline, report, "run {run} reordered findings");
    }
}

// ---- random delegation DAGs (seeded `hetsec_suite::Rng`) ----

fn key(i: usize) -> String {
    format!("Knode{i}")
}

fn assertion(authorizer: &str, licensee: &str) -> String {
    format!(
        "Authorizer: {authorizer}\nLicensees: \"{licensee}\"\nConditions: app_domain == \"WebCom\";\n",
    )
}

/// A random delegation DAG: POLICY licenses node 0; every later node
/// gets one edge from a uniformly-chosen earlier node (its "parent")
/// plus a few extra forward edges. Returns (assertion text, parent of
/// each node).
fn random_dag(rng: &mut Rng, nodes: usize) -> (String, Vec<usize>) {
    let mut text = assertion("POLICY", &key(0));
    let mut parents = vec![0usize];
    for i in 1..nodes {
        let parent = rng.below(i);
        parents.push(parent);
        text.push('\n');
        text.push_str(&assertion(&format!("\"{}\"", key(parent)), &key(i)));
        if rng.below(3) == 0 {
            let extra = rng.below(i);
            text.push('\n');
            text.push_str(&assertion(&format!("\"{}\"", key(extra)), &key(i)));
        }
    }
    (text, parents)
}

fn leaf_is_authorized(text: &str, leaf: usize) -> bool {
    let assertions = parse_assertions(text).expect("generated store parses");
    let mut store = CompiledStore::default();
    for a in &assertions {
        store.add(a);
    }
    let attrs = [("app_domain", APP_DOMAIN)].into_iter().collect();
    let query = Query::new(vec![key(leaf)], attrs);
    query_compiled(&store, &[], &query).is_authorized()
}

#[test]
fn cycle_free_random_chains_are_accepted_by_the_fixpoint() {
    let mut rng = Rng::new(0x5eed_0001);
    for case in 0..40 {
        let nodes = 2 + rng.below(10);
        let (text, _) = random_dag(&mut rng, nodes);
        let report = analyze_text(&text, &AnalysisOptions::default()).expect("parses");
        assert!(
            !report.codes().contains("HS001"),
            "case {case}: generated DAG is acyclic but analyzer saw a cycle:\n{text}"
        );
        assert!(
            !report.codes().contains("HS002"),
            "case {case}: every authorizer is chained to POLICY:\n{text}"
        );
        // The analyzer's cycle-free, fully-reachable verdict implies the
        // runtime fixpoint grants the leaf.
        assert!(
            leaf_is_authorized(&text, nodes - 1),
            "case {case}: fixpoint rejected a store the analyzer called well-formed:\n{text}"
        );
    }
}

#[test]
fn seeded_back_edges_are_reported_as_cycles() {
    let mut rng = Rng::new(0x5eed_0002);
    for case in 0..40 {
        let nodes = 3 + rng.below(8);
        let (mut text, parents) = random_dag(&mut rng, nodes);
        // Walk the parent chain of the last node and close a loop back
        // into it: ancestor -> ... -> node -> ancestor.
        let node = nodes - 1;
        let mut ancestor = parents[node];
        for _ in 0..rng.below(3) {
            if ancestor == 0 {
                break;
            }
            ancestor = parents[ancestor];
        }
        text.push('\n');
        text.push_str(&assertion(&format!("\"{}\"", key(node)), &key(ancestor)));
        let report = analyze_text(&text, &AnalysisOptions::default()).expect("parses");
        assert!(
            report.codes().contains("HS001"),
            "case {case}: seeded back-edge {node}->{ancestor} not reported:\n{text}"
        );
    }
}

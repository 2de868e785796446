//! fig5/fig6 — "WebCom's Policy for the Salaries Database" and the
//! Figure 6 membership credential.
//!
//! Measures Policy Comprehension (§4.2): encoding `HasPermission` tables
//! into the Figure 5 policy assertion and `UserRole` rows into Figure 6
//! credentials, plus the inverse (Policy Configuration, §4.1) decode,
//! per policy and as sequential sweeps over 32 policies.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetsec_rbac::fixtures::{salaries_policy, synthetic_policy};
use hetsec_translate::{decode_policy, encode_policy, SymbolicDirectory};
use std::hint::black_box;

fn bench_fig5(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5_encode");
    group.sample_size(20);
    let dir = SymbolicDirectory::default();

    // The exact Figure 5/6 artefact: the salaries policy.
    let fig1 = salaries_policy();
    group.bench_function("encode_figure1", |b| {
        b.iter(|| black_box(encode_policy(&fig1, "KWebCom", &dir)))
    });
    let fig1_encoded = encode_policy(&fig1, "KWebCom", &dir);
    group.bench_function("decode_figure1", |b| {
        b.iter(|| black_box(decode_policy(&fig1_encoded, "KWebCom", &dir)))
    });

    // Scaling: encode throughput vs number of HasPermission rows.
    for scale in [1usize, 4, 16] {
        let policy = synthetic_policy(scale, 4, 3, 4);
        let rows = (policy.grant_count() + policy.assignment_count()) as u64;
        group.throughput(Throughput::Elements(rows));
        group.bench_with_input(BenchmarkId::new("encode_rows", rows), &policy, |b, p| {
            b.iter(|| black_box(encode_policy(p, "KWebCom", &dir)))
        });
        let encoded = encode_policy(&policy, "KWebCom", &dir);
        group.bench_with_input(BenchmarkId::new("decode_rows", rows), &encoded, |b, e| {
            b.iter(|| black_box(decode_policy(e, "KWebCom", &dir)))
        });
    }

    // Batch sweeps: one policy after another over 32 policies.
    let policies: Vec<_> = (0..32).map(|_| synthetic_policy(2, 4, 3, 4)).collect();
    group.bench_function("batch32_serial", |b| {
        b.iter(|| {
            let out: Vec<_> = policies
                .iter()
                .map(|p| encode_policy(p, "KWebCom", &dir))
                .collect();
            black_box(out)
        })
    });
    let encoded_sets: Vec<_> = policies
        .iter()
        .map(|p| encode_policy(p, "KWebCom", &dir))
        .collect();
    group.bench_function("batch32_decode_serial", |b| {
        b.iter(|| {
            let out: Vec<_> = encoded_sets
                .iter()
                .map(|e| decode_policy(e, "KWebCom", &dir))
                .collect();
            black_box(out)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig5);
criterion_main!(benches);

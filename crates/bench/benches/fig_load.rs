//! fig_load — the sharded-fabric load harness (PR 8).
//!
//! Drives the closed-loop generator in `hetsec_webcom::load` across
//! the fabric shapes the tentpole claims matter, then records each
//! run's measurements as synthetic series (via `iter_custom`, whose
//! returned duration encodes the value exactly):
//!
//! * `fig_load/throughput/<series>` — completed ops per second;
//! * `fig_load/p50|p99|p999/<series>` — dispatch-latency quantiles in
//!   nanoseconds, from the masters' log-bucketed histograms;
//!
//! where `<series>` is `mux_shardsN` for N in {1, 2, 4}. The scaling
//! claim reads straight off the series: mux throughput grows 1 → 2 → 4
//! shards, at ≥ 100k synthetic principals.
//!
//! The host is single-core, so every win here is latency hiding: the
//! synthetic executor sleeps a fixed service time per op, and
//! throughput measures how much of that sleeping the transport and
//! dispatch layers overlap.

use criterion::{criterion_group, criterion_main, Criterion};
use hetsec_webcom::{run_load_with_stack, synthetic_stack, LoadConfig, LoadReport};
use std::time::Duration;

fn smoke_mode() -> bool {
    std::env::args().any(|a| a == "--test") || std::env::var_os("BENCH_SMOKE").is_some()
}

fn series_label(r: &LoadReport) -> String {
    format!("mux_shards{}", r.shards)
}

fn record(group: &mut criterion::BenchmarkGroup<'_>, id: String, value: f64) {
    group.bench_function(id, |b| {
        b.iter_custom(|iters| Duration::from_nanos((value * iters as f64).round() as u64))
    });
}

fn bench_load(c: &mut Criterion) {
    let smoke = smoke_mode();
    let principals = if smoke { 500 } else { 100_000 };
    let stack = synthetic_stack(principals);
    let mut reports = Vec::new();
    for shards in [1usize, 2, 4] {
        let cfg = if smoke {
            LoadConfig {
                principals,
                ops: 24 * shards,
                shards,
                window: 8,
                callers: 2,
                pipeline: 4,
                service_time: Duration::from_micros(100),
                ..LoadConfig::default()
            }
        } else {
            LoadConfig {
                principals,
                // Closed-loop: size each run for roughly similar wall
                // time across shard counts.
                ops: 1_000 * shards,
                shards,
                window: 32,
                callers: 4,
                pipeline: 8,
                service_time: Duration::from_millis(2),
                ..LoadConfig::default()
            }
        };
        let report = run_load_with_stack(&cfg, &stack);
        assert_eq!(
            report.failed, 0,
            "load run {} dropped ops: {report:?}",
            series_label(&report)
        );
        reports.push(report);
    }
    let mut group = c.benchmark_group("fig_load");
    group.measurement_time(Duration::from_millis(10));
    for r in &reports {
        let label = series_label(r);
        record(&mut group, format!("throughput/{label}"), r.throughput);
        record(
            &mut group,
            format!("p50/{label}"),
            r.latency.p50().as_nanos() as f64,
        );
        record(
            &mut group,
            format!("p99/{label}"),
            r.latency.p99().as_nanos() as f64,
        );
        record(
            &mut group,
            format!("p999/{label}"),
            r.latency.p999().as_nanos() as f64,
        );
    }
    group.finish();
}

criterion_group!(benches, bench_load);
criterion_main!(benches);

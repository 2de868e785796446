#!/usr/bin/env bash
# Runs the headline criterion benches and emits machine-readable
# summaries (BENCH_fig2.json, BENCH_fig3.json, BENCH_load.json,
# BENCH_analyze.json) at the repo root, so the perf trajectory can be
# tracked across commits.
#
# Usage: ./scripts/bench.sh            full measured run
#        ./scripts/bench.sh --smoke    correctness-only pass (no JSON),
#                                      used by verify.sh so the benches
#                                      cannot bitrot
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "--smoke" ]]; then
    echo "== bench smoke: every bench target, single-iteration =="
    cargo bench -q -- --test
    echo "bench.sh: smoke pass complete"
    exit 0
fi

for fig in fig2_query_latency fig3_sched_throughput fig_load fig_analyze; do
    case "${fig}" in
        fig_load)    short="load" ;;
        fig_analyze) short="analyze" ;;
        *)           short="${fig%%_*}" ;;
    esac
    out="BENCH_${short}.json"
    echo "== bench: ${fig} -> ${out} =="
    # Absolute path: cargo runs bench binaries from the package dir.
    CRITERION_JSON="${PWD}/${out}" cargo bench -q --bench "${fig}"
done

# The fig2 summary must carry the batch-first decision series alongside
# the single-shot ones — the batch path's perf claim is only checkable
# if every batch size lands in the JSON.
for series in decision_batched_b1 decision_batched_b16 decision_batched_b256; do
    grep -q "\"id\": \"fig2_query_latency/${series}\"" BENCH_fig2.json \
        || { echo "bench.sh: BENCH_fig2.json is missing the ${series} series"; exit 1; }
done

# The fig2 summary must also carry the verdict-stamp series: the
# stamped-re-presentation claim (>= 5x cheaper than cold verification,
# asserted inside the bench binary) is only reviewable if all three
# sides land in the JSON.
for series in stamp_cold_verify stamp_represent stamp_memoized; do
    grep -q "\"id\": \"fig2_query_latency/${series}\"" BENCH_fig2.json \
        || { echo "bench.sh: BENCH_fig2.json is missing the ${series} series"; exit 1; }
done

# The load summary must carry throughput and latency-quantile series
# for every fabric shape the scaling claim compares: mux at 1/2/4
# shards.
for shape in mux_shards1 mux_shards2 mux_shards4; do
    for metric in throughput p50 p99 p999; do
        grep -q "\"id\": \"fig_load/${metric}/${shape}\"" BENCH_load.json \
            || { echo "bench.sh: BENCH_load.json is missing fig_load/${metric}/${shape}"; exit 1; }
    done
done

# The analyze summary must carry the cold / incremental / gate series
# at every store size the incremental-speedup claim compares (the
# >= 10x bar itself is asserted inside the bench binary).
for size in 100 1000 10000; do
    for series in cold incremental gate; do
        grep -q "\"id\": \"fig_analyze/${series}/n${size}\"" BENCH_analyze.json \
            || { echo "bench.sh: BENCH_analyze.json is missing fig_analyze/${series}/n${size}"; exit 1; }
    done
done

echo "bench.sh: wrote BENCH_fig2.json BENCH_fig3.json BENCH_load.json BENCH_analyze.json"

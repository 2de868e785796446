#!/usr/bin/env python3
"""Steadiness check for the fabric benchmark.

Runs the benchmark command from BENCHMARK.json N times per workload, each
run with its own seed, and prints per metric the median and the
inter-quartile spread (Q3 - Q1 as a share of the median, quartiles as
Python's statistics.quantiles(values, n=4) gives them). An end-to-end
metric whose spread exceeds its bound is flagged.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads graph_fanout
    python3 perfbench/steady.py --runs 10 --save a.json
    python3 perfbench/steady.py --runs 10 --compare a.json   # medians vs a.json

Run it from the repository root. Exits 1 when any end-to-end metric other
than setup_s spreads beyond its bound, when a run fails, or (with
--compare) when a median got worse than the saved one by more than its
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} "
                         f"failed={result['failed']}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), (q3 - q1) / median if median else 0.0


def worse(metric, old, new):
    """How much worse `new` is than `old`, as a share of `old`."""
    if old == 0:
        return 0.0
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", help="comma-separated; default all")
    parser.add_argument("--seconds", type=int, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--save", help="write the raw values to this JSON file")
    parser.add_argument("--compare", help="compare medians with a file from --save")
    opts = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts.seconds or bench["run_seconds"]
    names = opts.workloads.split(",") if opts.workloads else [w["name"] for w in bench["workloads"]]
    metrics = {m["name"]: m for m in bench["end_to_end" if opts.trace == 0 else "per_layer"]}
    previous = json.loads(Path(opts.compare).read_text()) if opts.compare else {}

    raw, bad = {}, []
    for workload in names:
        runs = [run_once(bench["command"], workload, opts.seed_base + k, seconds, opts.trace)
                for k in range(opts.runs)]
        raw[workload] = {name: [r[name] for r in runs] for name in metrics}
        print(f"\n{workload}: {opts.runs} runs of {seconds} s, seeds "
              f"{opts.seed_base}..{opts.seed_base + opts.runs - 1}")
        print(f"  {'metric':<32} {'median':>14} {'spread':>8} {'bound':>6}")
        for name, m in metrics.items():
            median, s = spread(raw[workload][name])
            bound = m.get("bound")
            flag = ""
            if bound is not None and s > bound:
                flag = "  SPREAD OVER BOUND" + (" (not checked for setup_s)" if name == "setup_s" else "")
                if name != "setup_s":
                    bad.append(f"{workload}/{name} spread")
            elif bound is not None and s > bound / 3:
                flag = "  spread above a third of the bound"
            if workload in previous and bound is not None:
                old = statistics.median(previous[workload][name])
                w = worse(m, old, median)
                if w > bound:
                    flag += f"  WORSE than saved median by {w:.1%}"
                    bad.append(f"{workload}/{name} drift")
            bound_text = f"{bound:.2f}" if bound is not None else "-"
            print(f"  {name:<32} {median:>14.4f} {s:>8.2%} {bound_text:>6}{flag}")

    if opts.save:
        Path(opts.save).write_text(json.dumps(raw, indent=1))
    if bad:
        print("\nflagged: " + ", ".join(bad))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Fills or refreshes EXPERIMENTS.md tables with measured times parsed
from bench_output.txt (the benches' text output).

Each table sits between paired markers, `<!--FIG1-->` ... `<!--/FIG1-->`;
the text between them is rewritten on every run, so a filled table can
be refreshed and two runs on the same bench output give the same file.

Usage, from the repository root:
    cargo bench -q > bench_output.txt
    scripts/fill_experiments.py
"""
import re
import sys

BENCH_OUT = "bench_output.txt"
EXPERIMENTS = "EXPERIMENTS.md"

MARKERS = {
    "FIG1": "fig1_policy_commission",
    "FIG2": "fig2_query_latency",
    "FIG3": "fig3_sched_throughput",
    "FIG4": "fig4_delegation",
    "FIG5": "fig5_encode",
    "FIG7": "fig7_decentralised",
    "FIG8": "fig8_keycom",
    "FIG9": "fig9_migration",
    "FIG10": "fig10_stack",
    "FIG11": "fig11_interrogate",
    "ABL1": "abl1_similarity",
    "ABL2": "abl2_graph_scaling",
    "ABL3": "abl3_spki_vs_keynote",
}


def parse(path):
    """Returns {group: [(bench_id, mid_time, thrpt or None)]}.

    Reads two layouts: criterion's (`group/bench` on its own line, then
    `time: [lo mid hi]` and `thrpt: [lo mid hi]` lines) and the vendored
    stand-in's one line per bench (`group/bench  time: 7.60 µs
    thrpt: 3684000 elem/s`)."""
    out = {}
    lines = open(path).read().splitlines()
    for i, line in enumerate(lines):
        one = re.match(
            r"^([a-z0-9_]+)/(\S+)\s+time:\s+(\S+ \S+)(?:\s+thrpt:\s+(\S+ \S+))?\s*$", line
        )
        if one:
            out.setdefault(one.group(1), []).append(one.groups()[1:])
            continue
        m = re.match(r"^([a-z0-9_]+)/(\S+)\s*$", line)
        if m and i + 1 < len(lines) and "time:" in lines[i + 1]:
            group, bench = m.group(1), m.group(2)
            tm = re.search(
                r"time:\s*\[\S+ \S+ (\S+ \S+) \S+ \S+\]", lines[i + 1]
            )
            mid = tm.group(1) if tm else "?"
            thr = None
            if i + 2 < len(lines) and "thrpt:" in lines[i + 2]:
                tt = re.search(
                    r"thrpt:\s*\[\S+ \S+ (\S+ \S+) \S+ \S+\]", lines[i + 2]
                )
                thr = tt.group(1) if tt else None
            out.setdefault(group, []).append((bench, mid, thr))
    return out


def table(rows):
    has_thr = any(t for _, _, t in rows)
    if has_thr:
        md = "| benchmark | time (median) | throughput |\n|---|---|---|\n"
        for b, m, t in rows:
            md += f"| `{b}` | {m} | {t or '—'} |\n"
    else:
        md = "| benchmark | time (median) |\n|---|---|\n"
        for b, m, _ in rows:
            md += f"| `{b}` | {m} |\n"
    return md


def main():
    groups = parse(BENCH_OUT)
    text = open(EXPERIMENTS).read()
    filled, missing = [], []
    for marker, group in MARKERS.items():
        pair = re.compile(rf"(<!--{marker}-->\n).*?(<!--/{marker}-->)", re.S)
        if not pair.search(text):
            continue
        rows = groups.get(group)
        if not rows:
            missing.append(group)
            continue
        text = pair.sub(lambda m: m.group(1) + table(rows) + m.group(2), text)
        filled.append(group)
    open(EXPERIMENTS, "w").write(text)
    if missing:
        print(f"WARNING: no data for {missing}", file=sys.stderr)
    print(f"refreshed {len(filled)}/{len(filled) + len(missing)} experiment tables")


if __name__ == "__main__":
    main()

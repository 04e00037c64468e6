#!/usr/bin/env python3
"""Per-layer self time of a traced benchmark run.

Usage: python3 perfbench/summarise.py .bench_build/runs/<run>/spans-<workload>.json ...

Each spans file holds the spans one traced workload recorded (see
trace/.../Spans.scala). For every span name the table gives the number of
spans and calls, total time, self time (duration minus the part its child
spans cover) and self time as a share of the summed root-span time; layers
that run in parallel tasks can exceed 100%.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from benchlib.stats import self_times  # noqa: E402


def format_table(workload, spans):
    rows = self_times(spans)
    roots = sum(s["end_ns"] - s["start_ns"] for s in spans if s["parent"] < 0)
    lines = [f"# self time per layer, {workload} (root spans {roots / 1e6:.1f} ms)",
             f"# {'layer':42s} {'spans':>7s} {'calls':>10s} {'total_ms':>11s} {'self_ms':>11s} {'self%':>6s}"]
    for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_ns"]):
        share = 100.0 * r["self_ns"] / roots if roots else 0.0
        lines.append(f"# {name:42s} {r['spans']:7d} {r['calls']:10d} "
                     f"{r['total_ns'] / 1e6:11.1f} {r['self_ns'] / 1e6:11.1f} {share:6.1f}")
    return "\n".join(lines)


def main(paths):
    if not paths:
        sys.exit(__doc__)
    for p in paths:
        with open(p) as fh:
            print(format_table(os.path.basename(p), json.load(fh)))


if __name__ == "__main__":
    main(sys.argv[1:])

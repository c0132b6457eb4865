#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

Each argument is a directory of result records written by ``run.py`` (a
copy of ``.nlbench/results/`` made after a set of runs). For every workload
and end-to-end metric it prints the median and quartiles of each set and
flags a new median worse than the base by more than the bound in
BENCHMARK.json. Results measured on different backends, Python versions or
core counts are not comparable and are refused.

Usage, from the root of a checkout:

    python3 nlbench/compare.py BASE_DIR NEW_DIR
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SAME = ("backend", "python", "nproc")


def load(directory: str) -> list[dict]:
    records = []
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path) as fh:
            rec = json.load(fh)
        if not (rec["smoke"] or rec["perturb"]):
            records.append(rec)
    return records


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load(d) for d in argv)
    if not base or not new:
        print("error: a directory holds no end-to-end result records", file=sys.stderr)
        return 2
    for key in SAME:
        seen = {r["provenance"][key] for r in base + new}
        if len(seen) > 1:
            print(f"error: results differ in {key} ({sorted(map(str, seen))}); "
                  "refusing to compare", file=sys.stderr)
            return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    sets = [defaultdict(list), defaultdict(list)]
    for side, records in zip(sets, (base, new)):
        for rec in records:
            for name, m in rec["metrics"].items():
                if m["value"] is not None:
                    side[(rec["workload"], name)].append(m["value"])

    worse = 0
    for workload in sorted({r["workload"] for r in base + new}):
        for metric in spec["end_to_end"]:
            key = (workload, metric["name"])
            if not (sets[0][key] and sets[1][key]):
                continue
            b = quartiles(sets[0][key])
            n = quartiles(sets[1][key])
            change = n[1] / b[1] - 1.0
            if metric["better"] == "higher":
                change = -change
            flag = "WORSE" if change > metric["bound"] else ""
            worse += bool(flag)
            print(f"{workload:<9} {metric['name']:<12} base {b[1]:.5g} [{b[0]:.5g}, {b[2]:.5g}] "
                  f"(n={len(sets[0][key])})  new {n[1]:.5g} [{n[0]:.5g}, {n[2]:.5g}] "
                  f"(n={len(sets[1][key])})  worse by {change:+.1%} {flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""Self-test of the benchmark harness on shrunken inputs.

For every workload it checks that

* scaling one checked output by 1 + 1e-9 makes ``failed_frac`` positive and
  the result incorrect;
* an unperturbed smoke run is correct and prints the seven end-to-end
  metrics by name with their units, and its last line carries exactly the
  ``end_to_end`` metrics of BENCHMARK.json;
* a traced smoke run's last line carries exactly the ``per_layer`` metrics.

Usage, from the root of a checkout (about a minute):

    python3 nlbench/selftest.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

PRINTED = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "failed_frac": "fraction",
    "max_rel_err": "1",
    "est_violation_frac": "fraction",
}


def run(workload: str, trace: int, *extra: str) -> tuple[dict[str, tuple[str, str]], dict]:
    """Printed metric lines as {name: (value, unit)} and the final JSON line."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 3 and line.startswith("  "):
            printed[parts[0]] = (parts[1], parts[2])
    return printed, json.loads(lines[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for w in (m["name"] for m in spec["workloads"]):
        printed, result = run(w, 0, "--perturb")
        expect(result["failed"] > 0 and not result["correct"]
               and float(printed["failed_frac"][0]) > 0,
               f"{w}: a 1e-9 perturbation makes failed_frac > 0")

        printed, result = run(w, 0)
        expect(result["failed"] == 0 and result["correct"], f"{w}: smoke run is correct")
        expect(all(printed.get(n, (None, None))[1] == u for n, u in PRINTED.items()),
               f"{w}: prints all seven end-to-end metrics with units")
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == end_to_end, f"{w}: last line has the end_to_end metrics")

        _, result = run(w, 1)
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        expect(got == per_layer and result["failed"] == 0,
               f"{w}: traced last line has the per_layer metrics")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

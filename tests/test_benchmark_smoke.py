"""One short run of each benchmark workload, so that a change which breaks
the benchmark's imports, command-line flags or output checks fails here and
not only when the benchmark is run. Results go under the ignored
``.nlbench/``."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["spectrum", "fourier", "phase"])
def test_workload_runs_and_is_correct(workload):
    proc = subprocess.run(
        [sys.executable, "nlbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True, proc.stdout

"""Shared by the benchmark scripts: the package import, the phase grid, and
the calibration probe (also run in the fresh interpreters of the set-up
samples)."""

from __future__ import annotations

import os
import sys
import time

#: Root of the checkout: the directory that holds ``nlbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

PHASE_ORDER = 1000
PHASE_N = 24
PHASE_WINDOW = (-15.0, 5.0, -10.0, 10.0)  # re_min, re_max, im_min, im_max


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package under src/)."""


def import_package():
    """Import nlspectra from this checkout's src/ and nowhere else."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    try:
        import nlspectra
    except ImportError as exc:
        raise SetupError(f"cannot import nlspectra from {SRC}: {exc}") from exc
    where = os.path.realpath(nlspectra.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise SetupError(f"nlspectra imported from {where}, not from {SRC}")
    return nlspectra


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    # the same arithmetic as the CLI's grid, so stored points match exactly
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def phase_axes() -> tuple[list[float], list[float]]:
    re_min, re_max, im_min, im_max = PHASE_WINDOW
    return _grid(re_min, re_max, PHASE_N), _grid(im_min, im_max, PHASE_N)


def _probe_step(a, b, c, k):
    return (b * a + c * k) / (k + 1.0), a


def calibrate(n: int = 100_000) -> float:
    """Seconds for a fixed piece of interpreter work that shares no code with
    the package: a probe of how fast the machine runs Python right now.

    The work is a real and a complex three-term recurrence, the kind of loop
    the package's kernels run; a probe built on dict updates tracked the
    workloads less well.
    """
    t0 = time.perf_counter()
    a, b = 1.0, 0.5
    ca, cb = 1.0 + 0.5j, 0.5 - 0.25j
    for k in range(1, n):
        a, b = _probe_step(a, 1.0000001, b, k)
        ca, cb = _probe_step(ca, 1.0000001 + 1e-9j, cb, k)
    return time.perf_counter() - t0

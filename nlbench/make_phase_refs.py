#!/usr/bin/env python3
"""Compute the stored references for the ``phase`` workload's output check.

Each reference is T_0^(1000)(z) - 1 for alpha = beta = 1 from
``oracle.oracle_drummond_bigfloat`` (the explicit finite-difference quotient
in big floats, never the recurrence under test), at a fixed set of points of
the workload's 24 x 24 grid. One point costs about 6 s, so the values are
computed once and committed as ``phase_refs.json``.

Usage, from the root of the repository:

    python3 nlbench/make_phase_refs.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

# (i, j) = (column, row) of the grid. Rows 11 and 12 straddle the negative
# real axis, where the terms of 2F0(1, 1; -1/z) all have one sign and the
# resummation works hardest.
POINTS = [
    (0, 0), (23, 23), (5, 17), (17, 5), (3, 11), (8, 12),
    (11, 11), (12, 12), (20, 13), (14, 9), (8, 20), (19, 2),
]


def main() -> int:
    nl = common.import_package()
    from mpmath import mp

    from nlspectra.drummond import HypTerm2F0
    from nlspectra.oracle import oracle_drummond_bigfloat

    res, ims = common.phase_axes()
    refs = []
    for i, j in POINTS:
        z = complex(res[i], ims[j])
        t = oracle_drummond_bigfloat(HypTerm2F0(1.0, 1.0, z), 0, common.PHASE_ORDER)
        with mp.workprec(2000):
            t1 = t - 1
            refs.append({
                "row": j * common.PHASE_N + i,
                "re_z": repr(z.real),
                "im_z": repr(z.imag),
                "re_T": mp.nstr(t1.real, 30),
                "im_T": mp.nstr(t1.imag, 30),
            })
        print(f"z = {z!r}: {refs[-1]['re_T']} {refs[-1]['im_T']}", flush=True)
    out = {
        "what": "T_0^(1000)(z) - 1 for 2F0(1, 1; -1/z), alpha = beta = 1",
        "source": "nlspectra.oracle.oracle_drummond_bigfloat",
        "mpmath": __import__("mpmath").__version__,
        "package": nl.__version__,
        "points": refs,
    }
    with open(os.path.join(HERE, "phase_refs.json"), "w") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

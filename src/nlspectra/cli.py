"""Command-line front end.

Subcommands: ``eval`` (one eigenvalue), ``table`` (alpha x k*delta sweep),
``spectrum`` (lattice eigenvalue table), ``phase`` (resummation approximant
over a complex grid). Output is CSV with numbers at 17 significant digits,
or JSON with ``--format json``. Timing is the benchmark's job
(``nlbench/run.py --trace 1`` reports per-route and per-kernel times).

Exit codes: 0 success, 2 invalid parameters, 3 non-convergence.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .drummond import HypTerm2F0, drummond_2f0_at_order
from .errors import NonConvergenceError
from .spectra import (
    DEFAULT_TOL,
    EvalResult,
    KernelParams,
    lambda_asymptotic,
    lambda_hybrid,
    lambda_maclaurin,
    lattice_spectrum,
)

EIGENROW_FIELDS = ("d", "alpha", "delta", "m", "k_mod", "lambda", "method", "terms", "est_rel_err")
PHASEROW_FIELDS = ("re_z", "im_z", "re_T", "im_T")

TABLE_CELL_LIMIT = 10**6
PHASE_POINT_LIMIT = 4 * 10**6
PHASE_ORDER_LIMIT = 5000


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _write_rows(path: str, header: tuple[str, ...], rows, fmt: str) -> None:
    """Write atomically: a partial file never replaces the target."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w") as fh:
            if fmt == "json":
                records = [dict(zip(header, row)) for row in rows]
                json.dump(records, fh, indent=1)
                fh.write("\n")
            else:
                fh.write(",".join(header) + "\n")
                for row in rows:
                    fh.write(",".join(_fmt(v) for v in row) + "\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _eigen_row(params: KernelParams, m, k_mod: float, res: EvalResult) -> tuple:
    return (
        params.d,
        params.alpha,
        params.delta,
        m,
        k_mod,
        res.lam,
        res.method,
        res.terms,
        res.est_rel_err,
    )


def _cmd_eval(args) -> int:
    params = KernelParams(args.d, args.alpha, args.delta)
    if args.k < 0:
        raise ValueError(f"--k must be >= 0, got {args.k}")
    res = lambda_hybrid(params, args.k, args.tol)
    m = args.k * args.k
    if m < 2.0**53 and m == int(m):
        # above 2^53 every float is integral, and int() would print false digits
        m = int(m)
    row = _eigen_row(params, m, args.k, res)
    if args.format == "json":
        print(json.dumps(dict(zip(EIGENROW_FIELDS, row))))
    else:
        print(",".join(_fmt(v) for v in row))
    return 0


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _best_effort(fn, params, k, tol) -> EvalResult:
    # sweep cells outside a method's good region still get a value
    try:
        return fn(params, k, tol)
    except NonConvergenceError as exc:
        return exc.result


def _cmd_table(args) -> int:
    d = args.d
    if args.alpha_steps < 1 or args.kdelta_steps < 1:
        raise ValueError("step counts must be >= 1")
    if args.alpha_steps * args.kdelta_steps > TABLE_CELL_LIMIT:
        raise ValueError(f"grid exceeds {TABLE_CELL_LIMIT} cells")
    if not (0.0 <= args.alpha_min <= args.alpha_max):
        raise ValueError("need 0 <= alpha-min <= alpha-max")
    if args.alpha_max >= d + 2:
        raise ValueError(f"alpha-max must be < d+2 = {d + 2}")
    if not (0.0 < args.kdelta_min <= args.kdelta_max):
        raise ValueError("need 0 < kdelta-min <= kdelta-max")
    alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_steps)
    kds = _grid(args.kdelta_min, args.kdelta_max, args.kdelta_steps)

    if args.with_oracle:
        from .oracle import oracle_lambda_maclaurin

    # looked up per call, so a tracer's wrappers on these names are seen
    route_fns = {"mac": lambda_maclaurin, "asy": lambda_asymptotic, "hybrid": lambda_hybrid}
    routes = ("mac", "asy") if args.method == "both" else (args.method,)
    header: tuple[str, ...] = ("d", "alpha", "kdelta")
    for route in routes:
        if route == "hybrid":
            header += ("lambda", "method", "terms", "err")
        else:
            header += (f"lambda_{route}", f"terms_{route}", f"err_{route}")

    rows = []
    for alpha in alphas:
        params = KernelParams(d, alpha, 1.0)
        for kd in kds:
            ref = None
            if args.with_oracle:
                ref = float(oracle_lambda_maclaurin(params, kd))
            row: tuple = (d, alpha, kd)
            for route in routes:
                res = _best_effort(route_fns[route], params, kd, args.tol)
                err = "" if ref is None else abs(res.lam - ref) / abs(ref)
                if route == "hybrid":
                    row += (res.lam, res.method, res.terms, err)
                else:
                    row += (res.lam, res.terms, err)
            rows.append(row)
    _write_rows(args.out, header, rows, args.format)
    return 0


def _cmd_spectrum(args) -> int:
    params = KernelParams(args.d, args.alpha, args.delta)
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
    table = lattice_spectrum(params, args.kmax, args.tol, jobs=jobs)
    rows = [
        _eigen_row(params, m, math.sqrt(m), table.entries[m])
        for m in sorted(table.entries)
    ]
    _write_rows(args.out, EIGENROW_FIELDS, rows, args.format)
    return 0


def _cmd_phase(args) -> int:
    if args.nx < 1 or args.ny < 1 or args.nx * args.ny > PHASE_POINT_LIMIT:
        raise ValueError(f"grid must have between 1 and {PHASE_POINT_LIMIT} points")
    if not 0 <= args.order <= PHASE_ORDER_LIMIT:
        raise ValueError(f"--order must be in [0, {PHASE_ORDER_LIMIT}]")
    res = _grid(args.re_min, args.re_max, args.nx)
    ims = _grid(args.im_min, args.im_max, args.ny)
    alpha = complex(args.alpha)
    beta = complex(args.beta)
    rows = []
    for im in ims:
        for re in res:
            z = complex(re, im)
            try:
                t = drummond_2f0_at_order(HypTerm2F0(alpha, beta, z), 0, args.order)
                t = complex(t) - 1.0
            except ValueError:
                t = complex(math.nan, math.nan)
            if not (math.isfinite(t.real) and math.isfinite(t.imag)):
                t = complex(math.nan, math.nan)
            rows.append((re, im, t.real, t.imag))
    _write_rows(args.out, PHASEROW_FIELDS, rows, args.format)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlspectra",
        description="Eigenvalues of nonlocal diffusion operators on torus lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="one eigenvalue, printed as a single record")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="lambda over an (alpha, k*delta) grid, delta = 1")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha-min", type=float, required=True)
    p.add_argument("--alpha-max", type=float, required=True)
    p.add_argument("--alpha-steps", type=int, required=True)
    p.add_argument("--kdelta-min", type=float, required=True)
    p.add_argument("--kdelta-max", type=float, required=True)
    p.add_argument("--kdelta-steps", type=int, required=True)
    p.add_argument("--method", choices=("mac", "asy", "hybrid", "both"), default="both")
    p.add_argument("--out", required=True)
    p.add_argument("--with-oracle", action="store_true",
                   help="fill error columns against the extended-precision series")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("spectrum", help="eigenvalues over the achievable |k|^2 of a lattice block")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: all cores)")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("phase", help="T_0^(K)(z) - 1 of the resummation over a complex grid")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--re-min", type=float, required=True)
    p.add_argument("--re-max", type=float, required=True)
    p.add_argument("--im-min", type=float, required=True)
    p.add_argument("--im-max", type=float, required=True)
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_phase)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: non-convergence: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

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
import functools
import math
import os
import sys

from .drummond import ORDER_LIMIT, HypTerm2F0, _check_int, _check_tol, drummond_2f0_at_order
from .errors import NonConvergenceError
from .spectra import (
    ASYMPTOTIC_KDELTA_MIN,
    DEFAULT_TOL,
    HYBRID_SWITCH,
    MACLAURIN_KDELTA_MAX,
    EvalResult,
    KernelParams,
    _Evaluator,
    _lattice_entries,
    lambda_hybrid,
)

EIGENROW_FIELDS = ("d", "alpha", "delta", "m", "k_mod", "lambda", "method", "terms", "est_rel_err")
PHASEROW_FIELDS = ("re_z", "im_z", "re_T", "im_T")

TABLE_CELL_LIMIT = 10**6
PHASE_POINT_LIMIT = 4 * 10**6


def _line_format(row) -> str:
    """The %-format of one CSV line with the column types of ``row``:
    floats at 17 significant digits, any other value as str()."""
    return ",".join("%.17g" if isinstance(v, float) else "%s" for v in row) + "\n"


def _write_rows(path: str, header: tuple[str, ...], rows, fmt: str, lead: tuple = ()) -> None:
    """Write atomically: a partial file never replaces the target.

    ``rows`` is any iterable of tuples, read once, that all have the column
    types of the first, each after the ``lead`` values every row shares. CSV
    takes its line format from the first row and writes each row as it is
    read, so it holds no row but the current one; each line is one format
    operation, with ``lead`` formatted once as text. JSON builds its list of
    records first, one per row, and writes it whole.

    The rows go to a new file in the target's directory, created
    exclusively under a name no other file has, which then replaces the
    target; on any failure it is removed and the target left as it was.
    """
    n = 0
    while True:
        tmp = f"{path}.{os.getpid()}.{n}.tmp"
        try:
            fh = open(tmp, "x")
            break
        except FileExistsError:
            n += 1
    try:
        with fh:
            if fmt == "json":
                import json  # imported on first use: it adds 2-6 ms to every start-up

                records = [dict(zip(header, lead + row)) for row in rows]
                json.dump(records, fh, indent=1)
                fh.write("\n")
            else:
                fh.write(",".join(header) + "\n")
                rows = iter(rows)
                first = next(rows, None)
                if first is not None:
                    line = _line_format(first)
                    if lead:
                        line = (_line_format(lead) % lead).replace("%", "%%")[:-1] + "," + line
                    fh.write(line % first)
                    fh.writelines(map(line.__mod__, rows))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _squared_norm(k: float):
    """m = k^2 for ``eval``: where k*k falls below the normal doubles or
    overflows them, the exact square as text of 17 significant digits, never
    the constant mode's 0 or inf; an int where integral below 2^53 (above
    it, int() prints false digits); else the double k*k."""
    m = k * k
    if k and not sys.float_info.min <= m < math.inf:
        from decimal import Context, Decimal

        return format(Context(prec=17).multiply(Decimal(k), Decimal(k)), ".17g")
    if m < 2.0**53 and m == int(m):
        return int(m)
    return m


def _cmd_eval(args) -> int:
    params = KernelParams(args.d, args.alpha, args.delta)
    res = lambda_hybrid(params, args.k, args.tol)
    row = (params.d, params.alpha, params.delta, _squared_norm(args.k), args.k,
           res.lam, res.method, res.terms, res.est_rel_err)
    if args.format == "json":
        import json

        print(json.dumps(dict(zip(EIGENROW_FIELDS, row))))
    else:
        sys.stdout.write(_line_format(row) % row)
    return 0


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


_FAILED_CELL = EvalResult(math.nan, "error", 0, math.inf)


def _best_effort(fn, k) -> EvalResult:
    # sweep cells outside a method's good region still get a value, NaN
    # where the route raises ValueError: the arguments were checked before
    # the sweep, so that cell lies beyond the route's double range
    try:
        return fn(k)
    except NonConvergenceError as exc:
        return exc.result
    except ValueError:
        return _FAILED_CELL


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
    if not (0.0 < args.kdelta_min <= args.kdelta_max < math.inf):
        raise ValueError("need 0 < --kdelta-min <= --kdelta-max < inf")
    tol = _check_tol(args.tol)
    alphas = _grid(args.alpha_min, args.alpha_max, args.alpha_steps)
    kds = _grid(args.kdelta_min, args.kdelta_max, args.kdelta_steps)

    if args.with_oracle:
        try:
            from .oracle import oracle_lambda_maclaurin
        except ModuleNotFoundError as exc:
            if exc.name != "mpmath":
                raise
            raise ValueError("--with-oracle needs mpmath, the oracle extra: "
                             "pip install 'nlspectra[oracle]'") from None

    routes = ("mac", "asy") if args.method == "both" else (args.method,)
    header: tuple[str, ...] = ("d", "alpha", "kdelta")
    for route in routes:
        if route == "hybrid":
            header += ("lambda", "method", "terms", "est_rel_err", "err")
        else:
            header += (f"lambda_{route}", f"terms_{route}", f"est_{route}", f"err_{route}")

    def rows():
        for alpha in alphas:
            params = KernelParams(d, alpha, 1.0)
            ev = _Evaluator(params, tol)
            route_fns = {"mac": ev.maclaurin, "asy": ev.asymptotic, "hybrid": ev.hybrid}
            for kd in kds:
                ref = None
                if args.with_oracle:
                    ref = float(oracle_lambda_maclaurin(params, kd))
                row: tuple = (d, alpha, kd)
                for route in routes:
                    res = _best_effort(route_fns[route], kd)
                    err = "" if ref is None else abs(res.lam - ref) / abs(ref)
                    if route == "hybrid":
                        row += (res.lam, res.method, res.terms, res.est_rel_err, err)
                    else:
                        row += (res.lam, res.terms, res.est_rel_err, err)
                yield row

    _write_rows(args.out, header, rows(), args.format)
    return 0


def _cmd_spectrum(args) -> int:
    params = KernelParams(args.d, args.alpha, args.delta)
    rows = _lattice_entries(params, args.kmax, args.tol, args.jobs)
    _write_rows(args.out, EIGENROW_FIELDS, rows, args.format,
                lead=(params.d, params.alpha, params.delta))
    return 0


def _cmd_phase(args) -> int:
    if args.nx < 1 or args.ny < 1 or args.nx * args.ny > PHASE_POINT_LIMIT:
        raise ValueError(f"grid must have between 1 and {PHASE_POINT_LIMIT} points")
    # checked here, as the grid loop turns a point's ValueError into NaN
    _check_int("--order", args.order, 0, ORDER_LIMIT)
    res = _grid(args.re_min, args.re_max, args.nx)
    ims = _grid(args.im_min, args.im_max, args.ny)
    alpha = complex(args.alpha)
    beta = complex(args.beta)

    def rows():
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
                yield re, im, t.real, t.imag

    _write_rows(args.out, PHASEROW_FIELDS, rows(), args.format)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a new namespace on every call."""
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
    p.add_argument("--method", choices=("mac", "asy", "hybrid", "both"), default="both",
                   help=f"mac: the series, up to k*delta = {MACLAURIN_KDELTA_MAX:g}; "
                        "asy: the asymptotic form, whose error estimate is inf below "
                        f"k*delta = {ASYMPTOTIC_KDELTA_MIN:g}, beyond its reach; "
                        "hybrid: the series below "
                        f"k*delta = {HYBRID_SWITCH:g}, the asymptotic form from it on; "
                        "both: mac and asy columns")
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
    p.add_argument("--jobs", type=int, default=1,
                   help="worker processes (default: 1, evaluated in this process)")
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

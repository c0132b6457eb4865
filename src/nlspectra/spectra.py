"""Eigenvalues of nonlocal diffusion operators with algebraic kernels.

A spherically symmetric kernel rho(r) ~ r^(-alpha) supported on a ball of
radius delta makes every Fourier mode exp(i k.x) on the d-torus an
eigenfunction; the eigenvalue lambda depends on the wavevector only through
|k|. Two evaluation routes cover the whole range of k*delta:

* ``lambda_maclaurin``: convergent power series in (k*delta)^2, effective
  for small k*delta;
* ``lambda_asymptotic``: a closed form in gamma, Bessel, and Lommel
  functions whose Lommel part is a divergent expansion resummed by
  Drummond's transformation, effective for large k*delta.

``lambda_hybrid`` switches between them at k*delta = 6, where both are
accurate to near machine precision. Every eigenvalue evaluation is
independent of all others, so lattice sweeps parallelize trivially.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import sys
from dataclasses import dataclass
from typing import Mapping

from ._backend import kernels as _k
from .drummond import DEFAULT_TOL, _check_tol, _lommel
from .errors import NonConvergenceError

__all__ = [
    "DEFAULT_TOL",
    "HYBRID_SWITCH",
    "MACLAURIN_TERM_CAP",
    "KernelParams",
    "EvalResult",
    "SpectrumTable",
    "lambda_maclaurin",
    "lambda_asymptotic",
    "lambda_hybrid",
    "achievable_squared_norms",
    "lattice_spectrum",
    "apply_to_fourier_coeffs",
]

#: Dimensionless switch point between the two evaluation routes.
HYBRID_SWITCH = 6.0

#: Series cap; at the switch point the series needs only tens of terms, the
#: cap guards misuse with k*delta far beyond it.
MACLAURIN_TERM_CAP = 4000

LATTICE_KMAX_LIMIT = 4096

#: From this k*delta on the asymptotic form keeps only its gamma-ratio part.
#: The Bessel/Lommel part decays like (k*delta)^(-(d+3)/2) against it, so it
#: is below machine epsilon from k*delta ~ 1e20 on. Its resummation fails
#: from k*delta ~ 4e51 on: the recurrence terms grow like powers of
#: z = (k*delta)^2/4 and overflow before they can be rescaled.
ASYMPTOTIC_TAIL_CUTOFF = 2.0**150

_EPS = sys.float_info.epsilon
_LOG2 = math.log(2.0)
#: Smallest normal double.
_TINY = 2.2250738585072014e-308


@dataclass(frozen=True)
class KernelParams:
    """Kernel family: dimension d, singularity strength alpha, horizon delta.

    The kernel is normalized so the operator converges to the Laplacian as
    delta -> 0; admissibility requires 0 <= alpha < d+2. The cap d <= 10 is
    the one guard that keeps the kernels inside the ranges the tests verify:
    Bessel J at orders d/2 - 1 and d/2 - 2, within -3/2..4, and gamma at d/2
    and d/2 + 1.
    """

    d: int
    alpha: float
    delta: float

    def __post_init__(self):
        if not isinstance(self.d, int) or isinstance(self.d, bool):
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if not 1 <= self.d <= 10:
            raise ValueError(f"d must be in [1, 10], got {self.d}")
        if not (0.0 <= self.alpha < self.d + 2):
            raise ValueError(
                f"alpha must be in [0, d+2) = [0, {self.d + 2}), got {self.alpha}"
            )
        if not (0.0 < self.delta < math.inf):
            raise ValueError(f"delta must be positive and finite, got {self.delta}")


@dataclass(frozen=True)
class EvalResult:
    """One eigenvalue: value, which route produced it, and its cost/accuracy."""

    lam: float
    method: str  # "maclaurin" | "asymptotic" | "zero"
    terms: int
    est_rel_err: float


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalues over all achievable squared norms of a lattice block.

    ``entries`` maps each m = |k|^2 to its eigenvalue, in ascending m. Two
    tables are equal when their parameters, kmax and entries are; a table is
    not hashable.
    """

    params: KernelParams
    kmax: int
    entries: dict[int, EvalResult]


_ZERO_RESULT = EvalResult(0.0, "zero", 0, 0.0)


def _check_eval_args(params: KernelParams, k_mod: float, tol: float) -> None:
    if not isinstance(params, KernelParams):
        raise ValueError(f"params must be KernelParams, got {type(params)!r}")
    if not 0.0 <= k_mod < math.inf:
        raise ValueError(f"k_mod must be finite and >= 0, got {k_mod}")
    _check_tol(tol)


def lambda_maclaurin(
    params: KernelParams, k_mod: float, tol: float = DEFAULT_TOL
) -> EvalResult:
    """Eigenvalue by the convergent series in (k*delta)^2.

    The term recurrence starts from the exact leading term -k^2; summation
    stops when the next term drops below tol * |partial sum|. Intended for
    k*delta below the hybrid switch; beyond it the alternating terms grow
    large and cancellation washes out accuracy.
    """
    _check_eval_args(params, k_mod, tol)
    if k_mod == 0.0:
        return _ZERO_RESULT
    try:
        value, terms, converged, est = _k.maclaurin_lambda(
            params.d, params.alpha, k_mod, params.delta, tol, MACLAURIN_TERM_CAP
        )
    except OverflowError:
        raise NonConvergenceError(
            f"series cannot start at k*delta={k_mod * params.delta:g}: "
            "(k*delta)^2 exceeds the double range",
            result=EvalResult(math.nan, "maclaurin", 0, math.inf),
        ) from None
    result = EvalResult(value, "maclaurin", terms, est)
    if not converged:
        raise NonConvergenceError(
            f"series hit the {MACLAURIN_TERM_CAP}-term cap at "
            f"k*delta={k_mod * params.delta:g} (est {est:.2e})",
            result=result,
        )
    return result


@functools.lru_cache(maxsize=32)
def _asy_constants(d: int, alpha: float) -> tuple[float, float]:
    """(Gamma(d/2), c) with c = 2 Gamma(d/2+1) (d+2-alpha), the factors of
    the asymptotic formula that depend on (d, alpha) alone."""
    return _k.gamma(0.5 * d), 2.0 * _k.gamma(0.5 * d + 1.0) * (d + 2.0 - alpha)


def _asy_gamma_part(d: int, alpha: float, log_y: float) -> tuple[float, float]:
    """(part_a, t): the gamma-ratio part of the asymptotic formula, stable
    through alpha = d, and the exponent t of its gamma ratio (0 at alpha = 0
    and alpha = d).

    With y = 2/(k*delta), the part equals
           (kd/2)^(alpha-d) Gamma((d-alpha)/2) / Gamma(alpha/2)
           - 2 / ((d-alpha) Gamma(d/2)),
    rewritten as f((d-alpha)/2, y, d/2) / Gamma(d/2) with the kernel's
    ``stable_prefactor`` f, taken from log y. At alpha = 0 the first term
    vanishes against the Gamma(alpha/2) pole and the second is returned
    directly. So it is where (d-alpha)/2 rounds to d/2: the first term is
    then about alpha relative to the result, below rounding, and f would
    meet the pole of Gamma(0). At alpha = d, f takes its limit.
    """
    ghalf = _asy_constants(d, alpha)[0]
    if 0.5 * (d - alpha) == 0.5 * d:
        return -2.0 / (d * ghalf), 0.0
    f, t = _k.stable_prefactor(0.5 * (d - alpha), log_y, 0.5 * d)
    return f / ghalf, t


def _huge_gamma_part_in_logs(
    d: int, alpha: float, delta: float, log_y: float, kd: float
) -> tuple[float, float]:
    """(lambda, est_rel_err) from the gamma-ratio part alone, for alpha > d
    where exp(t) = (kd/2)^(alpha-d) Gamma(x+1) Gamma(d/2) / Gamma(d/2-x),
    x = (d-alpha)/2, leaves the double range.

    Then lambda = scale * (exp(t) - 1) / (x Gamma(d/2)), and the -1 is far
    below rounding. With 2 Gamma(d/2+1) / Gamma(d/2) = d, the prefactor is
    d (d+2-alpha) / (-x delta^2) and joins the exponent as a logarithm.
    """
    x = 0.5 * (d - alpha)
    t = _k.gamma_part_exponent(x, log_y, 0.5 * d)
    log_scale = math.log(d * (d + 2.0 - alpha) / -x) - 2.0 * math.log(delta)
    log_lam = t + log_scale
    try:
        lam = -math.exp(log_lam)
    except OverflowError:
        raise _beyond_double_range(d, alpha, delta, kd) from None
    # the exponential turns the rounding of each logarithm into relative error
    est = 1e-15 + _EPS * (abs(t) + abs(log_scale) + abs(log_lam))
    return lam, est


def _beyond_double_range(d: int, alpha: float, delta: float, kd: float) -> ValueError:
    return ValueError(
        f"|lambda| exceeds the double range at d={d}, alpha={alpha}, "
        f"delta={delta:g}, k*delta={kd:g}"
    )


def _over_delta_squared(
    c: float, part: float, d: int, alpha: float, delta: float, kd: float
) -> float:
    """c * part / delta^2, or ValueError where that leaves the double range."""
    dd = delta * delta
    if _TINY <= dd < math.inf:
        lam = c / dd * part
    else:
        # delta^2 alone leaves the double range, lambda need not
        lam = c * part / delta / delta
    if math.isinf(lam):
        raise _beyond_double_range(d, alpha, delta, kd)
    return lam


def _asymptotic_result(lam: float, terms: int, est: float) -> EvalResult:
    # a lambda below the normal doubles (a subnormal, or zero) has lost its
    # relative accuracy to underflow, whatever the parts' estimates say
    return EvalResult(lam, "asymptotic", terms, est if abs(lam) >= _TINY else math.inf)


def lambda_asymptotic(
    params: KernelParams, k_mod: float, tol: float = DEFAULT_TOL
) -> EvalResult:
    """Eigenvalue by the large-k*delta closed form.

    Combines the stabilized gamma-ratio part with a Bessel/Lommel part of
    orders tied to the dimension; the two Lommel factors are resummed
    divergent expansions, so ``terms`` reports the larger resummation order
    and non-convergence propagates as NonConvergenceError. ``est_rel_err``
    carries the error of each part (the Lommel estimates, a bound on the
    Bessel error, the rounding of the gamma-ratio part) through their sum,
    so cancellation between the parts raises it. From
    k*delta = ASYMPTOTIC_TAIL_CUTOFF on, the Bessel/Lommel part is below
    rounding and is skipped (``terms`` = 0); k*delta itself may leave the
    double range there. Where |lambda| exceeds the double range, ValueError
    says so; where it falls below the normal doubles, ``est_rel_err`` is inf.
    """
    _check_eval_args(params, k_mod, tol)
    if k_mod == 0.0:
        raise ValueError("lambda_asymptotic requires k_mod > 0")
    d = params.d
    alpha = params.alpha
    delta = params.delta
    kd = k_mod * delta
    if kd < math.inf:
        log_y = math.log(2.0 / kd)
    else:
        # k*delta left the double range, so only the tail branch below
        # applies, and it needs log(k*delta) alone
        log_y = _LOG2 - (math.log(k_mod) + math.log(delta))

    try:
        part_a, t = _asy_gamma_part(d, alpha, log_y)
    except OverflowError:
        # alpha > d and (kd/2)^(alpha-d) left the double range; that needs
        # kd far beyond ASYMPTOTIC_TAIL_CUTOFF, so part_a is all of lambda
        lam, est = _huge_gamma_part_in_logs(d, alpha, delta, log_y, kd)
        return _asymptotic_result(lam, 0, est)
    c = _asy_constants(d, alpha)[1]
    if kd >= ASYMPTOTIC_TAIL_CUTOFF:
        # the rounding of the exponent (kd/2)^(alpha-d) in part_a dominates
        log_kd = math.log(kd) if kd < math.inf else _LOG2 - log_y
        est = 1e-15 + _EPS * abs(alpha - d) * log_kd
        lam = _over_delta_squared(c, part_a, d, alpha, delta, kd)
        return _asymptotic_result(lam, 0, est)
    s1 = _lommel(0.5 * (d - 2.0 - 2.0 * alpha), 0.5 * (d - 4.0), kd, tol)
    s2 = _lommel(0.5 * (d - 2.0 * alpha), 0.5 * (d - 2.0), kd, tol)
    j1, j2 = _k.bessel_j(d - 2, kd)
    w = 2.0 ** (0.5 * d) * kd ** (alpha + 1.0 - d)
    part_b = w * ((d - 2.0 - alpha) * j1 * s1.value - j2 * s2.value)
    lam = _over_delta_squared(c, part_a + part_b, d, alpha, delta, kd)
    # the absolute error of each part over |part_a + part_b|: part_a through
    # the rounding of its exponent t, each Bessel-Lommel product through its
    # Lommel estimate and an absolute error of J. Against mpmath, J errs by
    # at most 8 eps sqrt(2/(pi kd)). The 128 up to kd = 7 covers part of
    # the shortfall of the Lommel estimates below kd = 6, which direct
    # calls reach: with 8 there, more direct calls err above their estimate,
    # by far more (ROADMAP item 1).
    j_err = (128.0 if kd <= 7.0 else 8.0) * _EPS * math.sqrt(2.0 / (math.pi * kd))
    err = abs(part_a) * 4.0 * _EPS * (1.0 + abs(t)) + abs(w) * (
        abs((d - 2.0 - alpha) * s1.value) * (abs(j1) * (s1.est_rel_err + 2.0 * _EPS) + j_err)
        + abs(s2.value) * (abs(j2) * (s2.est_rel_err + 2.0 * _EPS) + j_err)
    )
    total = abs(part_a + part_b)
    est = err / total + 4.0 * _EPS if total > 0.0 else math.inf
    result = _asymptotic_result(lam, max(s1.order, s2.order), est)
    if not (s1.converged and s2.converged):
        raise NonConvergenceError(
            f"Lommel resummation stalled at k*delta={kd:g} "
            f"(est {result.est_rel_err:.2e})",
            result=result,
        )
    return result


def lambda_hybrid(
    params: KernelParams, k_mod: float, tol: float = DEFAULT_TOL
) -> EvalResult:
    """Eigenvalue by whichever route is accurate at this k*delta.

    Series for k*delta < 6, asymptotic form for k*delta >= 6, exact zero
    for the constant mode.
    """
    _check_eval_args(params, k_mod, tol)
    if k_mod == 0.0:
        return _ZERO_RESULT
    if k_mod * params.delta < HYBRID_SWITCH:
        return lambda_maclaurin(params, k_mod, tol)
    return lambda_asymptotic(params, k_mod, tol)


def achievable_squared_norms(d: int, kmax: int) -> list[int]:
    """All m = k_1^2 + ... + k_d^2 with each |k_i| <= kmax, ascending.

    Computed coordinate by coordinate as a bitset convolution, never by
    enumerating the (2*kmax+1)^d lattice points; the set bits are read in
    one scan of the bitset's binary digits.
    """
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"d must be an integer, got {d!r}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    squares = [j * j for j in range(kmax + 1)]
    acc = 0
    for s in squares:
        acc |= 1 << s
    for _ in range(d - 1):
        nxt = 0
        for s in squares:
            nxt |= acc << s
        acc = nxt
    # digit m of the reversed binary string is bit m
    return [m for m, bit in enumerate(bin(acc)[:1:-1]) if bit == "1"]


def lattice_spectrum(
    params: KernelParams,
    kmax: int,
    tol: float = DEFAULT_TOL,
    jobs: int = 1,
) -> SpectrumTable:
    """Eigenvalue table over every achievable |k|^2 of the lattice block
    {-kmax..kmax}^d.

    Distinct squared norms are evaluated once each; with jobs > 1 they are
    partitioned across worker processes. Results are keyed by m, so the
    table is identical for any worker count.
    """
    if not isinstance(params, KernelParams):
        raise ValueError(f"params must be KernelParams, got {type(params)!r}")
    if not 0 <= kmax <= LATTICE_KMAX_LIMIT:
        raise ValueError(f"kmax must be in [0, {LATTICE_KMAX_LIMIT}], got {kmax}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    ms = achievable_squared_norms(params.d, kmax)
    pool = contextlib.nullcontext()
    mapper = map
    if jobs > 1 and len(ms) > 1:
        # imported on first use: it adds about 20 ms to every package import
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
        mapper = functools.partial(pool.map, chunksize=max(1, len(ms) // (jobs * 8)))
    entries: dict[int, EvalResult] = {}
    with pool:
        # results arrive in the order of ms, whichever mapper runs them
        results = mapper(
            lambda_hybrid, itertools.repeat(params), map(math.sqrt, ms), itertools.repeat(tol)
        )
        try:
            for m in ms:
                entries[m] = next(results)
        except NonConvergenceError as exc:
            raise NonConvergenceError(
                f"lattice evaluation failed at m={m}: {exc}", result=exc.result
            ) from exc
    return SpectrumTable(params=params, kmax=kmax, entries=entries)


def apply_to_fourier_coeffs(
    params: KernelParams,
    coeffs: Mapping[tuple[int, ...], complex],
    tol: float = DEFAULT_TOL,
) -> dict[tuple[int, ...], complex]:
    """Multiply each Fourier amplitude by its eigenvalue.

    The operator acts diagonally on Fourier modes, so this is a pointwise
    multiply with an m-deduplicated eigenvalue cache shared across the call.
    """
    if not isinstance(params, KernelParams):
        raise ValueError(f"params must be KernelParams, got {type(params)!r}")
    cache: dict[int, float] = {}
    out: dict[tuple[int, ...], complex] = {}
    for kvec, amp in coeffs.items():
        try:
            kt = tuple(int(c) for c in kvec)
        except (OverflowError, ValueError):  # an infinite or NaN entry
            kt = None
        if kt != tuple(kvec):
            raise ValueError(f"wavevector {kvec!r} has a non-integral entry")
        if len(kt) != params.d:
            raise ValueError(f"wavevector {kvec!r} does not have d={params.d} entries")
        if any(abs(c) > LATTICE_KMAX_LIMIT for c in kt):
            raise ValueError(f"wavevector {kvec!r} exceeds |k|_inf <= {LATTICE_KMAX_LIMIT}")
        m = sum(c * c for c in kt)
        lam = cache.get(m)
        if lam is None:
            lam = cache[m] = lambda_hybrid(params, math.sqrt(m), tol).lam
        out[kt] = amp * lam
    return out

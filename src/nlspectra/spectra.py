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

import math
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from ._backend import kernels as _k
from .drummond import DEFAULT_KMAX, DEFAULT_TOL, LommelOrder, _lommel_with_info
from .errors import NonConvergenceError

__all__ = [
    "DEFAULT_TOL",
    "HYBRID_SWITCH",
    "MACLAURIN_TERM_CAP",
    "KernelParams",
    "WavenumberKey",
    "EvalResult",
    "SpectrumTable",
    "lambda_maclaurin",
    "lambda_asymptotic",
    "lambda_hybrid",
    "stable_prefactor",
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

_EPS = 2.220446049250313e-16


@dataclass(frozen=True)
class KernelParams:
    """Kernel family: dimension d, singularity strength alpha, horizon delta.

    The kernel is normalized so the operator converges to the Laplacian as
    delta -> 0; admissibility requires 0 <= alpha < d+2.
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
class WavenumberKey:
    """Squared lattice norm m = |k|^2 and its root; lambda depends on k only
    through m."""

    m: int
    k_mod: float

    @classmethod
    def from_m(cls, m: int) -> "WavenumberKey":
        return cls(m, math.sqrt(m))

    @classmethod
    def from_vector(cls, k: Iterable[int]) -> "WavenumberKey":
        m = sum(int(c) * int(c) for c in k)
        return cls.from_m(m)


@dataclass(frozen=True)
class EvalResult:
    """One eigenvalue: value, which route produced it, and its cost/accuracy."""

    lam: float
    method: str  # "maclaurin" | "asymptotic" | "zero"
    terms: int
    est_rel_err: float


@dataclass(frozen=True)
class SpectrumTable:
    """Eigenvalues over all achievable squared norms of a lattice block."""

    params: KernelParams
    kmax: int
    entries: dict[int, EvalResult] = field(compare=False)


_ZERO_RESULT = EvalResult(0.0, "zero", 0, 0.0)


def _check_eval_args(params: KernelParams, k_mod: float, tol: float) -> None:
    if not isinstance(params, KernelParams):
        raise ValueError(f"params must be KernelParams, got {type(params)!r}")
    if not 0.0 <= k_mod < math.inf:
        raise ValueError(f"k_mod must be finite and >= 0, got {k_mod}")
    if not tol >= _EPS:
        raise ValueError(f"tol must be >= machine epsilon, got {tol}")


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
    value, terms, converged, est = _k.maclaurin_lambda(
        params.d, params.alpha, k_mod, params.delta, tol, MACLAURIN_TERM_CAP
    )
    result = EvalResult(value, "maclaurin", terms, est)
    if not converged:
        raise NonConvergenceError(
            f"series hit the {MACLAURIN_TERM_CAP}-term cap at "
            f"k*delta={k_mod * params.delta:g} (est {est:.2e})",
            result=result,
        )
    return result


def stable_prefactor(x: float, y: float, z: float) -> float:
    """f(x,y,z) = [y^(2x) Gamma(x+1) Gamma(z) / Gamma(z-x) - 1] / x.

    Evaluated through expm1/log1p and the Lanczos log-gamma ratio so the
    removable singularity at x = 0 stays smooth; at x = 0 exactly the limit
    2 log y + psi(1) + psi(z) is returned.
    """
    x = float(x)
    y = float(y)
    z = float(z)
    if y <= 0.0:
        raise ValueError(f"stable_prefactor requires y > 0, got {y}")
    if z <= 0.0:
        raise ValueError(f"stable_prefactor requires z > 0, got {z}")
    if x <= -1.0 or x >= z:
        raise ValueError(f"stable_prefactor requires -1 < x < z, got x={x}, z={z}")
    return _k.stable_prefactor(x, y, z)


def _asy_part_a(d: int, alpha: float, kd: float) -> float:
    """Gamma-ratio part of the asymptotic formula, stable through alpha = d.

    Equals (kd/2)^(alpha-d) Gamma((d-alpha)/2) / Gamma(alpha/2)
           - 2 / ((d-alpha) Gamma(d/2)),
    rewritten via f((d-alpha)/2, 2/kd, d/2) / Gamma(d/2). At alpha = 0 the
    first term vanishes against the Gamma(alpha/2) pole and the second is
    returned directly.
    """
    ghalf = _k.gamma(0.5 * d)
    if alpha == 0.0:
        return -2.0 / (d * ghalf)
    return _k.stable_prefactor(0.5 * (d - alpha), 2.0 / kd, 0.5 * d) / ghalf


def lambda_asymptotic(
    params: KernelParams,
    k_mod: float,
    tol: float = DEFAULT_TOL,
    k_max: int = DEFAULT_KMAX,
) -> EvalResult:
    """Eigenvalue by the large-k*delta closed form.

    Combines the stabilized gamma-ratio part with a Bessel/Lommel part of
    orders tied to the dimension; the two Lommel factors are resummed
    divergent expansions, so ``terms`` reports the larger resummation order
    and non-convergence propagates as NonConvergenceError. From
    k*delta = ASYMPTOTIC_TAIL_CUTOFF on, the Bessel/Lommel part is below
    rounding and is skipped (``terms`` = 0).
    """
    _check_eval_args(params, k_mod, tol)
    if k_mod == 0.0:
        raise ValueError("lambda_asymptotic requires k_mod > 0")
    d = params.d
    alpha = params.alpha
    delta = params.delta
    kd = k_mod * delta

    part_a = _asy_part_a(d, alpha, kd)
    scale = 2.0 * _k.gamma(0.5 * d + 1.0) * (d + 2.0 - alpha) / (delta * delta)
    if kd >= ASYMPTOTIC_TAIL_CUTOFF:
        # the rounding of the exponent (kd/2)^(alpha-d) in part_a dominates
        est = 1e-15 + _EPS * abs(alpha - d) * math.log(kd)
        return EvalResult(scale * part_a, "asymptotic", 0, est)
    s1, o1, e1, c1 = _lommel_with_info(
        LommelOrder(0.5 * (d - 2.0 - 2.0 * alpha), 0.5 * (d - 4.0)), kd, tol, k_max
    )
    s2, o2, e2, c2 = _lommel_with_info(
        LommelOrder(0.5 * (d - 2.0 * alpha), 0.5 * (d - 2.0)), kd, tol, k_max
    )
    j1 = _k.bessel_j(d - 2, kd)
    j2 = _k.bessel_j(d - 4, kd)
    part_b = (
        2.0 ** (0.5 * d)
        * kd ** (alpha + 1.0 - d)
        * ((d - 2.0 - alpha) * j1 * s1 - j2 * s2)
    )
    lam = scale * (part_a + part_b)
    result = EvalResult(lam, "asymptotic", max(o1, o2), max(e1, e2) + 1e-15)
    if not (c1 and c2):
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
    enumerating the (2*kmax+1)^d lattice points.
    """
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
    out = []
    m = 0
    while acc:
        if acc & 1:
            out.append(m)
        tz = (acc & -acc).bit_length() - 1
        if tz == 0:
            acc >>= 1
            m += 1
        else:
            acc >>= tz
            m += tz
    return out


def _lattice_worker(payload):
    params, tol, m = payload
    return m, lambda_hybrid(params, math.sqrt(m), tol)


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
    ms = achievable_squared_norms(params.d, kmax)
    entries: dict[int, EvalResult] = {}
    if jobs > 1 and len(ms) > 1:
        # imported on first use: it adds about 20 ms to every package import
        from concurrent.futures import ProcessPoolExecutor

        payloads = [(params, tol, m) for m in ms]
        chunk = max(1, len(ms) // (jobs * 8))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = pool.map(_lattice_worker, payloads, chunksize=chunk)
            current = None
            try:
                for current in ms:
                    m, res = next(results)
                    entries[m] = res
            except NonConvergenceError as exc:
                raise NonConvergenceError(
                    f"lattice evaluation failed near m={current}: {exc}",
                    result=exc.result,
                ) from exc
    else:
        for m in ms:
            try:
                entries[m] = lambda_hybrid(params, math.sqrt(m), tol)
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
        kt = tuple(int(c) for c in kvec)
        if len(kt) != params.d:
            raise ValueError(f"wavevector {kvec!r} does not have d={params.d} entries")
        if any(abs(c) > LATTICE_KMAX_LIMIT for c in kt):
            raise ValueError(f"wavevector {kvec!r} exceeds |k|_inf <= {LATTICE_KMAX_LIMIT}")
        key = WavenumberKey.from_vector(kt)
        if key.m not in cache:
            cache[key.m] = lambda_hybrid(params, key.k_mod, tol).lam
        out[kt] = amp * cache[key.m]
    return out

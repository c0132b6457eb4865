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

The series is summed in fixed-point integers, which removes its
cancellation: backwards, by Horner's rule in (k*delta)^2 / 2 over its
coefficients, exact products of the term ratios of (d, alpha), scaled to
integers and kept in a table per (d, alpha) and working precision, with the
number of terms chosen before the pass from the logarithms of those
coefficients and checked after it against the sum. ``lambda_hybrid``
switches to the asymptotic form at k*delta = 40: below it the series is
the cheaper of the two for every alpha > 0, and the more accurate; both
are accurate to near machine precision there. Every eigenvalue evaluation
is independent of all others, so lattice sweeps parallelize trivially. One
private evaluator per (params, tol), which holds the constants of both
routes, computes them: the public ``lambda_*`` check their arguments and
delegate to one. ``lattice_spectrum`` and the ``spectrum`` command run
one's loop over the lattice, which yields each output row as it is
computed: its series rows with m > 0 go straight to the series kernel, the
rest through ``hybrid``.
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Mapping

from ._backend import kernels as _k
from .drummond import (
    DEFAULT_TOL, _check_int, _check_tol, _lommel, _lommel_terms, _number, _Record,
)
from .errors import NonConvergenceError

__all__ = [
    "DEFAULT_TOL",
    "HYBRID_SWITCH",
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

#: Dimensionless switch point between the two evaluation routes. Per call
#: (d 1..10, delta = 1, warm tables; two runs), the series costs 0.48-0.75
#: of the asymptotic route in [28, 32) and 0.62-0.91 in [36, 40) at
#: alpha = (d+2)/2 and 0.97 (d+2), and is the more accurate; from 40 on it
#: reaches 1 for some (d, alpha). At alpha = 0 both Lommel sums terminate,
#: so the asymptotic route is cheap and the series costs 0.76-1.19 of it in
#: [28, 40): the price of one switch for every (d, alpha).
HYBRID_SWITCH = 40.0

#: Largest k*delta the series is summed at, the route's only limit. It
#: needs about 1.4 k*delta terms there (at most 2,729 at 2,000 and tol = eps,
#: of a coefficient table of about 3,700 rows) and about 3,000 bits of working
#: precision; beyond it ``lambda_maclaurin`` raises NonConvergenceError at
#: once.
MACLAURIN_KDELTA_MAX = 2000.0

LATTICE_KMAX_LIMIT = 4096
#: Largest dimension d, of ``KernelParams`` and of ``achievable_squared_norms``.
D_MAX = 10

#: Below this k*delta a direct ``lambda_asymptotic`` call returns its value
#: with ``est_rel_err`` = inf: there its Lommel factors err far above their
#: own estimates. At 10 eps, of 250 draws a band (d 1..10, alpha 0, d or
#: uniform), 42 of 156 returned cases in [1, 3) erred above the estimate,
#: by up to 9.5x, and 10 of 250 in [3, 5); none did from 5 on.
#: ``lambda_hybrid`` takes this route only from HYBRID_SWITCH on.
ASYMPTOTIC_KDELTA_MIN = 5.0

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
#: Largest finite double; an int above it leaves the double range.
_HUGE = sys.float_info.max


class KernelParams(_Record, namedtuple("KernelParams", "d alpha delta")):
    """Kernel family: dimension d, singularity strength alpha, horizon delta.

    The kernel is normalized so the operator converges to the Laplacian as
    delta -> 0; admissibility requires 0 <= alpha < d+2. The cap
    d <= D_MAX = 10 keeps Bessel J inside the orders the tests verify:
    d/2 - 1 and d/2 - 2, within -3/2..4. alpha and delta are stored as
    their float(): any number float() converts but a str is accepted, and
    rounded once, here. ``_replace`` validates as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, d: int, alpha: float, delta: float):
        _check_int("d", d, 1, D_MAX)
        a = _number(alpha)
        if a is None or not 0.0 <= a < d + 2:
            raise ValueError(f"alpha must be in [0, d+2) = [0, {d + 2}), got {alpha!r}")
        dl = _number(delta)
        if dl is None or not 0.0 < dl <= _HUGE:
            raise ValueError(f"delta must be positive and finite, got {delta!r}")
        return tuple.__new__(cls, (d, a, dl))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class EvalResult(_Record, namedtuple("EvalResult", "lam method terms est_rel_err")):
    """One eigenvalue: value, which route produced it ("maclaurin",
    "asymptotic" or "zero"), and its cost/accuracy."""

    __slots__ = ()


class SpectrumTable(_Record, namedtuple("SpectrumTable", "params kmax entries")):
    """Eigenvalues over all achievable squared norms of a lattice block.

    ``entries`` maps each m = |k|^2 to its EvalResult, in ascending m. Two
    tables are equal when their parameters, kmax and entries are; a table is
    not hashable.
    """

    __slots__ = ()


_ZERO_RESULT = EvalResult(0.0, "zero", 0, 0.0)
#: Binary digit characters to the bytes 0 and 1.
_BIT_OF_DIGIT = bytes.maketrans(b"01", b"\0\1")


def _check_params(params: KernelParams) -> None:
    if not isinstance(params, KernelParams):
        raise ValueError(f"params must be KernelParams, got {type(params)!r}")


def _check_eval_args(params: KernelParams, k_mod: float, tol: float) -> tuple[float, float]:
    """The floats (k_mod, tol) of checked arguments of the ``lambda_*``."""
    _check_params(params)
    k = _number(k_mod)
    if k is None or not 0.0 <= k <= _HUGE:
        raise ValueError(f"k_mod must be finite and >= 0, got {k_mod!r}")
    return k, _check_tol(tol)


def lambda_maclaurin(
    params: KernelParams, k_mod: float, tol: float = DEFAULT_TOL
) -> EvalResult:
    """Eigenvalue by the convergent series in (k*delta)^2.

    The term recurrence starts from the exact leading term -k^2; summation
    stops when the next term drops below tol * |partial sum|. The terms are
    summed in fixed-point integers, where doubles would lose about
    k*delta log2(e) bits to their cancellation. Beyond MACLAURIN_KDELTA_MAX,
    and where (k*delta)^2 leaves the double range, NonConvergenceError is
    raised at once; where |lambda| exceeds it, ValueError. Where lambda
    falls below the normal doubles (a tiny k), ``est_rel_err`` is inf. The
    end of the coefficient table, which no tol >= eps reaches, also raises
    NonConvergenceError. k_mod and tol, as the arguments of every
    ``lambda_*``, may be any number float() converts but a str; the route
    sees only their float().
    """
    k_mod, tol = _check_eval_args(params, k_mod, tol)
    return _Evaluator(params, tol).maclaurin(k_mod)


def _asy_gamma_part(d: int, alpha: float, ghalf: float, log_y: float) -> tuple[float, float]:
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
    meet the pole of Gamma(0). At alpha = d, f takes its limit. ``ghalf`` is
    Gamma(d/2).
    """
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


def _intermediate_beyond_double_range(d: int, alpha: float, kd: float) -> ValueError:
    return ValueError(
        f"an intermediate of the asymptotic form leaves the double range at "
        f"d={d}, alpha={alpha}, k*delta={kd:g}; the Maclaurin series covers "
        f"this k*delta"
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
    and non-convergence propagates as NonConvergenceError. They are resummed
    at DEFAULT_TOL whatever ``tol``: at a looser tol the resummation's early
    exit can fire far from its limit, and its estimate with it. ``est_rel_err``
    carries the error of each part (the Lommel estimates, a bound on the
    Bessel error, the rounding of the gamma-ratio part) through their sum,
    so cancellation between the parts raises it. From
    k*delta = ASYMPTOTIC_TAIL_CUTOFF on, the Bessel/Lommel part is below
    rounding and is skipped (``terms`` = 0); k*delta itself may leave the
    double range there. Where |lambda| exceeds the double range, ValueError
    says so; where it falls below the normal doubles, ``est_rel_err`` is inf.
    Below k*delta = ASYMPTOTIC_KDELTA_MIN (5), beyond the route's reach, the
    value comes back as computed, with ``est_rel_err`` = inf. k_mod and tol
    are converted with float() as in ``lambda_maclaurin``.
    """
    k_mod, tol = _check_eval_args(params, k_mod, tol)
    return _Evaluator(params, tol).asymptotic(k_mod)


def lambda_hybrid(
    params: KernelParams, k_mod: float, tol: float = DEFAULT_TOL
) -> EvalResult:
    """Eigenvalue by the cheaper route at this k*delta: the series below
    HYBRID_SWITCH, the asymptotic form from it on, exact zero for the
    constant mode. Both are accurate on either side of the switch. k_mod
    and tol are converted with float() as in ``lambda_maclaurin``.
    """
    k_mod, tol = _check_eval_args(params, k_mod, tol)
    return _Evaluator(params, tol).hybrid(k_mod)


class _Evaluator:
    """The eigenvalues of one (params, tol) at checked arguments, one k_mod
    a call. The series kernel and its constants are taken when it is built,
    so that a wrapper installed on ``kernels`` before then is called; the
    asymptotic route's constants of (d, alpha) on its first call. A lattice
    row passes its int m = |k|^2 too, with k_mod = fl(sqrt(m)): the route
    test and the asymptotic route take k_mod, the series k^2 = m exactly.
    ``lattice`` is the loop of one lattice, which yields output rows: it
    calls the series kernel itself for a series row with m > 0, and
    ``hybrid``, which raises the typed errors, for the constant mode, the
    asymptotic rows and a series row that fails."""

    __slots__ = ("d", "alpha", "delta", "_series", "_constants", "_asy")

    def __init__(self, params: KernelParams, tol: float):
        self.d, self.alpha, self.delta = params
        self._series = _k.maclaurin_lambda
        self._constants = _k.maclaurin_constants(*params, tol)
        self._asy = None

    def lattice(self, ms):
        """The row ``(m, k_mod, lam, method, terms, est_rel_err)`` of each m
        of the iterable ``ms``, lazily, with k_mod = fl(sqrt(m)): a series
        row is built in the loop, any other is ``(m, k_mod) + hybrid(k_mod,
        m)``. A NonConvergenceError names its m."""
        series = self._series
        constants = self._constants
        delta = self.delta
        hybrid = self.hybrid
        sqrt = math.sqrt
        lowest = -_HUGE
        for m in ms:
            k = sqrt(m)
            if m and k * delta < HYBRID_SWITCH:
                lam, terms, converged, est = series(constants, k, m)
                # not -inf, beyond the double range, nor NaN
                if converged and lam >= lowest:
                    yield m, k, lam, "maclaurin", terms, est
                    continue
            try:
                res = hybrid(k, m)
            except NonConvergenceError as exc:
                raise _lattice_failure(m, exc) from exc
            yield (m, k) + res

    def hybrid(self, k_mod: float, m: int | None = None) -> EvalResult:
        # k_mod = 0 takes the series, whose result is the exact zero
        if k_mod * self.delta < HYBRID_SWITCH:
            return self.maclaurin(k_mod, m)
        return self.asymptotic(k_mod)

    def maclaurin(self, k_mod: float, m: int | None = None) -> EvalResult:
        if k_mod == 0.0:
            return _ZERO_RESULT
        kd = k_mod * self.delta
        if not kd <= MACLAURIN_KDELTA_MAX:
            if kd * kd == math.inf:
                why = "(k*delta)^2 exceeds the double range"
            else:
                why = f"the series is summed up to k*delta={MACLAURIN_KDELTA_MAX:g} only"
            raise NonConvergenceError(
                f"series cannot start at k*delta={kd:g}: {why}",
                result=EvalResult(math.nan, "maclaurin", 0, math.inf),
            )
        value, terms, converged, est = self._series(self._constants, k_mod, m)
        if value == -math.inf:
            raise _beyond_double_range(self.d, self.alpha, self.delta, kd)
        result = EvalResult(value, "maclaurin", terms, est)
        if not converged:
            raise NonConvergenceError(
                f"series reached the end of its coefficient table at "
                f"k*delta={kd:g} (est {est:.2e})",
                result=result,
            )
        return result

    def asymptotic(self, k_mod: float) -> EvalResult:
        if k_mod == 0.0:
            raise ValueError("lambda_asymptotic requires k_mod > 0")
        d = self.d
        alpha = self.alpha
        delta = self.delta
        if self._asy is None:
            self._asy = (
                _k.gamma(0.5 * d),
                2.0 * _k.gamma(0.5 * d + 1.0) * (d + 2.0 - alpha),
                _lommel_terms(0.5 * (d - 2.0 - 2.0 * alpha), 0.5 * (d - 4.0)),
                _lommel_terms(0.5 * (d - 2.0 * alpha), 0.5 * (d - 2.0)),
            )
        ghalf, c, lommel1, lommel2 = self._asy
        kd = k_mod * delta
        if kd < math.inf:
            log_y = math.log(2.0 / kd)
        else:
            # k*delta left the double range, so only the tail branch below
            # applies, and it needs log(k*delta) alone
            log_y = _LOG2 - (math.log(k_mod) + math.log(delta))

        try:
            part_a, t = _asy_gamma_part(d, alpha, ghalf, log_y)
        except OverflowError:
            # (kd/2)^(alpha-d) left the double range. At alpha < d that is a tiny
            # kd, where part_a and part_b cancel; at alpha > d it needs kd far
            # beyond ASYMPTOTIC_TAIL_CUTOFF, so part_a is all of lambda
            if alpha < d:
                raise _intermediate_beyond_double_range(d, alpha, kd) from None
            lam, est = _huge_gamma_part_in_logs(d, alpha, delta, log_y, kd)
            return _asymptotic_result(lam, 0, est)
        if kd >= ASYMPTOTIC_TAIL_CUTOFF:
            # the rounding of the exponent (kd/2)^(alpha-d) in part_a dominates
            log_kd = math.log(kd) if kd < math.inf else _LOG2 - log_y
            est = 1e-15 + _EPS * abs(alpha - d) * log_kd
            lam = _over_delta_squared(c, part_a, d, alpha, delta, kd)
            return _asymptotic_result(lam, 0, est)
        try:
            s1 = _lommel(lommel1, kd, DEFAULT_TOL)
            s2 = _lommel(lommel2, kd, DEFAULT_TOL)
            w = 2.0 ** (0.5 * d) * kd ** (alpha + 1.0 - d)
        except (OverflowError, ValueError) as exc:
            # only a tiny kd gets here: z = kd^2/4 underflows, or a power of kd
            # overflows
            raise _intermediate_beyond_double_range(d, alpha, kd) from exc
        j1, j2 = _k.bessel_j(d - 2, kd)
        part_b = w * ((d - 2.0 - alpha) * j1 * s1.value - j2 * s2.value)
        lam = _over_delta_squared(c, part_a + part_b, d, alpha, delta, kd)
        # the absolute error of each part over |part_a + part_b|: part_a through
        # the rounding of its exponent t, each Bessel-Lommel product through its
        # Lommel estimate and an absolute error of J. Against mpmath, J errs by
        # at most 8 eps sqrt(2/(pi kd)).
        j_err = 8.0 * _EPS * math.sqrt(2.0 / (math.pi * kd))
        err = abs(part_a) * 4.0 * _EPS * (1.0 + abs(t)) + abs(w) * (
            abs((d - 2.0 - alpha) * s1.value) * (abs(j1) * (s1.est_rel_err + 2.0 * _EPS) + j_err)
            + abs(s2.value) * (abs(j2) * (s2.est_rel_err + 2.0 * _EPS) + j_err)
        )
        total = abs(part_a + part_b)
        if total > 0.0 and kd >= ASYMPTOTIC_KDELTA_MIN:
            est = err / total + 4.0 * _EPS
        else:
            est = math.inf
        result = _asymptotic_result(lam, max(s1.order, s2.order), est)
        if not (s1.converged and s2.converged):
            raise NonConvergenceError(
                f"Lommel resummation stalled at k*delta={kd:g} "
                f"(est {result.est_rel_err:.2e})",
                result=result,
            )
        if lam != lam:
            # at a tiny kd, where an infinite product of J and S meets another
            # in part_b, or J itself overflowed
            raise _intermediate_beyond_double_range(d, alpha, kd)
        return result


def achievable_squared_norms(d: int, kmax: int) -> list[int]:
    """All m = k_1^2 + ... + k_d^2 with each |k_i| <= kmax, ascending: the
    list of the one enumeration ``lattice_spectrum`` reads lazily.

    Computed coordinate by coordinate as a bitset convolution, never by
    enumerating the (2*kmax+1)^d lattice points: the first coordinate's
    bitset is set byte by byte, and the set bits of the last are read from
    its binary digits at C speed. It has d kmax^2 bits: d and kmax are
    bounded as in ``lattice_spectrum``, by D_MAX and LATTICE_KMAX_LIMIT.
    """
    _check_int("d", d, 1, D_MAX)
    _check_int("kmax", kmax, 0, LATTICE_KMAX_LIMIT)
    return list(_squared_norms(d, kmax))


def _squared_norms(d: int, kmax: int):
    """The achievable m of checked (d, kmax), ascending, as an iterator over
    the d kmax^2 + 1 digit bytes of the bitset: it holds no object per m."""
    squares = [j * j for j in range(kmax + 1)]
    first = bytearray((kmax * kmax >> 3) + 1)
    for s in squares:
        first[s >> 3] |= 1 << (s & 7)
    acc = int.from_bytes(first, "little")
    for _ in range(d - 1):
        nxt = 0
        for s in squares:
            nxt |= acc << s
        acc = nxt
    # digit m of the reversed binary string is bit m
    digits = bin(acc)[:1:-1].encode().translate(_BIT_OF_DIGIT)
    return itertools.compress(range(len(digits)), digits)


def _lattice_failure(m: int, exc: NonConvergenceError) -> NonConvergenceError:
    return NonConvergenceError(
        f"lattice evaluation failed at m={m}: {exc}", result=exc.result
    )


def _lattice_row(params: KernelParams, tol: float, m: int) -> tuple:
    """The row of m of ``_Evaluator.lattice``, in a worker process. Its
    NonConvergenceError names m here: the pool drops a failing chunk's rows,
    so the caller cannot count them."""
    k = math.sqrt(m)
    try:
        return (m, k) + _Evaluator(params, tol).hybrid(k, m)
    except NonConvergenceError as exc:
        raise _lattice_failure(m, exc) from exc


def _lattice_entries(params: KernelParams, kmax: int, tol: float, jobs: int):
    """The rows of ``_Evaluator.lattice`` over the lattice, ascending in m,
    from arguments checked before the first. In one process they are
    computed as they are read, with no object kept per m; worker processes
    compute them all, from the list of m, before the first is read."""
    _check_params(params)
    _check_int("kmax", kmax, 0, LATTICE_KMAX_LIMIT)
    _check_int("jobs", jobs, 1)
    tol = _check_tol(tol)
    ms = _squared_norms(params.d, kmax)
    if jobs > 1:
        ms = list(ms)
        if len(ms) > 1:
            # imported on first use: it adds about 20 ms to every package import
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                # results arrive in the order of ms
                return list(pool.map(
                    _lattice_row, itertools.repeat(params), itertools.repeat(tol), ms,
                    chunksize=max(1, len(ms) // (jobs * 8)),
                ))
    return _Evaluator(params, tol).lattice(ms)


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
    table is identical for any worker count. A row is ``lambda_hybrid`` at
    k_mod = fl(sqrt(m)) but for the series, which sums at |k|^2 = m
    exactly (y_num = m dn^2 with delta = dn / dq, see
    ``_purepy.maclaurin_lambda``) and forms lambda = -(m F) in one
    rounding: a series row may differ from ``lambda_hybrid``'s by up to
    about 4e-16 relative. In one process the series rows with m > 0 go from
    the evaluator's ``lattice`` loop straight to the series kernel, the
    other rows, as every row of a worker, through ``hybrid``. A
    NonConvergenceError names its m. The table holds one entry per m, made
    from the loop's row; the ``spectrum`` command writes the same rows from
    the same loop as they are computed, and holds none.
    """
    rows = _lattice_entries(params, kmax, tol, jobs)
    entries = {row[0]: tuple.__new__(EvalResult, row[2:]) for row in rows}
    return SpectrumTable(params=params, kmax=kmax, entries=entries)


def _wavevector(kvec, d: int) -> tuple[int, ...]:
    """The int tuple of a wavevector key of ``apply_to_fourier_coeffs``, or a
    ValueError naming the key, raised from None: a memo miss may lead here."""
    try:
        kt = tuple(map(int, kvec))
    except (OverflowError, ValueError):  # an infinite or NaN entry
        kt = None
    except TypeError:  # not iterable, or an entry that is not a number
        raise ValueError(f"wavevector {kvec!r} is not a sequence of numbers") from None
    # a tuple key of integral entries equals kt; a key of another
    # sequence type never does, so its entries are compared as a tuple
    if kt != kvec and kt != tuple(kvec):
        raise ValueError(f"wavevector {kvec!r} has a non-integral entry") from None
    if len(kt) != d:
        raise ValueError(f"wavevector {kvec!r} does not have d={d} entries") from None
    if any(abs(c) > LATTICE_KMAX_LIMIT for c in kt):
        raise ValueError(
            f"wavevector {kvec!r} exceeds |k|_inf <= {LATTICE_KMAX_LIMIT}"
        ) from None
    return kt


def apply_to_fourier_coeffs(
    params: KernelParams,
    coeffs: Mapping[tuple[int, ...], complex],
    tol: float = DEFAULT_TOL,
) -> dict[tuple[int, ...], complex]:
    """Multiply each Fourier amplitude by its eigenvalue.

    The operator acts diagonally on Fourier modes, so this is a pointwise
    multiply with an m-deduplicated eigenvalue cache shared across the call.
    Each eigenvalue is ``lambda_hybrid`` at k_mod = fl(sqrt(m)), so a series
    one sums at fl(sqrt(m))^2, not at m as ``lattice_spectrum`` does, and
    may differ from that table's row of m by up to about 4e-16 relative.
    A coordinate memo maps each coordinate value that passed the
    LATTICE_KMAX_LIMIT check in this call to its square, and m = |k|^2 is
    summed from it; a plain tuple of d entries is checked once per distinct
    coordinate, when one misses the memo. An entry that hits it equals a
    checked int, so only its type can be wrong (2.0, True, an IntEnum): one
    scan of the output keys after the pass finds these, and only then is
    each such key converted to its int tuple, in place. A key that is a
    plain tuple of d exact ints is its own output key; any other key comes
    back as its int tuple.
    Output is in the order of ``coeffs``; an invalid wavevector, or an item
    of ``coeffs.items()`` that is not a pair, raises ValueError when the
    pass reaches it.
    """
    _check_params(params)
    tol = _check_tol(tol)
    try:
        items = coeffs.items
    except AttributeError:
        raise ValueError(
            f"coeffs must be a mapping of wavevector to amplitude, got {type(coeffs)!r}"
        ) from None
    d = params.d
    cache: dict[int, float] = {}
    squares: dict[int, int] = {}
    square = squares.__getitem__
    out: dict[tuple[int, ...], complex] = {}
    try:
        for kvec, amp in items():
            # a short key of checked coordinates would give a wrong m
            if type(kvec) is not tuple or len(kvec) != d:
                kvec = _wavevector(kvec, d)
            try:
                m = sum(map(square, kvec))
            except (KeyError, TypeError):  # a coordinate not checked yet in this call
                kt = _wavevector(kvec, d)  # also raises on an unhashable entry
                for c in kt:
                    squares[c] = c * c
                m = sum(map(square, kt))
            try:
                lam = cache[m]
            except KeyError:
                lam = cache[m] = lambda_hybrid(params, math.sqrt(m), tol).lam
            try:
                out[kvec] = amp * lam
            except TypeError:
                raise ValueError(
                    f"amplitude {amp!r} of wavevector {_wavevector(kvec, d)!r} is not a number"
                ) from None
    except (TypeError, ValueError) as exc:
        # only an item that does not unpack into a pair fails in this frame
        # itself: every other error of the loop is raised by a call, or is
        # the amplitude's, raised from None
        if exc.__traceback__.tb_next is None and not exc.__suppress_context__:
            for item in items():  # name the first item that is not a pair
                try:
                    _, _ = item
                except (TypeError, ValueError):
                    raise ValueError(
                        f"coeffs.items() yielded {item!r}, not a (wavevector, amplitude) pair"
                    ) from None
        raise
    # a memo hit is an entry equal to a checked int, so only its type can be
    # wrong: 2.0, True, an IntEnum, Fraction(2) or Decimal(2)
    only_ints = {int}.issuperset
    if not only_ints(map(type, itertools.chain.from_iterable(out))):
        out = {k if only_ints(map(type, k)) else _wavevector(k, d): v for k, v in out.items()}
    return out

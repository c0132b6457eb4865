"""Drummond's sequence transformation and Lommel function evaluation.

Drummond's transformation resums a (possibly divergent) series from its
partial sums s_n:

    T_n^(k) = Delta^k (s_n / Delta s_n) / Delta^k (1 / Delta s_n)

For the hypergeometric-type terms a_k = (alpha)_k (beta)_k / (-z)^k the
numerators and denominators both satisfy a four-term recurrence in k, which
the kernel in ``nlspectra._purepy`` advances in O(1) work per order: its
order-only coefficients are tabulated already divided by the leading one,
so each order is one multiply-add per term, with no division. Besides the
speedup over the O(k^2) finite-difference form (kept as a reference in
``nlspectra.oracle``), the recurrence is what keeps high orders numerically
stable. A series with alpha or beta a nonpositive integer -m terminates
and is summed exactly. Lommel functions of the second kind,
``lommel_s(mu, nu, x)`` with the orders as plain floats, are evaluated by
resumming their divergent large-argument expansion.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from ._backend import kernels as _k
from .errors import NonConvergenceError

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_KMAX",
    "ORDER_LIMIT",
    "HypTerm2F0",
    "TransformResult",
    "drummond_2f0",
    "drummond_2f0_at_order",
    "lommel_s",
]

Scalar = float | complex

#: Stopping tolerance 10 * machine epsilon.
DEFAULT_TOL = 10.0 * sys.float_info.epsilon
#: Order cap; convergence typically needs a few tens of orders.
DEFAULT_KMAX = 500
#: Largest k_max, fixed order and start index n; a call's cached table has at
#: most 4,999 rows.
ORDER_LIMIT = 5000


class _Record:
    """Mixin of the package's records, immutable named tuples: a record
    equals only a record of its own type, so a plain tuple of the same
    values compares unequal to it, either way round."""

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return type(other) is not type(self) or tuple.__ne__(self, other)


class HypTerm2F0(_Record, namedtuple("HypTerm2F0", "alpha beta z")):
    """Term family a_k = (alpha)_k (beta)_k / (-z)^k; alpha, beta and z are
    real or complex."""

    __slots__ = ()

    def terms(self, count: int) -> list[Scalar]:
        """[a_0, ..., a_{count-1}]; [] for count 0."""
        _check_int("count", count, 0)
        out: list[Scalar] = [1.0]
        a: Scalar = 1.0
        for j in range(count - 1):
            a = a * (self.alpha + j) * (self.beta + j) / (-self.z)
            out.append(a)
        return out if count else []

    def is_real(self) -> bool:
        return all(complex(p).imag == 0.0 for p in (self.alpha, self.beta, self.z))


class TransformResult(_Record, namedtuple("TransformResult", "value order converged est_rel_err")):
    """Outcome of a resummation."""

    __slots__ = ()


def _terminating_at(alpha, beta, shown) -> int | None:
    """The least m where alpha or beta is the nonpositive integer -m, so that
    a_k = 0 for all k > m; else None. ValueError, naming ``shown``, where
    alpha or beta is not finite."""
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {shown[0]}, {shown[1]}")
    ms = [-int(p.real) for p in (alpha, beta)
          if p.imag == 0.0 and p.real <= 0.0 and p.real.is_integer()]
    return min(ms, default=None)


def _kernel_args(
    term: HypTerm2F0, n: int, order: int | None
) -> tuple[tuple[Scalar, Scalar, Scalar], int | None]:
    """Validate (term, n), n in [0, ORDER_LIMIT], coerce the kernel
    arguments and screen for termination.

    Returns (args, m). ``args`` is (alpha, beta, z), all float when the
    parameters are real and all complex when not. ``m`` is set when the
    wanted approximant is the terminal partial sum s_m: with alpha or beta
    = -m the weights a_{n+1}..a_{n+order+1} contain a vanishing term once
    n + order >= m (``order=None``: at any order). Otherwise it is None.
    """
    _check_int("n", n, 0, ORDER_LIMIT)
    alpha = _number(term.alpha, complex, "alpha")
    beta = _number(term.beta, complex, "beta")
    z = _number(term.z, complex, "z")
    if z == 0:
        raise ValueError("z = 0: the series has no meaningful resummation")
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {term.z}")
    m = _terminating_at(alpha, beta, term)
    if m is not None and order is not None and n + order < m:
        m = None
    if alpha.imag == 0.0 and beta.imag == 0.0 and z.imag == 0.0:
        return (alpha.real, beta.real, z.real), m
    return (alpha, beta, z), m


def _resum(
    args: tuple[Scalar, Scalar, Scalar], m: int | None, n: int, tol: float, k_max: int
):
    """The kernel's (value, order, converged, est_rel_err) for T_n, or for
    the exact sum s_m where ``m`` marks a terminating series.

    A terminal sum takes at most k_max terms; a cut-off or non-finite one is
    returned as it stands, with converged=False and est_rel_err=inf. A
    complete one estimates the rounding of its additions, eps sum|a_j| / |s|
    with the sum correctly rounded (inf where s = 0).
    """
    if m is None:
        return _k.drummond_2f0(*args, n, tol, k_max)
    terms = min(m + 1, k_max)
    value = _k.drummond_2f0_fixed(*args, terms - 1, 0)
    if terms == m + 1 and cmath.isfinite(value):
        if not value:
            return value, terms, True, math.inf
        # fsum, not sum, which compensates from Python 3.12 on only
        total = math.fsum(map(abs, HypTerm2F0(*args).terms(terms)))
        return value, terms, True, sys.float_info.epsilon * total / abs(value)
    return value, terms, False, math.inf


def _underflow_error(term: HypTerm2F0, n: int) -> ValueError:
    """The error for a recurrence of a series that does not terminate and
    has no finite start: a term a_(n+1), or a coefficient
    (alpha+n+k+1)(beta+n+k+1), underflowed to 0, or 1/a_(n+1) or the first
    denominator overflowed. The parameters within 1e-150 of a nonpositive
    integer are named as the cause, or else z."""
    near = [
        f"{name}={p!r}"
        for name, p in (("alpha", term.alpha), ("beta", term.beta))
        if abs(complex(p) - min(0, round(complex(p).real))) < 1e-150
    ]
    if near:
        cause = " and ".join(near) + " within 1e-150 of a nonpositive integer"
    else:
        cause = f"z={term.z!r}"
    return ValueError(
        f"a term a_(n+1) or a recurrence coefficient (alpha+n+k+1)(beta+n+k+1) "
        f"underflows to 0, or 1/a_(n+1) or the first denominator overflows, "
        f"at n={n} ({cause})"
    )


def _check_tol(tol) -> float:
    """The float of ``tol``, or a ValueError naming it where that is not a
    number or lies below machine epsilon."""
    t = _number(tol)
    if t is None or not t >= sys.float_info.epsilon:
        raise ValueError(f"tol must be >= machine epsilon, got {tol!r}")
    return t


def _number(value, kind=float, name: str | None = None):
    """kind(value), ``kind`` being float or complex: the package's one
    conversion of a numeric argument. None where value is not a number (a
    string, which kind() would parse, or a value kind() rejects, such as a
    signaling NaN) or lies beyond the double range (an int or Fraction that
    kind() cannot round); with ``name``, a ValueError naming the argument."""
    why = None
    if not isinstance(value, str):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
        except OverflowError:
            why = "lie within the double range"
    if name is None:
        return None
    if why is None:
        why = "be a real number" if kind is float else "be a number"
    raise ValueError(f"{name} must {why}, got {value!r}")


def _check_int(name: str, value, low: int, high: float = math.inf) -> None:
    """ValueError naming the argument unless ``value`` is an int, and not a
    bool, in [low, high]."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bounds}, got {value}")


def drummond_2f0(
    term: HypTerm2F0,
    n: int = 0,
    tol: float = DEFAULT_TOL,
    k_max: int = DEFAULT_KMAX,
) -> TransformResult:
    """Resum sum_k (alpha)_k (beta)_k / (-z)^k via the four-term recurrence.

    Stops once two consecutive approximant differences fall below
    tol * |T|. Terminating series (alpha or beta a nonpositive integer -m)
    are summed exactly and report order m+1, the number of terms; past
    ``k_max`` terms, or where the sum overflows, the partial sum is returned
    with ``converged=False`` and ``est_rel_err=inf``. On hitting ``k_max``
    the best value is returned with ``converged=False``; no exception is
    raised. ``k_max`` lies in [2, ORDER_LIMIT] and ``n`` in [0, ORDER_LIMIT].
    tol and the parameters may be any number float() (complex()) converts
    but a str; the resummation sees only that value.
    """
    tol = _check_tol(tol)
    _check_int("k_max", k_max, 2, ORDER_LIMIT)
    args, m = _kernel_args(term, n, None)
    try:
        value, order, converged, est = _resum(args, m, n, tol, k_max)
    except ZeroDivisionError:
        raise _underflow_error(term, n) from None
    return TransformResult(value, order, bool(converged), est)


def drummond_2f0_at_order(term: HypTerm2F0, n: int, order: int) -> Scalar:
    """T_n^(order), n and order in [0, ORDER_LIMIT], with no early exit; NaN
    at a pole."""
    _check_int("order", order, 0, ORDER_LIMIT)
    args, m = _kernel_args(term, n, order)
    if m is not None:
        # the terminal partial sum s_m is the kernel's prelude alone
        n, order = m, 0
    try:
        return _k.drummond_2f0_fixed(*args, n, order)
    except ZeroDivisionError:
        raise _underflow_error(term, n) from None


def _lommel_terms(mu: float, nu: float) -> tuple:
    """(mu, a, b, m) of S_{mu,nu}(x) ~ x^(mu-1) sum_k (a)_k (b)_k / (-z)^k,
    a = (1-mu+nu)/2, b = (1-mu-nu)/2, z = x^2/4, m its terminal index
    (``_terminating_at``): what ``_lommel`` takes of (mu, nu). ValueError
    where a or b is not finite."""
    a = 0.5 * (1.0 - mu + nu)
    b = 0.5 * (1.0 - mu - nu)
    return mu, a, b, _terminating_at(a, b, (a, b))


def _lommel(terms: tuple, x: float, tol: float) -> TransformResult:
    """Resummation of S_{mu,nu}(x) from its ``_lommel_terms``; its ``value``
    is S itself. Float arguments only; ``tol`` is taken as already checked.
    Raises ValueError naming x at tiny x, where z = x^2/4 underflows to 0
    or x^(mu-1) overflows. The estimate adds eps |mu-1| |ln x| to the
    resummation's, for the rounded exponent of x^(mu-1).
    """
    mu, a, b, m = terms
    z = 0.25 * x * x
    if z == 0.0:
        raise _tiny_argument_error(x)
    value, order, converged, est = _resum((a, b, z), m, 0, tol, DEFAULT_KMAX)
    try:
        value *= x ** (mu - 1.0)
    except OverflowError:
        raise _tiny_argument_error(x) from None
    est += sys.float_info.epsilon * abs(mu - 1.0) * abs(math.log(x))
    return TransformResult(value, order, bool(converged), est)


def _tiny_argument_error(x: float) -> ValueError:
    return ValueError(
        f"z = x^2/4 or x^(mu-1) of the Lommel expansion leaves the double range at x={x!r}"
    )


def lommel_s(mu: float, nu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Lommel function S_{mu,nu}(x) by resummation of its divergent expansion.

    Reliable for x of a few and beyond. ``lambda_hybrid`` resums the same
    expansion from x = k*delta = 40 on, a direct ``lambda_asymptotic`` at any
    x (its estimate inf below 5). Raises NonConvergenceError, carrying the
    TransformResult, when the resummation cannot reach ``tol`` within
    ``DEFAULT_KMAX`` orders. A tol looser than ``DEFAULT_TOL`` acts as
    ``DEFAULT_TOL``: at a looser one the stopping rule can fire while the
    approximants are still far from their limit. The estimate covers the
    rounding, which grows with the order. Where S falls below the normal
    doubles (x^(mu-1) at large x and negative mu) it comes back as 0 or a
    subnormal, accurate only in absolute terms, with ``converged`` set and
    the estimate of the resummation. Raises ValueError naming x where x is
    so small that z = x^2/4 underflows to 0 or x^(mu-1) overflows, or where
    z is not finite, and naming mu, nu or x where it is not a real number.
    mu, nu, x and tol may be any number float() converts but a str; the
    resummation sees only their float().
    """
    mu, nu, x = _number(mu, float, "mu"), _number(nu, float, "nu"), _number(x, float, "x")
    if x <= 0.0:
        raise ValueError(f"lommel_s requires x > 0, got {x}")
    tol = _check_tol(tol)
    if not 0.25 * x * x < math.inf:
        raise ValueError(f"z must be finite, got x^2/4 at x={x!r}")
    res = _lommel(_lommel_terms(mu, nu), x, min(tol, DEFAULT_TOL))
    if not res.converged:
        raise NonConvergenceError(
            f"Lommel S resummation stalled at order {res.order} "
            f"(mu={mu}, nu={nu}, x={x}, est {res.est_rel_err:.2e})",
            result=res,
        )
    return res.value

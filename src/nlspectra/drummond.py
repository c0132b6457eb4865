"""Drummond's sequence transformation and Lommel function evaluation.

Drummond's transformation resums a (possibly divergent) series from its
partial sums s_n:

    T_n^(k) = Delta^k (s_n / Delta s_n) / Delta^k (1 / Delta s_n)

For the hypergeometric-type terms a_k = (alpha)_k (beta)_k / (-z)^k the
numerators and denominators both satisfy a four-term recurrence in k, which
the kernel in ``nlspectra._purepy`` advances in O(1) work per order; besides
the speedup over the O(k^2) finite-difference form (kept as a reference in
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
from dataclasses import dataclass
from typing import Union

from ._backend import kernels as _k
from .errors import NonConvergenceError

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_KMAX",
    "HypTerm2F0",
    "TransformResult",
    "drummond_2f0",
    "drummond_2f0_at_order",
    "lommel_s",
]

Scalar = Union[float, complex]

#: Stopping tolerance 10 * machine epsilon.
DEFAULT_TOL = 10.0 * sys.float_info.epsilon
#: Order cap; convergence typically needs a few tens of orders.
DEFAULT_KMAX = 500


@dataclass(frozen=True)
class HypTerm2F0:
    """Term family a_k = (alpha)_k (beta)_k / (-z)^k."""

    alpha: complex
    beta: complex
    z: complex

    def terms(self, count: int) -> list[Scalar]:
        """[a_0, ..., a_{count-1}]."""
        out: list[Scalar] = [1.0]
        a: Scalar = 1.0
        for j in range(count - 1):
            a = a * (self.alpha + j) * (self.beta + j) / (-self.z)
            out.append(a)
        return out

    def is_real(self) -> bool:
        return all(complex(p).imag == 0.0 for p in (self.alpha, self.beta, self.z))


@dataclass
class TransformResult:
    """Outcome of a resummation."""

    value: Scalar
    order: int
    converged: bool
    est_rel_err: float


def _terminal_index(alpha, beta, z, n: int, order: int | None, shown) -> int | None:
    """Validate (alpha, beta, z) and screen for termination.

    ``alpha``, ``beta`` and ``z`` are all float or all complex; ``shown``
    holds them as the caller gave them, for the error messages. Returns m
    when the wanted approximant is the terminal partial sum s_m: with alpha
    or beta = -m the weights a_{n+1}..a_{n+order+1} contain a vanishing term
    once n + order >= m (``order=None``: at any order). Otherwise None.
    """
    if z == 0:
        raise ValueError("z = 0: the series has no meaningful resummation")
    if not cmath.isfinite(z):
        raise ValueError(f"z must be finite, got {shown[2]}")
    if not (cmath.isfinite(alpha) and cmath.isfinite(beta)):
        raise ValueError(f"alpha and beta must be finite, got {shown[0]}, {shown[1]}")
    # a_k = 0 for all k > m when alpha or beta is the nonpositive integer -m
    m = None
    for p in (alpha, beta):
        if p.imag == 0.0 and p.real <= 0.0 and p.real.is_integer():
            if m is None or -p.real < m:
                m = -int(p.real)
    if m is not None and (order is None or n + order >= m):
        return m
    return None


def _kernel_args(
    term: HypTerm2F0, n: int, order: int | None
) -> tuple[tuple[Scalar, Scalar, Scalar], int | None]:
    """Validate (term, n), coerce the kernel arguments and screen for
    termination.

    Returns (args, m). ``args`` is (alpha, beta, z), all float when the
    parameters are real and all complex when not; ``m`` is the terminal
    index of ``_terminal_index``.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    alpha, beta, z = complex(term.alpha), complex(term.beta), complex(term.z)
    m = _terminal_index(alpha, beta, z, n, order, (term.alpha, term.beta, term.z))
    if alpha.imag == 0.0 and beta.imag == 0.0 and z.imag == 0.0:
        return (alpha.real, beta.real, z.real), m
    return (alpha, beta, z), m


def _resum(
    args: tuple[Scalar, Scalar, Scalar], m: int | None, n: int, tol: float, k_max: int
):
    """The kernel's (value, order, converged, est_rel_err) for T_n, or for
    the exact sum s_m where ``m`` marks a terminating series.

    A terminal sum takes at most k_max terms; a cut-off or non-finite one is
    returned as it stands, with converged=False and est_rel_err=inf.
    """
    if m is None:
        return _k.drummond_2f0(*args, n, tol, k_max)
    terms = min(m + 1, k_max)
    value = _k.drummond_2f0_fixed(*args, terms - 1, 0)
    if terms == m + 1 and cmath.isfinite(value):
        return value, terms, True, 0.0
    return value, terms, False, math.inf


def _check_tol(tol: float) -> None:
    if not tol >= sys.float_info.epsilon:
        raise ValueError(f"tol must be >= machine epsilon, got {tol}")


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
    raised.
    """
    _check_tol(tol)
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    args, m = _kernel_args(term, n, None)
    value, order, converged, est = _resum(args, m, n, tol, k_max)
    return TransformResult(value, order, bool(converged), est)


def drummond_2f0_at_order(term: HypTerm2F0, n: int, order: int) -> Scalar:
    """T_n^(order) with no early exit; NaN where the approximant has a pole."""
    if order < 0:
        raise ValueError(f"order must be >= 0, got {order}")
    args, m = _kernel_args(term, n, order)
    if m is not None:
        # the terminal partial sum s_m is the kernel's prelude alone
        n, order = m, 0
    return _k.drummond_2f0_fixed(*args, n, order)


def _lommel(mu: float, nu: float, x: float, tol: float) -> TransformResult:
    """Resummation of S_{mu,nu}(x) ~ x^(mu-1) sum_k (a)_k (b)_k / (-z)^k,
    a = (1-mu+nu)/2, b = (1-mu-nu)/2, z = x^2/4; its ``value`` is S itself.

    Float arguments only; ``tol`` is taken as already checked.
    """
    args = (0.5 * (1.0 - mu + nu), 0.5 * (1.0 - mu - nu), 0.25 * x * x)
    m = _terminal_index(*args, 0, None, args)
    value, order, converged, est = _resum(args, m, 0, tol, DEFAULT_KMAX)
    return TransformResult(x ** (mu - 1.0) * value, order, bool(converged), est)


def lommel_s(mu: float, nu: float, x: float, tol: float = DEFAULT_TOL) -> float:
    """Lommel function S_{mu,nu}(x) by resummation of its divergent expansion.

    Reliable for x of a few and beyond (the eigenvalue formulas call it
    with x >= 6); raises NonConvergenceError, carrying the TransformResult,
    when the resummation cannot reach ``tol`` within ``DEFAULT_KMAX`` orders.
    """
    if x <= 0.0:
        raise ValueError(f"lommel_s requires x > 0, got {x}")
    _check_tol(tol)
    res = _lommel(mu, nu, x, tol)
    if not res.converged:
        raise NonConvergenceError(
            f"Lommel S resummation stalled at order {res.order} "
            f"(mu={mu}, nu={nu}, x={x}, est {res.est_rel_err:.2e})",
            result=res,
        )
    return res.value

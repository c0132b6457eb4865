"""Drummond's sequence transformation and Lommel function evaluation.

Drummond's transformation resums a (possibly divergent) series from its
partial sums s_n:

    T_n^(k) = Delta^k (s_n / Delta s_n) / Delta^k (1 / Delta s_n)

For the hypergeometric-type terms a_k = (alpha)_k (beta)_k / (-z)^k the
numerators and denominators both satisfy a four-term recurrence in k, which
the kernel in ``nlspectra._purepy`` advances in O(1) work per order; besides
the speedup over the O(k^2) finite-difference form (kept as a reference in
``nlspectra.oracle``), the recurrence is what keeps high orders numerically
stable. Lommel functions of the second kind are evaluated by resumming
their divergent large-argument expansion.
"""

from __future__ import annotations

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
    "LommelOrder",
    "drummond_2f0",
    "drummond_2f0_at_order",
    "lommel_s",
]

Scalar = Union[float, complex]

#: Stopping tolerance 10 * machine epsilon.
DEFAULT_TOL = 10.0 * sys.float_info.epsilon
#: Order cap; convergence typically needs a few tens of orders.
DEFAULT_KMAX = 500


def _nonpositive_int(value: Scalar) -> int | None:
    """-value if value is exactly a nonpositive integer, else None."""
    c = complex(value)
    if c.imag != 0.0:
        return None
    r = c.real
    if r > 0.0 or r != int(r):
        return None
    return -int(r)


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

    def termination_index(self) -> int | None:
        """m such that a_k = 0 for all k > m, or None if non-terminating."""
        best = None
        for p in (self.alpha, self.beta):
            m = _nonpositive_int(p)
            if m is not None and (best is None or m < best):
                best = m
        return best

    def is_real(self) -> bool:
        return all(complex(p).imag == 0.0 for p in (self.alpha, self.beta, self.z))


@dataclass
class TransformResult:
    """Outcome of a resummation."""

    value: Scalar
    order: int
    converged: bool
    est_rel_err: float


@dataclass(frozen=True)
class LommelOrder:
    """Order pair (mu, nu) of the Lommel function S_{mu,nu}."""

    mu: float
    nu: float

    def hyp_term(self, x: float) -> HypTerm2F0:
        """Terms of the large-argument expansion of S_{mu,nu}(x)/x^(mu-1)."""
        return HypTerm2F0(
            alpha=0.5 * (1.0 - self.mu + self.nu),
            beta=0.5 * (1.0 - self.mu - self.nu),
            z=0.25 * x * x,
        )


def _kernel_args(
    term: HypTerm2F0, n: int, order: int | None
) -> tuple[tuple[Scalar, Scalar, Scalar], int | None]:
    """Validate (term, n), coerce the kernel arguments and screen for
    termination.

    Returns (args, m). ``args`` is (alpha, beta, z), all float when the
    parameters are real and all complex when not. ``m`` is set when the
    wanted approximant is the terminal partial sum s_m: with alpha or
    beta = -m the weights a_{n+1}..a_{n+order+1} contain a vanishing term
    once n + order >= m (``order=None``: at any order). Otherwise it is None.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    alpha, beta, z = complex(term.alpha), complex(term.beta), complex(term.z)
    if z == 0:
        raise ValueError("z = 0: the series has no meaningful resummation")
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {term.z}")
    if alpha.imag == 0.0 and beta.imag == 0.0 and z.imag == 0.0:
        args = (alpha.real, beta.real, z.real)
    else:
        args = (alpha, beta, z)
    m = term.termination_index()
    if m is not None and (order is None or n + order >= m):
        return args, m
    return args, None


def drummond_2f0(
    term: HypTerm2F0,
    n: int = 0,
    tol: float = DEFAULT_TOL,
    k_max: int = DEFAULT_KMAX,
) -> TransformResult:
    """Resum sum_k (alpha)_k (beta)_k / (-z)^k via the four-term recurrence.

    Stops once two consecutive approximant differences fall below
    tol * |T|. Terminating series (alpha or beta a nonpositive integer -m)
    are summed exactly and report order m+1. On hitting ``k_max`` the best
    value is returned with ``converged=False``; no exception is raised.
    """
    if not tol >= sys.float_info.epsilon:
        raise ValueError(f"tol must be >= machine epsilon, got {tol}")
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    args, m = _kernel_args(term, n, None)
    if m is not None:
        return TransformResult(_k.drummond_2f0_fixed(*args, m, 0), m + 1, True, 0.0)
    value, order, converged, est = _k.drummond_2f0(*args, n, tol, k_max)
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


def _lommel_with_info(
    order: LommelOrder, x: float, tol: float
) -> tuple[float, int, float, bool]:
    """(S_{mu,nu}(x), resummation order, est_rel_err, converged)."""
    term = order.hyp_term(x)
    res = drummond_2f0(term, 0, tol)
    value = res.value.real if isinstance(res.value, complex) else res.value
    return x ** (order.mu - 1.0) * value, res.order, res.est_rel_err, res.converged


def lommel_s(order: LommelOrder, x: float, tol: float = DEFAULT_TOL) -> float:
    """Lommel function S_{mu,nu}(x) by resummation of its divergent expansion.

    Reliable for x of a few and beyond (the eigenvalue formulas call it
    with x >= 6); raises NonConvergenceError when the resummation cannot
    reach ``tol`` within ``DEFAULT_KMAX`` orders.
    """
    if x <= 0.0:
        raise ValueError(f"lommel_s requires x > 0, got {x}")
    value, order_used, est, converged = _lommel_with_info(order, x, tol)
    if not converged:
        raise NonConvergenceError(
            f"Lommel S resummation stalled at order {order_used} "
            f"(mu={order.mu}, nu={order.nu}, x={x}, est {est:.2e})",
            result=TransformResult(value, order_used, False, est),
        )
    return value

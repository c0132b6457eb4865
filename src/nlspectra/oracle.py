"""Reference implementations in extended precision and exact rationals.

Everything here trades speed for trustworthiness: Bessel J and Lommel S
come from mpmath, series are summed from their definitions with mpmath,
and the denominator-polynomial expansion uses exact ``fractions.Fraction``
arithmetic. The test suite and the table command's error columns use these
as ground truth; nothing on the fast path calls them, and nothing here
calls the kernels they check.

The working-precision reference form of Drummond's transformation lives
here as well: ``drummond_generic``, the O(k^2) finite-difference quotient
for arbitrary terms, the baseline of the recurrence's stability.

``BigReal`` values are mpmath floats carrying at least ``PRECISION_BITS``
of significand. The finite-difference form of Drummond's transformation
loses roughly one bit per order to numerator cancellation, so
``oracle_drummond_bigfloat`` runs ``drummond_generic`` at a working
precision that widens with the requested order.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

import mpmath
from mpmath import mp

from .drummond import HypTerm2F0, Scalar

__all__ = [
    "BigReal",
    "PRECISION_BITS",
    "oracle_gamma",
    "oracle_loggamma",
    "oracle_digamma",
    "oracle_bessel_j",
    "oracle_lommel",
    "oracle_asy_part_a",
    "oracle_lambda_maclaurin",
    "oracle_closed_form_d1_a0",
    "oracle_drummond_bigfloat",
    "oracle_denominator_poly",
    "drummond_generic",
]

PRECISION_BITS = 256

BigReal = mpmath.mpf

_ORACLE_TERM_CAP = 100_000


def oracle_gamma(x) -> BigReal:
    with mp.workprec(PRECISION_BITS):
        return mp.gamma(mp.mpf(x))


def oracle_loggamma(x) -> BigReal:
    with mp.workprec(PRECISION_BITS):
        return mp.loggamma(mp.mpf(x))


def oracle_digamma(x) -> BigReal:
    with mp.workprec(PRECISION_BITS):
        return mp.digamma(mp.mpf(x))


def oracle_bessel_j(nu, x) -> BigReal:
    """J_nu(x) by mpmath, negative integer orders included."""
    with mp.workprec(PRECISION_BITS):
        return mp.besselj(mp.mpf(nu), mp.mpf(x))


def _maclaurin_precision(kdelta: float) -> int:
    # the alternating terms peak near e^(k delta) times the sum, so about
    # k delta log2(e) bits cancel; 256 bits suffice up to k delta ~ 88
    return max(PRECISION_BITS, int(kdelta * math.log2(math.e)) + 128)


def oracle_lambda_maclaurin(params, k_mod) -> BigReal:
    """Ground-truth eigenvalue: the convergent series summed from its
    definition until terms drop below 2^-180 of the partial sum.

    Term n is (-y)^n / (n! Gamma(n + d/2)) (d + 2 - alpha) / (d + 2n - alpha),
    y = (k delta / 2)^2, with the factor (-y)^n / (n! Gamma(n + d/2)) carried
    from term n - 1. The working precision grows with k_mod * delta to
    absorb the series' cancellation. Tractable for k_mod * delta up to 2000,
    the reach of the package's series.
    """
    if k_mod and k_mod * params.delta > 2000.0:
        raise ValueError("oracle series length impractical beyond k*delta = 2000")
    with mp.workprec(_maclaurin_precision(k_mod * params.delta)):
        if k_mod == 0:
            return mp.mpf(0)
        d = params.d
        a = mp.mpf(params.alpha)
        delta = mp.mpf(params.delta)
        y = (mp.mpf(k_mod) * delta / 2) ** 2
        half_d = mp.mpf(d) / 2
        pref = 4 * mp.gamma(half_d + 1) / delta**2
        s = mp.mpf(0)
        stop = mp.mpf(2) ** -180
        g = 1 / mp.gamma(half_d)  # (-y)^n / (n! Gamma(n + d/2)) at n = 0
        for n in range(1, _ORACLE_TERM_CAP + 1):
            g *= -y / (n * (n - 1 + half_d))
            t = g * (d + 2 - a) / (d + 2 * n - a)
            s += t
            if abs(t) < stop * abs(s):
                return pref * s
        raise RuntimeError(
            f"oracle series exceeded {_ORACLE_TERM_CAP} terms at k={k_mod}"
        )


def oracle_closed_form_d1_a0(delta, k_mod) -> BigReal:
    """Closed form 6 sin(k delta)/(k delta^3) - 6/delta^2 for d=1, alpha=0."""
    with mp.workprec(PRECISION_BITS):
        k = mp.mpf(k_mod)
        delta = mp.mpf(delta)
        return 6 * mp.sin(k * delta) / (k * delta**3) - 6 / delta**2


def oracle_asy_part_a(d, alpha, kdelta) -> BigReal:
    """Gamma-ratio part of the large-k*delta formula, straight from its
    unrearranged form (limit expression at alpha = d, reduced form at
    alpha = 0)."""
    with mp.workprec(PRECISION_BITS):
        kd = mp.mpf(kdelta)
        a = mp.mpf(alpha)
        dd = mp.mpf(d)
        if alpha == 0:
            return -2 / (dd * mp.gamma(dd / 2))
        if alpha == d:
            return (
                2 * mp.log(2 / kd) + mp.digamma(1) + mp.digamma(dd / 2)
            ) / mp.gamma(dd / 2)
        return (kd / 2) ** (a - dd) * mp.gamma((dd - a) / 2) / mp.gamma(a / 2) - 2 / (
            (dd - a) * mp.gamma(dd / 2)
        )


def _drummond_precision(k: int) -> int:
    # ~1 bit of cancellation per order plus guard digits
    return max(PRECISION_BITS, int(1.3 * k) + 192)


def oracle_drummond_bigfloat(term: HypTerm2F0, n: int, k: int):
    """T_n^(k) by ``drummond_generic`` on the terms in big floats.

    Returns an mpf (mpc for complex parameters). A zero term among the
    difference weights means the series terminates; the exact terminal
    partial sum is returned.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative")
    if k > 2000:
        raise ValueError("order above 2000 is outside the oracle's remit")
    with mp.workprec(_drummond_precision(k)):
        if term.is_real():
            big = mp.mpf
            params = (complex(p).real for p in (term.alpha, term.beta, term.z))
        else:
            big = mp.mpc
            params = (term.alpha, term.beta, term.z)
        terms = HypTerm2F0(*map(big, params)).terms(n + k + 2)
        return drummond_generic(terms, n, k)


def oracle_lommel(mu, nu, x) -> BigReal:
    """S_{mu,nu}(x) by mpmath."""
    with mp.workprec(PRECISION_BITS):
        return mp.lommels2(mp.mpf(mu), mp.mpf(nu), mp.mpf(x))


def _poly_sub(p: list[Fraction], q: list[Fraction]) -> list[Fraction]:
    return [a - b for a, b in zip(p, q)]


def oracle_denominator_poly(
    alpha: Fraction, beta: Fraction, n: int, k: int
) -> list[Fraction]:
    """Coefficients (in powers of z) of the denominator Delta^k(1/a_{n+1}).

    For a_j = (alpha)_j (beta)_j / (-z)^j each 1/a_{n+j+1} is the monomial
    (-1)^(n+j+1) z^(n+j+1) / ((alpha)_{n+j+1} (beta)_{n+j+1}); the k-fold
    difference is taken with exact rational coefficients. Index i of the
    returned list is the coefficient of z^i.
    """
    if n + k > 12:
        raise ValueError("exact expansion is kept to n+k <= 12")
    alpha = Fraction(alpha)
    beta = Fraction(beta)
    deg = n + k + 2
    poch_a = Fraction(1)
    poch_b = Fraction(1)
    polys: list[list[Fraction]] = []
    for j in range(n + k + 1):
        poch_a *= alpha + j
        poch_b *= beta + j
        if j >= n:
            # 1/a_{j+1}
            coeffs = [Fraction(0)] * deg
            coeffs[j + 1] = Fraction((-1) ** (j + 1)) / (poch_a * poch_b)
            polys.append(coeffs)
    for i in range(k):
        polys = [_poly_sub(polys[j + 1], polys[j]) for j in range(len(polys) - 1)]
    return polys[0]


def drummond_generic(terms: Sequence[Scalar], n: int, k: int) -> Scalar:
    """T_n^(k) from explicit terms a_0..a_m via the finite-difference quotient.

    Needs m >= n+k+1. The difference tables are updated in place, so no
    binomial coefficients are formed. A zero term among the weights
    a_{n+1}..a_{n+k+1} is treated as series termination and the terminal
    partial sum (the transformation's exact limit there) is returned.
    """
    if n < 0 or k < 0:
        raise ValueError("n and k must be nonnegative")
    if len(terms) < n + k + 2:
        raise ValueError(
            f"need terms a_0..a_{n + k + 1} (got {len(terms)}) for n={n}, k={k}"
        )
    ps: list[Scalar] = []
    s: Scalar = 0.0
    for a in terms[: n + k + 2]:
        s = s + a
        ps.append(s)
    for j in range(k + 1):
        if terms[n + j + 1] == 0:
            return ps[n + j]
    num = [ps[n + j] / terms[n + j + 1] for j in range(k + 1)]
    den = [1.0 / terms[n + j + 1] for j in range(k + 1)]
    for i in range(k):
        for j in range(k - i):
            num[j] = num[j + 1] - num[j]
            den[j] = den[j + 1] - den[j]
    if den[0] == 0:
        raise ZeroDivisionError(f"denominator difference vanished at n={n}, k={k}")
    return num[0] / den[0]

"""Reference implementations in extended precision and exact rationals.

Everything here trades speed for trustworthiness: series are summed from
their definitions with mpmath, and the denominator-polynomial expansion
uses exact ``fractions.Fraction`` arithmetic. The test suite and the table
command's error columns use these as ground truth; nothing on the fast
path calls them.

The working-precision reference form of Drummond's transformation lives
here as well: ``drummond_generic``, the O(k^2) finite-difference quotient
for arbitrary terms, the baseline of the recurrence's stability.

``BigReal`` values are mpmath floats carrying at least ``PRECISION_BITS``
of significand. The finite-difference form of Drummond's transformation
loses roughly one bit per order to numerator cancellation, so
``oracle_drummond_bigfloat`` widens its working precision with the
requested order instead of pinning 256 bits.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mp

from .drummond import HypTerm2F0, Scalar

__all__ = [
    "BigReal",
    "PRECISION_BITS",
    "oracle_gamma",
    "oracle_loggamma",
    "oracle_digamma",
    "oracle_bessel_series",
    "oracle_lommel",
    "oracle_asy_part_a",
    "oracle_lambda_maclaurin",
    "oracle_closed_form_d1_a0",
    "oracle_drummond_bigfloat",
    "oracle_drummond_reference",
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


def oracle_bessel_series(nu, x) -> BigReal:
    """J_nu(x) summed term by term from the ascending series.

    Negative integer orders go through J_{-m} = (-1)^m J_m (the series
    itself degenerates there).
    """
    if nu < 0 and nu == int(nu):
        m = -int(nu)
        sign = -1 if m % 2 else 1
        return sign * oracle_bessel_series(m, x)
    with mp.workprec(PRECISION_BITS):
        nu = mp.mpf(nu)
        x = mp.mpf(x)
        q = -(x * x) / 4
        term = mp.mpf(1)
        s = mp.mpf(1)
        stop = mp.mpf(2) ** -200
        for j in range(1, 5001):
            term *= q / (j * (nu + j))
            s += term
            if abs(term) < stop * abs(s):
                return s * (x / 2) ** nu / mp.gamma(nu + 1)
        raise RuntimeError(f"bessel oracle series did not converge (nu={nu}, x={x})")


def oracle_lambda_maclaurin(params, k_mod) -> BigReal:
    """Ground-truth eigenvalue: the convergent series summed from its
    definition until terms drop below 2^-180 of the partial sum.

    Tractable for k_mod * delta up to around 200.
    """
    if k_mod and k_mod * params.delta > 200.0:
        raise ValueError("oracle series length impractical beyond k*delta = 200")
    with mp.workprec(PRECISION_BITS):
        if k_mod == 0:
            return mp.mpf(0)
        d = params.d
        a = mp.mpf(params.alpha)
        delta = mp.mpf(params.delta)
        y = (mp.mpf(k_mod) * delta / 2) ** 2
        pref = 4 * mp.gamma(mp.mpf(d) / 2 + 1) / delta**2
        s = mp.mpf(0)
        stop = mp.mpf(2) ** -180
        for n in range(1, _ORACLE_TERM_CAP + 1):
            t = (
                (-y) ** n
                / (mp.factorial(n) * mp.gamma(n + mp.mpf(d) / 2))
                * (d + 2 - a)
                / (d + 2 * n - a)
            )
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
    """T_n^(k) by the explicit finite-difference quotient in big floats.

    Returns an mpf (mpc for complex parameters). A zero term among the
    difference weights means the series terminates; the exact terminal
    partial sum is returned.
    """
    if k < 0 or n < 0:
        raise ValueError("n and k must be nonnegative")
    if k > 2000:
        raise ValueError("order above 2000 is outside the oracle's remit")
    complex_params = not term.is_real()
    with mp.workprec(_drummond_precision(k)):
        if complex_params:
            alpha, beta, z = mp.mpc(term.alpha), mp.mpc(term.beta), mp.mpc(term.z)
        else:
            alpha = mp.mpf(complex(term.alpha).real)
            beta = mp.mpf(complex(term.beta).real)
            z = mp.mpf(complex(term.z).real)
        terms = [mp.mpf(1) if not complex_params else mp.mpc(1)]
        for j in range(n + k + 1):
            terms.append(terms[-1] * (alpha + j) * (beta + j) / (-z))
        ps = [terms[0]]
        for t in terms[1:]:
            ps.append(ps[-1] + t)
        for j in range(k + 1):
            if terms[n + j + 1] == 0:
                return ps[n + j]
        num = [ps[n + j] / terms[n + j + 1] for j in range(k + 1)]
        den = [1 / terms[n + j + 1] for j in range(k + 1)]
        for i in range(k):
            for j in range(k - i):
                num[j] = num[j + 1] - num[j]
                den[j] = den[j + 1] - den[j]
        return num[0] / den[0]


def oracle_drummond_reference(
    term: HypTerm2F0,
    n: int = 0,
    order: int = 400,
    consistency: float = 1e-30,
):
    """High-order antilimit with a verified self-consistency bound.

    Evaluates T_n^(order) and T_n^(order-1); if their relative difference
    exceeds ``consistency`` the order is raised (up to 2000) until it does
    not, else RuntimeError.
    """
    k = order
    while True:
        t1 = oracle_drummond_bigfloat(term, n, k)
        t0 = oracle_drummond_bigfloat(term, n, k - 1)
        with mp.workprec(_drummond_precision(k)):
            gap = abs(t1 - t0) / abs(t1)
            if gap < mp.mpf(consistency):
                return t1
        if k >= 2000:
            raise RuntimeError(
                f"reference antilimit self-consistency {float(gap):.2e} "
                f"did not reach {consistency} by order {k}"
            )
        k = min(2000, int(1.5 * k))


def oracle_lommel(mu, nu, x, order: int = 200):
    """S_{mu,nu}(x) by big-float resummation of its divergent expansion."""
    term = HypTerm2F0(
        alpha=0.5 * (1.0 - mu + nu), beta=0.5 * (1.0 - mu - nu), z=0.25 * x * x
    )
    t = oracle_drummond_bigfloat(term, 0, order)
    with mp.workprec(_drummond_precision(order)):
        return mp.mpf(x) ** (mp.mpf(mu) - 1) * t


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

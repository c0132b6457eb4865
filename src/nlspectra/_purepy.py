"""Evaluation kernels: gamma, log-gamma ratio, digamma, Bessel J, the
Maclaurin series and the Drummond recurrence.

The only implementation of the numerics; ``drummond`` and ``spectra`` reach
it through ``nlspectra._backend.kernels``. Functions here assume their
arguments were already validated by those modules. ``gamma`` is the
standard library's ``math.gamma``, exact at the integers.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import sys

gamma = math.gamma

# Lanczos representation of Gamma(z+1) with shift g = 607/128 and the
# 15-coefficient table computed by Godfrey; roughly 1e-15 relative accuracy
# on the real axis for Re(z) >= -0.5. Only log_gamma_ratio reads it: a
# difference of math.lgamma values loses all relative accuracy as eps -> 0.
LANCZOS_G = 4.7421875
LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)

EULER_GAMMA = 0.5772156649015328606

_SQRT_HALF = math.sqrt(0.5)
# Integer-order J comes from the large-argument expansion from this x on.
_HANKEL_X_MIN = 28.0

# N, D in the Drummond recurrence grow factorially; a common power-of-two
# rescale leaves every approximant T = N/D bit-identical. The need for one
# is checked once every few orders, as many as the growth bounds built with
# the coefficient table (``_coefficient_table``) fit into
# _RESCALE_HEADROOM_BITS, so that between checks the largest |N| or |D|
# stays within 2^-1012..2^1012 (see ``_drummond_recurrence``).
_RESCALE_THRESHOLD = 2.0**512
_RESCALE_TINY = 2.0**-512
_RESCALE_HEADROOM_BITS = 500.0

# The rounding error of T grows with the order, so the early-exit estimate
# adds this much per order to the last approximant difference. On 300 calls
# with the Lommel parameters of the eigenvalue route (d 1..10, alpha in
# [0, d+2), k*delta in [6, 20]) at the default tol, the error stayed below
# 3.2 eps per order.
_ROUNDING_PER_ORDER = 8.0 * sys.float_info.epsilon

_LOG2E = 1.4426950408889634
# Smallest normal double, and the rounding of forming F and lambda.
_DBL_MIN = sys.float_info.min
_TWO_EPS = 2.0 * sys.float_info.epsilon
# Fractional bits of the fixed-point series beyond those its terms cancel.
_FIXED_POINT_GUARD = 64
# |F| >= _SUM_FLOOR / max((k*delta)^2, 5) (see maclaurin_lambda); the
# number of terms is first chosen against it.
_SUM_FLOOR = 4.0
_LOG2_5 = math.log2(5.0)
# The fixed-point sum stops once the first omitted term is below tol |S| by
# this many bits.
_STOP_MARGIN_BITS = 1.0

# The recurrence coefficients depend on (alpha, beta, n) and the order, not
# on z, so each call of orders 1..k_end-1 reads them, and their growth
# bounds, from one immutable table shared by every call with the same
# (alpha, beta, n, k_end). At most _TABLES_KEPT tables are kept (the least
# recently used goes first); ``drummond.ORDER_LIMIT`` bounds k_end, so a
# table holds at most 4,999 rows.
_TABLES_KEPT = 8


def log_gamma_ratio(z, eps):
    # log(Gamma(z+1+eps)/Gamma(z+1)), arranged so every term vanishes
    # smoothly as eps -> 0 (log1p keeps the eps ~ 0 regime cancellation-free).
    g5 = z + LANCZOS_G + 0.5
    s1 = LANCZOS_C[0]
    s2 = 0.0
    for i in range(1, 15):
        zi = z + i
        s1 += LANCZOS_C[i] / zi
        s2 += LANCZOS_C[i] / (zi * (zi + eps))
    return (
        (z + 0.5) * math.log1p(eps / g5)
        + eps * math.log(g5 + eps)
        - eps
        + math.log1p(-eps * s2 / s1)
    )


def digamma(x):
    # Shift x above 10, then the Bernoulli asymptotic series; truncation
    # below 1e-15 for x >= 10.
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    w = 1.0 / (x * x)
    t = 691.0 / 32760.0 - w * (1.0 / 12.0)
    t = 1.0 / 132.0 - w * t
    t = 1.0 / 240.0 - w * t
    t = 1.0 / 252.0 - w * t
    t = 1.0 / 120.0 - w * t
    t = 1.0 / 12.0 - w * t
    return acc + math.log(x) - 0.5 / x - w * t


def _bessel_backward(two_nu, x):
    # (J_nu(x), J_{nu-1}(x)) for 2nu >= 0 by Miller's backward recurrence,
    # stable for the minimal solution at every x (Gautschi, SIAM Rev. 9
    # (1967) 24; DLMF 10.74(iv)). The run starts at order int(x) + 40, or 20
    # above nu, plus the half of a half-integer order, so each value has the
    # bits of a run for its order alone, and runs on to order -1 or -1/2
    # (at 2nu = 0 that gives J_{-1} = -J_1). Integer orders are normalized
    # by J_0 + 2*sum(J_{2m}) = 1; half-integer ones are scaled to the larger
    # of J_{1/2} = c sin x and J_{-1/2} = c cos x.
    half = 0.5 * (two_nu & 1)
    top = two_nu >> 1
    m = int(x) + 40
    if m < top + 20:
        m = top + 20
    bjp = 0.0
    bj = 1e-30
    total = 2.0 * bj if m % 2 == 0 and not half else 0.0
    ra = rb = 0.0
    while m >= 0:
        bjm = (2.0 * (m + half) / x) * bj - bjp
        bjp = bj
        bj = bjm
        m -= 1
        if abs(bj) > 1e150:
            bj *= 1e-150
            bjp *= 1e-150
            total *= 1e-150
            ra *= 1e-150
            rb *= 1e-150
        if m % 2 == 0 and not half:
            total += bj if m == 0 else 2.0 * bj
        if m == top:
            ra = bj
        elif m == top - 1:
            rb = bj
    if not half:
        return ra / total, rb / total
    # bjp and bj now hold orders 1/2 and -1/2
    c = math.sqrt(2.0 / (math.pi * x))
    sin_x = math.sin(x)
    cos_x = math.cos(x)
    scale = c * sin_x / bjp if abs(sin_x) >= abs(cos_x) else c * cos_x / bj
    return ra * scale, rb * scale


# cos(r pi/4) at r = 0..7, exact where it is 0 or +-1
_COS_QUARTER = (1.0, _SQRT_HALF, 0.0, -_SQRT_HALF, -1.0, -_SQRT_HALF, 0.0, _SQRT_HALF)


@functools.lru_cache(maxsize=32)
def _hankel_table(two_nu):
    """The large-argument expansion of J_nu(x) / sqrt(2/(pi x)), order
    passed as 2nu, cos w P - sin w Q with w = x - (2nu+1)pi/4: the
    coefficients of P and of x Q as polynomials in 1/x^2, signs folded in,
    highest power first,

        P = sum_j (-1)^j a_2j x^-2j,   Q = sum_j (-1)^j a_(2j+1) x^-(2j+1),

    a_k = prod_(i<=k) (4nu^2 - (2i-1)^2) / (8i), through the first k with
    |a_k| 28^-k < 1e-17 (at most 39). At an integer order the terms fall
    with x, so that count serves every x >= _HANKEL_X_MIN = 28. At a
    half-integer order a_k = 0 from k = |nu| + 1/2 on, so the table is the
    whole expansion, exact at every x (DLMF 10.17(i), 10.49(i)); the tests
    check that the zero ends it through 2nu = 21. Also cos and sin of the
    phase (2nu+1)pi/4, exact 0 and +-1 at the half-integer orders: no
    accuracy is lost subtracting it from a large x."""
    mu = float(two_nu * two_nu)
    a = 1.0
    signed = [1.0]
    for k in range(1, 40):
        a *= (mu - (2 * k - 1) ** 2) / (8.0 * k)
        signed.append(a if k % 4 < 2 else -a)
        if abs(a) * _HANKEL_X_MIN**-k < 1e-17:
            break
    r = two_nu + 1  # the phase is r pi/4, its sin cos((r-2) pi/4)
    cph, sph = _COS_QUARTER[r % 8], _COS_QUARTER[(r - 2) % 8]
    return tuple(reversed(signed[0::2])), tuple(reversed(signed[1::2])), cph, sph


def _hankel_sum(two_nu, x, cx, sx):
    # J_nu(x) / sqrt(2/(pi x)) from the table of 2nu; cx, sx are cos x, sin x
    p_co, q_co, cph, sph = _hankel_table(two_nu)
    w = 1.0 / (x * x)
    p = q = 0.0
    for c in p_co:
        p = p * w + c
    for c in q_co:
        q = q * w + c
    return (cx * cph + sx * sph) * p - (sx * cph - cx * sph) * q / x


def bessel_j(two_nu, x):
    """(J_nu(x), J_{nu-1}(x)) with the order passed as 2*nu (integer),
    2*nu >= -1: the two adjacent orders the asymptotic route needs, from one
    evaluation, in two regimes for every order. The large-argument
    expansion, by Horner's rule over the tables of ``_hankel_table``, serves
    integer orders from x = 28 and half-integer ones from x = nu, where its
    finite sum is exact (every x at 2*nu = +-1, where it is
    sqrt(2/(pi x)) times cos x and sin x); Miller's backward recurrence
    serves every x below. The integer-order tables ignore terms that matter
    from nu = 11 on; the tests verify 2*nu = -1..21, and the d <= 10 of
    ``KernelParams`` keeps the eigenvalue routes at 2*nu = -1..8."""
    if two_nu & 1:
        x_min = 0.5 * two_nu if two_nu > 1 else 0.0
    else:
        x_min = _HANKEL_X_MIN
    if x < x_min:
        return _bessel_backward(two_nu, x)
    amp = math.sqrt(2.0 / (math.pi * x))
    cx = math.cos(x)
    sx = math.sin(x)
    return amp * _hankel_sum(two_nu, x, cx, sx), amp * _hankel_sum(two_nu - 2, x, cx, sx)


@functools.lru_cache(maxsize=32)
def _log_gamma_ratios(x, z):
    # log Gamma(x+1) and log(Gamma(z-x) / Gamma(z)); an eigenvalue route
    # asks for the same (x, z) on every k
    return log_gamma_ratio(0.0, x), log_gamma_ratio(z - 1.0, -x)


def gamma_part_exponent(x, log_y, z):
    """log[y^(2x) Gamma(x+1) Gamma(z) / Gamma(z-x)], from log y so that y
    itself may lie outside the double range."""
    lg_a, lg_b = _log_gamma_ratios(x, z)
    return 2.0 * x * log_y + lg_a - lg_b


def stable_prefactor(x, log_y, z):
    # (f, t): f(x, y, z) = [y^(2x) Gamma(x+1) Gamma(z) / Gamma(z-x) - 1] / x
    # = expm1(t) / x from log y, t the exponent of the gamma ratio; at x = 0
    # the removable singularity is evaluated exactly and t = 0.
    if x == 0.0:
        return 2.0 * log_y - EULER_GAMMA + digamma(z), 0.0
    t = gamma_part_exponent(x, log_y, z)
    return math.expm1(t) / x, t


@functools.lru_cache(maxsize=32)
def _series_table(d, alpha, p, g):
    """The coefficients of the series for (d, alpha), scaled for a Horner
    pass in 2y < 2^g at p fractional bits: rows n = 1..L (row 0 unused) of
    A_n = floor(a_n 2^(p + (n-1) g)) and L_n = log2 a_n, with

        a_n = rho_1 ... rho_(n-1) = c_1 / (c_n prod_(j<n) (j+1)(2j+d)),

    c_n = d + 2n - alpha, so that log2 |t_n| = L_n + (n-1) log2(2y). A_n is
    exact: c_1 2^(p + (n-1) g) = q den + r, den the product and
    0 <= r < den, is carried from row to row and A_n = floor(q / c_n), so
    no row divides by den. Row L is the first with A_L = 0. From row 2 on
    (c_n > 2) the row ratio rho_n 2^g = 2^g c_n / (c_(n+1) (n+1) (2n+d))
    falls strictly, so the rows rise to one peak and fall; A_1 = 2^p and
    A_2 > 0 (p >= 96, c_1 >= 2^-51), so row L lies past the peak and every
    later row is 0 too. Its term |t_L| <= a_L 2^((L-1) g) is below 2^-p,
    under tol |S| for every tol >= eps as p >= 64 + e_bits + 4 bitlen(x)
    and |S| >~ 5 / x^2 (``maclaurin_lambda``): every call's N + 1 is a row.
    Built whole and never changed; at most 32 are kept, and a lattice
    spectrum uses about 18, one per (p, g) it reaches."""
    an, aq = alpha.as_integer_ratio()
    c_1 = (d + 2) * aq - an  # c_1 aq
    c, den, q, r = c_1, 1, c_1 << p, 0
    rows, logs = [0], [0.0]
    for n in itertools.count(1):
        rows.append(q // c)
        logs.append(math.log2(c_1) - math.log2(c) - math.log2(den))
        if not rows[n]:
            return tuple(rows), tuple(logs)
        step = (n + 1) * (2 * n + d)
        u, v = divmod(r << g, den)
        q, z = divmod((q << g) + u, step)
        r = z * den + v
        den *= step
        c += 2 * aq


def maclaurin_constants(d, alpha, delta, tol):
    """The constants of ``maclaurin_lambda`` for one (d, alpha, delta, tol):
    (d, alpha, delta, dn^2 and shift with delta^2 / 2 = dn^2 / 2^shift
    exactly, log2 tol less _STOP_MARGIN_BITS, and the part of the first
    stopping goal free of k)."""
    dn, dq = delta.as_integer_ratio()
    log_tol = (math.log2(tol) if tol < 0.5 else -1.0) - _STOP_MARGIN_BITS
    # dq is a power of 2
    shift = 2 * dq.bit_length() - 1
    return d, alpha, delta, dn * dn, shift, log_tol, log_tol + math.log2(_SUM_FLOOR)


def maclaurin_lambda(constants, k, m=None):
    """Small-k*delta eigenvalue series, prefactor included, at k with the
    ``constants`` of ``maclaurin_constants(d, alpha, delta, tol)``; at
    k^2 = m exactly where an int m is given, k being fl(sqrt(m)).

    Returns (value, terms, converged, est_rel_err). The n = 1 term is
    exactly -k**2, so lambda = -k^2 F, F = sum t_n, is built from term
    ratios with no gamma evaluations. Its alternating terms peak near
    e^(k*delta) times the sum, so F is summed backwards by Horner's rule in
    integers at p fractional bits, exact but for two floors a step (Brent and
    Zimmermann, Modern Computer Arithmetic, 2010, sec. 4.4; Higham, Accuracy
    and Stability of Numerical Algorithms, 2nd ed., 2002, ch. 5).

    t_n = (-2y)^(n-1) a_n, with y = (k delta)^2 / 4 and the coefficients a_n
    of ``_series_table``, so the sum of N terms is
    S_N = a_1 - 2y (a_2 - 2y (... (a_(N-1) - 2y a_N))). With g the least
    g >= 0 with 2y < 2^g and A_n the table's a_n 2^(p + (n-1) g), the pass
    runs from s = 0 over n = N..1:

        s <- A_n - (s y_num >> (shift + g)),

    where y_num / 2^shift = 2y exactly: delta = dn / dq and k = kn / kq
    enter as the exact ratios of their doubles, so neither k^2 nor a
    k*delta that underflows as a double can spoil it. y_num is m dn^2 for
    an int m, or (kn dn)^2; k alone sets x = k delta, p and N. The floors
    of A_n and of the shift each cost less than 1 unit of step n, which
    (2y / 2^g)^(n-1) <= 1 carries to s at most undiminished, so S = s / 2^p
    is within 2N units of 2^-p of the sum of its N terms. p = e_bits + _FIXED_POINT_GUARD + 4 bits per bit of
    x = k delta, e^x <= 2^e_bits, rounded up to a multiple of 32 so that
    nearby k*delta share a table.

    N is chosen before the pass. From n = x/2 on the terms fall in size, so
    the first omitted term bounds the rest; N is the first n >= x/2 with
    log2 |t_(N+1)| = L_(N+1) + N log2(2y) below tol |S| by
    _STOP_MARGIN_BITS, taken against |S| >= _SUM_FLOOR / max(x^2, 5). F x^2
    is the kernel's average of 1 - cos, 2 (d + 2) (1 + o(1)) at alpha = 0
    and more for alpha > 0, and F tends to 1 as x -> 0. The smallest values
    measured over d 1..10 and alpha in [0, d+2) are F = 0.818 on x in
    (0, 2], F x^2 = 3.27 on [2, sqrt 5], 3.89 on [sqrt 5, 6] and 5.23 on
    [6, 2000] (d = 1, alpha = 0, x = 7.7). Once S is known, the same test
    runs against |S| itself; should it fail, as it can where the floor
    exceeds F (x from about 2 to 6), N grows and the pass runs again, up to
    the table's last row less one; a test still failing there leaves
    converged False. A tol from 1/2 up acts as 1/2: then |S| < 2 |F|, which
    a double holds, however early the sum stops.

    est_rel_err is the first omitted term plus the rounding bound, err, over
    |S| - err, plus 2 eps for forming F and -k (k F), or -(m F); it is inf
    where lambda falls below the normal doubles. A lambda beyond the double
    range comes back as -inf.
    """
    d, alpha, delta, dn2, shift, log_tol, goal = constants
    x = k * delta
    if m is None:
        # kq is a power of 2, so 2y = y_num / 2^shift
        kn, kq = k.as_integer_ratio()
        y_num = kn * kn * dn2
        shift += 2 * kq.bit_length() - 2
    else:
        y_num = m * dn2
    g = y_num.bit_length() - shift  # the least g >= 0 with 2y < 2^g
    if g < 0:
        g = 0
    shift += g
    e_bits = int(x * _LOG2E) + 1  # e^x <= 2^e_bits
    p = (e_bits + _FIXED_POINT_GUARD + 31 + 4 * int(x).bit_length()) & -32
    # where k*delta underflows to 0, every term past t_1 is below rounding
    log_x = math.log2(x) if x > 0.0 else -math.inf
    log_2y = 2.0 * log_x - 1.0
    goal -= log_2y + 1.0 if x * x > 5.0 else _LOG2_5
    n = math.ceil(0.5 * x) or 1
    one = 1 << p
    while True:
        # the first n with log2 |t_(n+1)| <= goal, up to the table's last row
        coeffs, logs = _series_table(d, alpha, p, g)
        top = hi = len(logs) - 2
        while n < hi:
            mid = (n + hi) >> 1
            if logs[mid + 1] + mid * log_2y > goal:
                n = mid + 1
            else:
                hi = mid
        s = coeffs[n]
        for a in coeffs[n - 1:0:-1]:
            s = a - (s * y_num >> shift)
        # not math.ldexp(s, -p), which overflows once s reaches 2^1024, from
        # k*delta of about 650 on
        f = s / one
        log_f = math.log2(f) if f > 0.0 else -math.inf
        log_t = logs[n + 1] + n * log_2y  # log2 |t_(n+1)|
        converged = log_t <= log_tol + log_f
        if converged or n == top:
            break
        if f > 0.0:
            goal = log_tol + log_f
        n += 1
    lam = -(k * (k * f)) if m is None else -(m * f)
    rel_t = log_t - log_f  # log2 of |t_(n+1)| / |S|
    if rel_t < 0.0 and abs(lam) >= _DBL_MIN:
        # err is relative to |S|, and |F| >= |S| (1 - err)
        err = 2.0**rel_t + math.ldexp(2 * n, -p) / f
        est = err / (1.0 - err) + _TWO_EPS if err < 1.0 else math.inf
    else:
        est = math.inf
    return (lam, n, converged, est)


def _nan_like(v):
    if isinstance(v, complex):
        return complex(math.nan, math.nan)
    return math.nan


@functools.lru_cache(maxsize=_TABLES_KEPT, typed=True)
def _coefficient_table(alpha, beta, n, k_end):
    """(rows, P, Q): the recurrence coefficients of orders k = 1..k_end-1,
    each divided by lead = (alpha+n+k+1)(beta+n+k+1) and negated, so that an
    order is one multiply-add per term: rows (k, p, q, r, s) with

        b = z*p + q,   N^(k+1) = b N^(k) + r N^(k-1) + s N^(k-2)

    and the same for D. p = -1/lead; q = -(k(alpha+beta+2n+2k+1) + lead)/lead,
    the sum formed before the divide; r = -k(alpha+beta+2n+3k)/lead;
    s = -k(k-1)/lead. P and Q bound the growth: at any z, over one order,
    the largest |N| or |D| of the last three orders grows and shrinks by at
    most a factor |z| P + Q. P is the larger coefficient of |z| and Q the
    larger constant of:

    - forward growth, by g = |z| max |p| + max(|q| + |r| + |s|);
    - backward shrinkage from order 2 on, where s != 0 and N^(k-2) is
      (N^(k+1) - b N^(k) - r N^(k-1)) / s, by
      h = |z| max(|p|/|s|) + max((1 + |q| + |r|)/|s|).

    An s = 0 from order 2 on (lead overflowed) leaves no backward bound,
    and P = Q = inf. A NaN coefficient, which the max may pass over, makes
    N and D NaN from its order on, whatever their scale. Built whole in one
    pass and never changed. Keyed on the parameter types too, so a complex
    twin of real parameters gets its own entry. Callers that miss at once
    may each build the same entry; only one is kept."""
    ab2n = alpha + beta + 2.0 * n
    rows = []
    p_max = q_max = 0.0
    for k in range(1, k_end):
        lead = (alpha + n + k + 1.0) * (beta + n + k + 1.0)
        p = -1.0 / lead
        q = -(k * (ab2n + 2.0 * k + 1.0) + lead) / lead
        r = -(k * (ab2n + 3.0 * k)) / lead
        s = -(k * (k - 1.0)) / lead
        rows.append((k, p, q, r, s))
        p, q, r, s = abs(p), abs(q), abs(r), abs(s)
        if k == 1:  # s = 0: no backward step
            p_max, q_max = max(p_max, p), max(q_max, q + r + s)
        elif s == 0.0:
            p_max = q_max = math.inf
        else:
            p_max = max(p_max, p, p / s)
            q_max = max(q_max, q + r + s, (1.0 + q + r) / s)
    return tuple(rows), p_max, q_max


def _drummond_recurrence(alpha, beta, z, n, tol, k_end):
    """The four-term numerator/denominator recurrence of Drummond's
    transformation for the terms a_k = (alpha)_k (beta)_k / (-z)^k.

    Advances N_n^(k), D_n^(k) towards k = k_end. With ``tol=None`` it
    returns the approximant T_n^(k_end) alone, forming no intermediate
    quotient; otherwise it returns (value, order, converged, est_rel_err)
    and stops once two consecutive approximant differences fall below
    tol * |T|, reporting the last difference relative to |T| plus
    _ROUNDING_PER_ORDER per order. Each order is one multiply-add per term
    on a row of the cached ``_coefficient_table`` of (alpha, beta, n,
    k_end), whole up to order k_end - 1 however early the call stops.

    The rescale check runs at order 1 and then every ``every`` orders, a
    single ``k == check_at`` comparison in between. It tests the whole
    window of the last three orders of N and D, not only the newest pair,
    and rescales the window by 2^-512 or 2^512 once its largest modulus W
    leaves 2^-512..2^512; a check that rescales is followed by one at the
    next order. Over one order W grows and shrinks by at most a factor
    |z| P + Q, with the bounds (P, Q) of the table and |z| taken as
    |Re z| + |Im z|, so with ``every`` =
    max(1, floor(_RESCALE_HEADROOM_BITS / log2 max(|z| P + Q, 2))) a run
    that starts from W within 2^-512..2^512 keeps it within 2^-1012..2^1012.
    While nothing leaves the normal doubles a power-of-two rescale commutes
    exactly with every operation of the recurrence, so each approximant has
    the bits of a check at every order, the schedule of infinite bounds.
    """
    early = tol is not None
    a = 1.0
    s_n = 1.0
    for j in range(n):
        a = a * (alpha + j) * (beta + j) / (-z)
        s_n = s_n + a
    if not early and k_end == 0:
        return s_n
    a = a * (alpha + n) * (beta + n) / (-z)  # a_{n+1}
    d_prev = 1.0 / a
    n_prev = s_n * d_prev
    lead = (alpha + n + 1.0) * (beta + n + 1.0)
    d_cur = -(z / lead + 1.0) * d_prev
    if not cmath.isfinite(d_cur):
        # 1/a_(n+1) or D^(1) overflowed, so every approximant would be NaN:
        # as good as a zero divisor
        raise ZeroDivisionError("no finite start for the recurrence")
    n_cur = s_n * d_cur - z / lead
    n_prev2 = 0.0 * d_cur
    d_prev2 = 0.0 * d_cur
    if early:
        t_prev = s_n + 0.0 * d_cur
        t_cur = n_cur / d_cur if d_cur != 0 else _nan_like(d_cur)
        # |T| and the last difference, carried from step to step
        at_cur = abs(t_cur)
        diff0 = abs(t_cur - t_prev)
        order = 1
    rows, p_bound, q_bound = _coefficient_table(alpha, beta, n, k_end)
    growth = (abs(z.real) + abs(z.imag)) * p_bound + q_bound
    every = 1
    if growth < math.inf:  # not for NaN
        every = int(_RESCALE_HEADROOM_BITS / math.log2(max(growth, 2.0))) or 1
    check_at = 1
    for k, p, q, r, s in rows:
        b = z * p + q
        n_new = b * n_cur + r * n_prev + s * n_prev2
        d_new = b * d_cur + r * d_prev + s * d_prev2
        if k == check_at:
            m = max(abs(n_new), abs(n_cur), abs(n_prev), abs(d_new), abs(d_cur), abs(d_prev))
            check_at = k + every
            if m > _RESCALE_THRESHOLD or 0.0 < m < _RESCALE_TINY:
                check_at = k + 1
                scale = _RESCALE_TINY if m > _RESCALE_THRESHOLD else _RESCALE_THRESHOLD
                n_new *= scale
                n_cur *= scale
                n_prev *= scale
                d_new *= scale
                d_cur *= scale
                d_prev *= scale
        if early:
            t_new = n_new / d_new if d_new != 0 else _nan_like(d_new)
            order = k + 1
            diff1 = abs(t_new - t_cur)
            at_new = abs(t_new)
            if diff1 < tol * at_new and diff0 < tol * at_cur:
                return (t_new, order, True, diff1 / at_new + _ROUNDING_PER_ORDER * order)
            t_cur = t_new
            at_cur = at_new
            diff0 = diff1
        n_prev2, n_prev, n_cur = n_prev, n_cur, n_new
        d_prev2, d_prev, d_cur = d_prev, d_cur, d_new
    if not early:
        return n_cur / d_cur if d_cur != 0 else _nan_like(d_cur)
    return (t_cur, order, False, diff0 / at_cur if at_cur > 0.0 else math.inf)


def drummond_2f0(alpha, beta, z, n, tol, k_max):
    """Resummation of sum_k (alpha)_k (beta)_k / (-z)^k, stopping at the
    tolerance or at order k_max.

    Returns (value, order, converged, est_rel_err). Works for float or
    complex parameters. The caller screens the arguments: z is nonzero and
    finite, and neither alpha nor beta is a nonpositive integer (such a
    series terminates and is summed exactly instead), so no recurrence
    coefficient ``lead`` = (alpha+n+k+1)(beta+n+k+1) vanishes.
    """
    return _drummond_recurrence(alpha, beta, z, n, tol, k_max)


def drummond_2f0_fixed(alpha, beta, z, n, order):
    """T_n^(order) by the same recurrence, no convergence exit.

    A pole of the approximant comes back as NaN rather than raising. The
    caller screens the arguments as for ``drummond_2f0``, except that a
    terminating series (alpha or beta = -m) may come with order 0, for its
    partial sum s_n, or with n + order < m: either way no term the
    recurrence divides by and no coefficient ``lead`` vanishes.
    """
    return _drummond_recurrence(alpha, beta, z, n, None, order)

"""Evaluation kernels: gamma, log-gamma ratio, digamma, Bessel J, the
Maclaurin series and the Drummond recurrence.

The only implementation of the numerics; ``drummond`` and ``spectra`` reach
it through ``nlspectra._backend.kernels``. Functions here assume their
arguments were already validated by those modules.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
import threading

# Lanczos representation of Gamma(z+1) with shift g = 607/128 and the
# 15-coefficient table computed by Godfrey; roughly 1e-15 relative accuracy
# on the real axis for Re(z) >= -0.5.
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

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT_HALF = math.sqrt(0.5)

# N, D in the Drummond recurrence grow factorially; a common power-of-two
# rescale leaves every approximant T = N/D bit-identical.
_RESCALE_THRESHOLD = 2.0**512
_RESCALE_TINY = 2.0**-512

# The recurrence coefficients depend on (alpha, beta, n) and the order, not
# on z, so they are tabulated once and shared by every call on the same
# parameters. At most _TABLES_KEPT tables are kept (the least recently used
# goes first), each holding orders 1.._TABLE_ORDERS; higher orders are
# computed per call.
_TABLES_KEPT = 8
_TABLE_ORDERS = 4096
_TABLES_LOCK = threading.Lock()


def _lanczos_sum(z):
    s = LANCZOS_C[0]
    for i in range(1, 15):
        s += LANCZOS_C[i] / (z + i)
    return s


def _gamma1p(z):
    # Gamma(z+1) for z >= -0.5
    t = z + LANCZOS_G + 0.5
    return _SQRT2PI * t ** (z + 0.5) * math.exp(-t) * _lanczos_sum(z)


def gamma(x):
    if x < 0.5:
        return _gamma1p(x) / x
    return _gamma1p(x - 1.0)


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
    # (J_nu(x), J_{nu-1}(x)) for 2nu >= 2 by Miller's backward recurrence,
    # stable for the minimal solution at every x (Gautschi, SIAM Rev. 9
    # (1967) 24; DLMF 10.74(iv)). The run starts at order int(x) + 40, or 20
    # above nu, plus the half of a half-integer order, so each value has the
    # bits of a run for its order alone. Integer orders are normalized by
    # J_0 + 2*sum(J_{2m}) = 1; half-integer ones run on to order -1/2 and are
    # scaled to the larger of J_{1/2} = c sin x and J_{-1/2} = c cos x.
    half = 0.5 * (two_nu & 1)
    top = two_nu >> 1
    m = int(x) + 40
    if m < top + 20:
        m = top + 20
    stop = -1 if half else 0
    bjp = 0.0
    bj = 1e-30
    total = 2.0 * bj if m % 2 == 0 and not half else 0.0
    ra = rb = 0.0
    while m > stop:
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


def _hankel_sum(nu, x, cx, sx):
    # Large-argument expansion of J_nu(x) / sqrt(2/(pi x)). The phase
    # x - (2nu+1)pi/4 is expanded with exact multiples of pi/4 so no
    # accuracy is lost subtracting from large x; cx, sx are cos x, sin x.
    mu = 4.0 * nu * nu
    inv_x = 1.0 / x
    p = 1.0
    q = 0.0
    tk = 1.0
    prev = math.inf
    for k in range(1, 40):
        tk *= (mu - (2 * k - 1) ** 2) / (8.0 * k) * inv_x
        if abs(tk) >= prev:
            break
        r = k % 4
        if r == 0:
            p += tk
        elif r == 1:
            q += tk
        elif r == 2:
            p -= tk
        else:
            q -= tk
        if abs(tk) < 1e-17:
            break
        prev = abs(tk)
    r = (2 * nu + 1) % 8
    if r == 1:
        cph, sph = _SQRT_HALF, _SQRT_HALF
    elif r == 3:
        cph, sph = -_SQRT_HALF, _SQRT_HALF
    elif r == 5:
        cph, sph = -_SQRT_HALF, -_SQRT_HALF
    else:
        cph, sph = _SQRT_HALF, -_SQRT_HALF
    cosw = cx * cph + sx * sph
    sinw = sx * cph - cx * sph
    return cosw * p - sinw * q


def bessel_j(two_nu, x):
    """(J_nu(x), J_{nu-1}(x)) with the order passed as 2*nu (integer),
    2*nu >= -1: the two adjacent orders the asymptotic route needs, from one
    evaluation. Half-integer orders come from sqrt(2/(pi x)), cos x, sin x
    and the upward recurrence, except where that cancels (2*nu >= 3 and
    x < max(1, nu)); integer orders from x = 28 come from the large-argument
    expansion; every other case from one backward recurrence. The
    large-argument regime ignores terms that matter from nu = 11 on; the
    tests verify 2*nu = -1..21, and the d <= 10 of ``KernelParams`` keeps
    the eigenvalue routes at 2*nu = -1..8."""
    if two_nu & 1:
        if two_nu >= 3 and x < max(1.0, 0.5 * two_nu):
            return _bessel_backward(two_nu, x)
        c = math.sqrt(2.0 / (math.pi * x))
        cos_x = math.cos(x)
        sin_x = math.sin(x)
        if two_nu == -1:
            return c * cos_x, c * (-cos_x / x - sin_x)
        jm = c * cos_x
        jc = c * sin_x
        order = 0.5
        for _ in range(two_nu >> 1):
            jm, jc = jc, (2.0 * order / x) * jc - jm
            order += 1.0
        return jc, jm
    nu = two_nu >> 1
    if x >= 28.0:
        # J_{-n} = (-1)^n J_n holds term by term in the expansion
        amp = math.sqrt(2.0 / (math.pi * x))
        cx = math.cos(x)
        sx = math.sin(x)
        return amp * _hankel_sum(nu, x, cx, sx), amp * _hankel_sum(nu - 1, x, cx, sx)
    if nu > 0:
        return _bessel_backward(two_nu, x)
    # J_{-1} = -J_1
    j1, j0 = _bessel_backward(2, x)
    return j0, -j1


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


def maclaurin_lambda(d, alpha, k, delta, tol, cap):
    """Small-k*delta eigenvalue series, prefactor included.

    Returns (value, terms, converged, est_rel_err). The n = 1 term is
    exactly -k**2, so the whole sum is built by the term-ratio recurrence
    with no gamma evaluations. The estimate is the first omitted term plus
    the rounding of the n-term alternating sum, eps (sqrt(n) + 1) sum |u_j|,
    both relative to |s|.
    """
    y = 0.25 * (k * delta) ** 2
    u = -(k * k)
    s = u
    au = s_abs = abs(u)
    n = 1
    while n < cap:
        u *= -y * (d + 2.0 * n - alpha) / ((n + 1.0) * (n + 0.5 * d) * (d + 2.0 * n + 2.0 - alpha))
        au = abs(u)
        if au < tol * abs(s):
            break
        s += u
        s_abs += au
        n += 1
    a_s = abs(s)
    if not a_s > 0.0:
        return (s, n, False, math.inf)
    est = au / a_s + sys.float_info.epsilon * (math.sqrt(n) + 1.0) * s_abs / a_s
    return (s, n, n < cap, est)


def _nan_like(v):
    if isinstance(v, complex):
        return complex(math.nan, math.nan)
    return math.nan


@functools.lru_cache(maxsize=_TABLES_KEPT, typed=True)
def _coefficient_table(alpha, beta, n):
    """The shared list of recurrence coefficients for (alpha, beta, n).

    Entry k-1 is (k, lead, b - z, c, e) for order k; only z varies between
    the calls that share a table. Keyed on the parameter types too, so a
    complex twin of real parameters gets its own table. Two threads that
    miss at once may each get a list; only one is kept, and the other
    serves its caller alone.
    """
    return []


def _coefficient_row(table, alpha, beta, n, k):
    """Coefficients of order k, appended to ``table`` if it ends at order
    k-1 and is below its cap. A row is complete before it is appended, so a
    concurrent reader never sees part of one."""
    ab2n = alpha + beta + 2.0 * n
    row = (
        k,
        (alpha + n + k + 1.0) * (beta + n + k + 1.0),
        k * (ab2n + 2.0 * k + 1.0),
        k * (ab2n + 3.0 * k),
        k * (k - 1.0),
    )
    if len(table) == k - 1 < _TABLE_ORDERS:
        with _TABLES_LOCK:
            if len(table) == k - 1:
                table.append(row)
    return row


def _stalled(t, order, diff, at):
    return (t, order, False, diff / at if at > 0.0 else math.inf)


def _drummond_recurrence(alpha, beta, z, n, tol, k_end):
    """The four-term numerator/denominator recurrence of Drummond's
    transformation for the terms a_k = (alpha)_k (beta)_k / (-z)^k.

    Advances N_n^(k), D_n^(k) towards k = k_end. With ``tol=None`` it
    returns the approximant T_n^(k_end) alone, forming no intermediate
    quotient; otherwise it returns (value, order, converged, est_rel_err)
    and stops once two consecutive approximant differences fall below
    tol * |T|. The coefficients that do not involve z come from the table
    of (alpha, beta, n), extended as far as this call reaches.
    """
    early = tol is not None
    a = 1.0
    s = 1.0
    for j in range(n):
        a = a * (alpha + j) * (beta + j) / (-z)
        s = s + a
    if not early and k_end == 0:
        return s
    a = a * (alpha + n) * (beta + n) / (-z)  # a_{n+1}
    d_prev = 1.0 / a
    n_prev = s * d_prev
    r = (alpha + n + 1.0) * (beta + n + 1.0)
    d_cur = -(z / r + 1.0) * d_prev
    if not cmath.isfinite(d_cur):
        # 1/a_(n+1) or D^(1) overflowed, so every approximant would be NaN:
        # as good as a zero divisor
        raise ZeroDivisionError("no finite start for the recurrence")
    n_cur = s * d_cur - z / r
    n_prev2 = 0.0 * d_cur
    d_prev2 = 0.0 * d_cur
    if early:
        t_prev = s + 0.0 * d_cur
        t_cur = n_cur / d_cur if d_cur != 0 else _nan_like(d_cur)
        # |T| and the last difference, carried from step to step
        at_cur = abs(t_cur)
        diff0 = abs(t_cur - t_prev)
        order = 1
    table = _coefficient_table(alpha, beta, n)
    k = 1
    while k < k_end:
        # the stored rows from order k on, or else order k built now
        rows = table[k - 1 : k_end - 1]
        if not rows:
            rows = (_coefficient_row(table, alpha, beta, n, k),)
        for k, lead, bmz, c, e in rows:
            b = z + bmz + lead
            n_new = -(b * n_cur + c * n_prev + e * n_prev2) / lead
            d_new = -(b * d_cur + c * d_prev + e * d_prev2) / lead
            an = abs(n_new)
            ad = abs(d_new)
            m = ad if ad > an else an  # max(an, ad), NaN included
            if m > _RESCALE_THRESHOLD or 0.0 < m < _RESCALE_TINY:
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
                    est = diff1 / at_new if at_new > 0.0 else 0.0
                    return (t_new, order, True, est)
                t_cur = t_new
                at_cur = at_new
                diff0 = diff1
            n_prev2, n_prev, n_cur = n_prev, n_cur, n_new
            d_prev2, d_prev, d_cur = d_prev, d_cur, d_new
        k += 1
    if not early:
        return n_cur / d_cur if d_cur != 0 else _nan_like(d_cur)
    return _stalled(t_cur, order, diff0, at_cur)


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

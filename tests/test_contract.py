"""The accuracy contract over the admissible inputs, on a seeded sample.

Every ``lambda_hybrid`` call at tol = 10 eps, 1e-12 and 1e-8 returns a
value within its ``est_rel_err`` of the mpmath series. No case drawn is
beyond either route's reach, so a raised ``ValueError`` or
``NonConvergenceError`` is a failure too, recorded with its message.
Cases are drawn with stdlib ``random`` from a fixed seed in strata of
alpha (0, d, just below d + 2, tiny, uniform) and of k*delta (log-uniform
in [0.01, 150], with a quarter of the draws in [5.9, 7]). Extra cases,
from a generator of their own so that the draws above stay as they are,
take k*delta uniform within 1 of ``HYBRID_SWITCH``, where the route
changes, and log-uniform in [1e-320, 1e-2], where
lambda = -k^2 (1 - O((k*delta)^2)) may fall below the normal doubles.
A third generator draws k*delta uniform in [28, ``HYBRID_SWITCH``), the
band the series took over from the asymptotic route when the switch moved
up from 28. A fourth draws lattice rows: an integer wavevector whose
|k|^2 = m the series takes exactly, checked against the oracle at
k = sqrt(m) taken in mpmath.
Beyond k*delta = 200 the gamma-ratio part and the two
Lommel factors of the asymptotic form are checked against their own
oracles; there a typed error of ``lambda_hybrid`` is allowed.
"""

import math
import random
import sys

from mpmath import mp

from nlspectra import KernelParams, NonConvergenceError, lambda_hybrid, spectra
from nlspectra.drummond import DEFAULT_TOL, _lommel, _lommel_terms
from nlspectra.oracle import oracle_asy_part_a, oracle_lambda_maclaurin, oracle_lommel
from nlspectra.spectra import ASYMPTOTIC_TAIL_CUTOFF, HYBRID_SWITCH, _asy_gamma_part

EPS = sys.float_info.epsilon
#: Smallest normal double.
TINY = sys.float_info.min
SEED = 20181
CASES = 2000
EXTRA_CASES = 400
MOVED_CASES = 150
LATTICE_CASES = 300
HUGE_CASES = 40
ALPHA_STRATA = ("zero", "d", "below_d_plus_2", "tiny", "uniform")
TOLS = (10 * EPS, 1e-12, 1e-8)


def _draw_alpha(rng, stratum, d):
    if stratum == "zero":
        return 0.0
    if stratum == "d":
        return float(d)
    if stratum == "below_d_plus_2":
        return d + 2 - 10.0 ** rng.uniform(-12, -1)
    if stratum == "tiny":
        return 10.0 ** rng.uniform(-300, -1)
    return rng.uniform(0.0, d + 2)


def _draw_kdelta(rng, i):
    if i % 4 == 0:
        return rng.uniform(5.9, 7.0)
    return 10.0 ** rng.uniform(-2, math.log10(150.0))


def _draw_extra_kdelta(rng, i):
    if i % 2 == 0:
        return rng.uniform(HYBRID_SWITCH - 1.0, HYBRID_SWITCH + 1.0)
    return 10.0 ** rng.uniform(-320, -2)


def _draw_moved_kdelta(rng, i):
    return rng.uniform(28.0, HYBRID_SWITCH)


def _draw_case(rng, i, draw_kdelta):
    d = rng.randint(1, 10)
    alpha = _draw_alpha(rng, ALPHA_STRATA[i % len(ALPHA_STRATA)], d)
    kd = draw_kdelta(rng, i)
    delta = 10.0 ** rng.uniform(-2, 2)
    return KernelParams(d, alpha, delta), kd / delta


def _draw_lattice_case(rng, i):
    # a wavevector of d integer entries in [-c, c], c about |k| / sqrt(d) for
    # a k*delta log-uniform in [0.01, 150], and never beyond 150; delta as in
    # the benchmark's lattices or log-uniform in [0.01, 1]
    d = rng.randint(1, 10)
    alpha = _draw_alpha(rng, ALPHA_STRATA[i % len(ALPHA_STRATA)], d)
    delta = rng.choice((0.1, 0.25, 10.0 ** rng.uniform(-2, 0)))
    kd = 10.0 ** rng.uniform(-2, math.log10(150.0))
    c = max(1, min(round(kd / delta / math.sqrt(d)), int(150.0 / delta / math.sqrt(d))))
    m = sum(rng.randint(-c, c) ** 2 for _ in range(d)) or 1
    return KernelParams(d, alpha, delta), m


def _outcome(params, k, tol=DEFAULT_TOL):
    """The result of ``lambda_hybrid``, or None where it raised a typed
    error; any other exception propagates and fails the test."""
    try:
        return lambda_hybrid(params, k, tol)
    except (ValueError, NonConvergenceError):
        return None


def test_hybrid_within_its_estimate_of_the_series_oracle():
    # each case at every tol in TOLS, against one oracle value
    rng = random.Random(SEED)
    extra = random.Random(SEED + 2)
    moved = random.Random(SEED + 3)
    cases = [_draw_case(rng, i, _draw_kdelta) for i in range(CASES)]
    cases += [_draw_case(extra, i, _draw_extra_kdelta) for i in range(EXTRA_CASES)]
    cases += [_draw_case(moved, i, _draw_moved_kdelta) for i in range(MOVED_CASES)]
    failures = []
    for params, k in cases:
        results = []
        for tol in TOLS:
            try:
                results.append((tol, lambda_hybrid(params, k, tol)))
            except (ValueError, NonConvergenceError) as exc:
                failures.append((params, k, tol, f"{type(exc).__name__}: {exc}"))
        if not results:
            continue
        ref = oracle_lambda_maclaurin(params, k)
        for tol, res in results:
            with mp.workprec(256):
                err = float(abs((res.lam - ref) / ref))
            if not err <= res.est_rel_err:
                failures.append((params, k, tol, res, err))
    assert not failures, failures[:5]


def test_lattice_rows_within_their_estimate_of_the_oracle_at_sqrt_m():
    # the row of m that lattice_spectrum takes, at every tol in TOLS
    rng = random.Random(SEED + 4)
    failures = []
    for i in range(LATTICE_CASES):
        params, m = _draw_lattice_case(rng, i)
        with mp.workprec(256):
            ref = oracle_lambda_maclaurin(params, mp.sqrt(m))
        for tol in TOLS:
            try:
                res = spectra._Evaluator(params, tol).hybrid(math.sqrt(m), m)
            except (ValueError, NonConvergenceError) as exc:
                failures.append((params, m, tol, f"{type(exc).__name__}: {exc}"))
                continue
            with mp.workprec(256):
                err = float(abs((res.lam - ref) / ref))
            if not err <= res.est_rel_err:
                failures.append((params, m, tol, res, err))
    assert not failures, failures[:5]


def test_parts_within_their_budgets_beyond_the_series_oracle():
    # lambda_asymptotic budgets |part_a| 4 eps (1 + |t|) for the gamma-ratio
    # part and est_rel_err + 2 eps for each Lommel factor, whose estimate
    # covers the rounded exponent of x^(mu-1) too. Below the normal doubles
    # a factor can only be absolutely accurate; there it is weighted by
    # w ~ (k*delta)^(alpha+1-d) and far below rounding in lambda.
    # At alpha = d, mu + nu is -3 or -1 and mpmath's lommels2 takes up to
    # 12 s a call, so the Lommel factors are checked on the other strata;
    # the resummation has no branch on alpha.
    rng = random.Random(SEED + 1)
    failures = []
    for i in range(HUGE_CASES):
        d = rng.randint(1, 10)
        stratum = ALPHA_STRATA[i % len(ALPHA_STRATA)]
        alpha = _draw_alpha(rng, stratum, d)
        kd = 10.0 ** rng.uniform(math.log10(200.0), math.log10(ASYMPTOTIC_TAIL_CUTOFF))
        _outcome(KernelParams(d, alpha, 1.0), kd)
        part_a, t = _asy_gamma_part(d, alpha, math.gamma(0.5 * d), math.log(2.0 / kd))
        ref = oracle_asy_part_a(d, alpha, kd)
        if not abs(part_a - ref) <= 4.0 * EPS * (1.0 + abs(t)) * abs(part_a):
            failures.append(("part_a", d, alpha, kd, part_a, ref))
        if stratum == "d":
            continue
        for mu, nu in ((0.5 * (d - 2.0 - 2.0 * alpha), 0.5 * (d - 4.0)),
                       (0.5 * (d - 2.0 * alpha), 0.5 * (d - 2.0))):
            s = _lommel(_lommel_terms(mu, nu), kd, DEFAULT_TOL)
            ref = oracle_lommel(mu, nu, kd)
            with mp.workprec(256):
                err = float(abs(s.value - ref) / max(abs(ref), TINY))
            bound = s.est_rel_err + 2.0 * EPS
            if not (s.converged and err <= bound):
                failures.append(("lommel", d, alpha, kd, mu, nu, s, err))
    assert not failures, failures[:5]


def test_lommel_within_its_estimate_near_the_route_switch():
    # The two factors of lambda_asymptotic where the route starts, whose
    # resummation runs longest: the last approximant difference alone
    # underestimates the error of 228 of these 300 calls, while with the
    # rounding term of the early exit none err above their estimate
    rng = random.Random(5)
    failures = []
    for _ in range(150):
        d = rng.randint(1, 10)
        alpha = rng.uniform(0.0, d + 2)
        kd = rng.uniform(6.0, 20.0)
        for mu, nu in ((0.5 * (d - 2.0 - 2.0 * alpha), 0.5 * (d - 4.0)),
                       (0.5 * (d - 2.0 * alpha), 0.5 * (d - 2.0))):
            s = _lommel(_lommel_terms(mu, nu), kd, DEFAULT_TOL)
            ref = oracle_lommel(mu, nu, kd)
            with mp.workprec(256):
                err = float(abs((s.value - ref) / ref))
            if not (s.converged and err <= s.est_rel_err):
                failures.append((d, alpha, kd, mu, nu, s, err))
    assert not failures, failures[:5]

"""The accuracy contract over the admissible inputs, on a seeded sample.

Every ``lambda_hybrid`` call at tol = 10 eps either returns a value within
its ``est_rel_err`` of the mpmath series or raises ``ValueError`` or
``NonConvergenceError``. Cases are drawn with stdlib ``random`` from a fixed
seed in strata of alpha (0, d, just below d + 2, tiny, uniform) and of
k*delta (log-uniform in [0.01, 150], with extra draws around the route
switch at 6). Beyond k*delta = 200, where the series oracle is out of
reach, the gamma-ratio part and the two Lommel factors of the asymptotic
form are checked against their own oracles.
"""

import math
import random
import sys

from mpmath import mp

from nlspectra import KernelParams, NonConvergenceError, lambda_hybrid
from nlspectra.drummond import DEFAULT_TOL, _lommel
from nlspectra.oracle import oracle_asy_part_a, oracle_lambda_maclaurin, oracle_lommel
from nlspectra.spectra import ASYMPTOTIC_TAIL_CUTOFF, _asy_gamma_part

EPS = sys.float_info.epsilon
#: Smallest normal double.
TINY = sys.float_info.min
SEED = 20181
CASES = 2000
HUGE_CASES = 40
ALPHA_STRATA = ("zero", "d", "below_d_plus_2", "tiny", "uniform")


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


def _outcome(params, k):
    """The result of ``lambda_hybrid``, or None where it raised a typed
    error; any other exception propagates and fails the test."""
    try:
        return lambda_hybrid(params, k, DEFAULT_TOL)
    except (ValueError, NonConvergenceError):
        return None


def test_hybrid_within_its_estimate_of_the_series_oracle():
    rng = random.Random(SEED)
    failures = []
    for i in range(CASES):
        d = rng.randint(1, 10)
        alpha = _draw_alpha(rng, ALPHA_STRATA[i % len(ALPHA_STRATA)], d)
        kd = _draw_kdelta(rng, i)
        delta = 10.0 ** rng.uniform(-2, 2)
        params = KernelParams(d, alpha, delta)
        k = kd / delta
        res = _outcome(params, k)
        if res is None:
            continue
        ref = oracle_lambda_maclaurin(params, k)
        with mp.workprec(256):
            err = float(abs((res.lam - ref) / ref))
        if not err <= res.est_rel_err:
            failures.append((d, alpha, delta, k, res, err))
    assert not failures, failures[:5]


def test_parts_within_their_budgets_beyond_the_series_oracle():
    # lambda_asymptotic budgets |part_a| 4 eps (1 + |t|) for the gamma-ratio
    # part and est_rel_err + 2 eps for each Lommel factor. A factor also
    # carries x^(mu-1), whose exponent is rounded: eps |mu-1| ln x more,
    # which the resummation's estimate leaves out (ROADMAP item 1). Below the
    # normal doubles a factor can only be absolutely accurate; there it is
    # weighted by w ~ (k*delta)^(alpha+1-d) and far below rounding in lambda.
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
        part_a, t = _asy_gamma_part(d, alpha, math.log(2.0 / kd))
        ref = oracle_asy_part_a(d, alpha, kd)
        if not abs(part_a - ref) <= 4.0 * EPS * (1.0 + abs(t)) * abs(part_a):
            failures.append(("part_a", d, alpha, kd, part_a, ref))
        if stratum == "d":
            continue
        for mu, nu in ((0.5 * (d - 2.0 - 2.0 * alpha), 0.5 * (d - 4.0)),
                       (0.5 * (d - 2.0 * alpha), 0.5 * (d - 2.0))):
            s = _lommel(mu, nu, kd, DEFAULT_TOL)
            ref = oracle_lommel(mu, nu, kd)
            with mp.workprec(256):
                err = float(abs(s.value - ref) / max(abs(ref), TINY))
            bound = s.est_rel_err + 2.0 * EPS + EPS * abs(mu - 1.0) * math.log(kd)
            if not (s.converged and err <= bound):
                failures.append(("lommel", d, alpha, kd, mu, nu, s, err))
    assert not failures, failures[:5]

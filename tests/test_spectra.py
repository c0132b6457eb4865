import itertools
import math

import pytest
from mpmath import mp

from nlspectra import (
    KernelParams,
    NonConvergenceError,
    _purepy,
    apply_to_fourier_coeffs,
    lambda_asymptotic,
    lambda_hybrid,
    lambda_maclaurin,
    lattice_spectrum,
    spectra,
)
from nlspectra._backend import kernels
from nlspectra.oracle import (
    oracle_asy_part_a,
    oracle_closed_form_d1_a0,
    oracle_digamma,
    oracle_lambda_maclaurin,
)
from nlspectra.spectra import (
    ASYMPTOTIC_TAIL_CUTOFF,
    HYBRID_SWITCH,
    _asy_gamma_part,
    achievable_squared_norms,
)

EPS = 2.220446049250313e-16


def rel(got, ref):
    ref = float(ref)
    if ref == 0.0:
        return abs(got - ref)
    return abs((got - ref) / ref)


class TestKernelParams:
    def test_valid(self):
        KernelParams(3, 2.0, 1.0)

    @pytest.mark.parametrize(
        "d, alpha, delta",
        [
            (0, 1.0, 1.0),
            (11, 1.0, 1.0),
            (3, -0.1, 1.0),
            (3, 5.0, 1.0),
            (3, 5.1, 1.0),
            (3, 2.0, 0.0),
            (3, 2.0, -1.0),
            (3, 2.0, math.inf),
        ],
    )
    def test_invalid(self, d, alpha, delta):
        with pytest.raises(ValueError):
            KernelParams(d, alpha, delta)


class TestStablePrefactor:
    """The kernel's f(x, y, z), taken from log y, and its exponent t."""

    @staticmethod
    def f(x, y, z):
        return kernels.stable_prefactor(x, math.log(y), z)[0]

    def test_limit_value_at_x_zero(self):
        ref = 2.0 * math.log(3.0) + float(oracle_digamma(1.0) + oracle_digamma(1.5))
        assert rel(self.f(0.0, 3.0, 1.5), ref) <= 1e-13
        assert kernels.stable_prefactor(0.0, math.log(3.0), 1.5)[1] == 0.0

    def test_half_integer_point(self):
        # Gamma(1.5)/Gamma(0.5) = 1/2 gives (1/2 - 1)/(1/2) = -1, t = log(1/2)
        f, t = kernels.stable_prefactor(0.5, 0.0, 1.0)
        assert rel(f, -1.0) <= 1e-14
        assert rel(t, -math.log(2.0)) <= 1e-14

    def test_continuous_through_zero(self):
        for y in [0.3, 2.0, 7.0]:
            for z in [0.5, 1.5, 4.0]:
                a = self.f(1e-9, y, z)
                b = self.f(0.0, y, z)
                assert abs(a - b) <= 1e-7
                # the true x = 1e-9 value differs from the limit by O(1e-9)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(b)) + 1e-8

    def test_same_bits_with_cold_and_warm_log_gamma_memo(self):
        args = [(x, y, z) for x in (-0.75, 0.5, 2.0) for y in (0.01, 3.0) for z in (2.5, 5.0)]
        _purepy._log_gamma_ratios.cache_clear()
        cold = [self.f(*a) for a in args]
        warm = [self.f(*a) for a in args]
        assert [v.hex() for v in warm] == [v.hex() for v in cold]


class TestAsymptoticGammaPart:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("kd", [6.0, 20.0, 1e8, 1e52])
    def test_assembly_matches_unrearranged_form(self, d, kd):
        alpha = 0.0
        while alpha < d + 2 - 1e-9:
            got = _asy_gamma_part(d, alpha, math.log(2.0 / kd))[0]
            ref = oracle_asy_part_a(d, alpha, kd)
            scale = max(abs(float(ref)), 1e-3)
            assert abs(got - float(ref)) / scale <= 1e-12, (d, alpha, kd)
            alpha += 0.25

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_limit_branch_at_alpha_d(self, d):
        got = _asy_gamma_part(d, float(d), math.log(2.0 / 9.0))[0]
        ref = oracle_asy_part_a(d, d, 9.0)
        assert rel(got, ref) <= 1e-12


class TestLambdaMaclaurin:
    def test_zero_mode(self):
        res = lambda_maclaurin(KernelParams(3, 2.0, 1.0), 0.0)
        assert res.lam == 0.0
        assert res.method == "zero"
        assert res.terms == 0

    def test_closed_form_d1_alpha0(self):
        res = lambda_maclaurin(KernelParams(1, 0.0, 1.0), 1.0)
        assert res.method == "maclaurin"
        assert rel(res.lam, 6.0 * math.sin(1.0) - 6.0) <= 1e-13

    def test_laplacian_limit_small_horizon(self):
        res = lambda_maclaurin(KernelParams(3, 2.0, 1e-3), 1.0)
        assert rel(res.lam, -1.0) <= 1e-7

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_against_oracle(self, d):
        for alpha in [0.0, 0.7, float(d), d + 1.9]:
            params = KernelParams(d, alpha, 1.0)
            for kd in [0.1, 2.0, 5.9]:
                res = lambda_maclaurin(params, kd)
                assert rel(res.lam, oracle_lambda_maclaurin(params, kd)) <= 1e-12

    def test_overflowing_argument_is_nonconvergence(self):
        # (k*delta)^2 leaves the double range before the first term
        with pytest.raises(NonConvergenceError, match="exceeds the double range") as info:
            lambda_maclaurin(KernelParams(3, 2.0, 1.0), 1e200)
        res = info.value.result
        assert res.method == "maclaurin" and math.isnan(res.lam)
        assert res.est_rel_err == math.inf

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_estimate_bounds_the_error(self, d):
        # first omitted term plus the rounding of the alternating sum
        kds = [0.01 * 3000 ** (i / 12) for i in range(13)]
        for alpha in [0.0, d - 0.5, float(d), d + 1.9, d + 2 - 1e-9]:
            params = KernelParams(d, alpha, 1.0)
            for kd in kds:
                ref = oracle_lambda_maclaurin(params, kd)
                for tol in [10 * EPS, 1e-12, 1e-8]:
                    res = lambda_maclaurin(params, kd, tol)
                    with mp.workprec(256):
                        err = abs((res.lam - ref) / ref)
                    assert err <= res.est_rel_err, (alpha, kd, tol)


class TestLambdaAsymptotic:
    def test_closed_form_d1_alpha0(self):
        res = lambda_asymptotic(KernelParams(1, 0.0, 1.0), 10.0)
        assert res.method == "asymptotic"
        assert rel(res.lam, float(oracle_closed_form_d1_a0(1.0, 10.0))) <= 1e-12

    def test_removable_singularity_alpha_equals_d(self):
        params = KernelParams(2, 2.0, 1.0)
        res = lambda_asymptotic(params, 10.0)
        assert rel(res.lam, oracle_lambda_maclaurin(params, 10.0)) <= 1e-11

    def test_agrees_with_maclaurin_at_switch(self):
        params = KernelParams(3, 2.0, 1.0)
        a = lambda_asymptotic(params, 6.0).lam
        b = lambda_maclaurin(params, 6.0).lam
        assert abs(a - b) <= 1e-11 * abs(a)

    def test_domain_error_at_zero(self):
        with pytest.raises(ValueError):
            lambda_asymptotic(KernelParams(3, 2.0, 1.0), 0.0)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_estimate_bounds_the_error(self, d):
        # the parts' errors carried through part_a + part_b; k*delta spans
        # the Bessel regimes up to the oracle's limit
        kds = [6.0, 6.5, 7.0, 8.5, 10.0, 13.0, 17.0, 22.0, 30.0, 45.0, 70.0, 100.0, 140.0, 200.0]
        for alpha in [0.0, d - 0.5, float(d), d + 1.9, d + 2 - 1e-9]:
            params = KernelParams(d, alpha, 1.0)
            for kd in kds:
                res = lambda_asymptotic(params, kd)
                ref = oracle_lambda_maclaurin(params, kd)
                with mp.workprec(256):
                    err = abs((res.lam - ref) / ref)
                assert err <= res.est_rel_err, (alpha, kd)

    @pytest.mark.parametrize(
        "d,alpha", [(4, 0.0), (6, 0.0), (6, 2.0), (8, 2.0), (10, 0.0), (10, 4.0), (5, 1.0)]
    )
    @pytest.mark.parametrize("kd", [8.0, 20.0])
    def test_terminating_lommel_parameters(self, d, alpha, kd):
        # alpha/2, (4-d+alpha)/2 or (2-d+alpha)/2 is a nonpositive integer:
        # a Lommel expansion terminates and is summed exactly
        params = KernelParams(d, alpha, 1.0)
        res = lambda_asymptotic(params, kd)
        assert rel(res.lam, oracle_lambda_maclaurin(params, kd)) <= res.est_rel_err


# lambda_hybrid(KernelParams(d, alpha, 1), kd).lam by the full formula, Lommel
# part included; the tail cutoff must leave these bits unchanged
_FULL_FORM_VALUES = {
    (1, 0.5, 1e20): "-0x1.3fffffffa9df6p+3",
    (1, 0.5, 1e40): "-0x1.3ffffffffffffp+3",
    (1, 2.9, 1e20): "-0x1.4ab7415dc4c1bp+126",
    (1, 2.9, 1e40): "-0x1.84c12da9b7761p+252",
    (3, 2.5, 1e20): "-0x1.dffffffefd9ebp+4",
    (3, 2.5, 1e40): "-0x1.e000000000004p+4",
    (3, 4.9, 1e20): "-0x1.561ead8d23d6ap+126",
    (3, 4.9, 1e40): "-0x1.9228f171c6aa1p+252",
    (10, 9.5, 1e20): "-0x1.8ffffffec1585p+6",
    (10, 9.5, 1e40): "-0x1.8ffffffffffffp+6",
    (10, 11.9, 1e20): "-0x1.67dabed0c7d95p+126",
    (10, 11.9, 1e40): "-0x1.a701c44af082bp+252",
}


def _huge_kdelta_cases():
    for d in [1, 2, 3, 5, 10]:
        for alpha in [0.0, d - 0.5, float(d), d + 1.9]:
            for kd in [1e52, 1e100, 1e150] + ([1e300] if alpha <= d else []):
                yield d, alpha, kd


class TestHugeKdelta:
    """Beyond the Lommel expansion's range only the gamma-ratio part is left."""

    @pytest.mark.parametrize("d,alpha,kd", list(_huge_kdelta_cases()))
    def test_gamma_ratio_part_alone(self, d, alpha, kd):
        res = lambda_hybrid(KernelParams(d, alpha, 1.0), kd)
        assert res.method == "asymptotic" and res.terms == 0
        ref = (
            2 * mp.gamma(mp.mpf(d) / 2 + 1) * (d + 2 - mp.mpf(alpha))
            * oracle_asy_part_a(d, alpha, kd)
        )
        err = rel(res.lam, ref)
        assert err <= 2e-14 + 8 * EPS * abs(alpha - d) * math.log(kd)
        assert err <= res.est_rel_err

    def test_huge_horizon_is_finite(self):
        res = lambda_hybrid(KernelParams(3, 2.0, 1e300), 1.0)
        assert math.isfinite(res.lam) and res.method == "asymptotic"

    @pytest.mark.parametrize("key", sorted(_FULL_FORM_VALUES))
    def test_full_form_below_cutoff_unchanged(self, key):
        d, alpha, kd = key
        assert kd < ASYMPTOTIC_TAIL_CUTOFF
        res = lambda_hybrid(KernelParams(d, alpha, 1.0), kd)
        assert res.terms > 0
        assert res.lam.hex() == _FULL_FORM_VALUES[key]

    @pytest.mark.parametrize("d", [1, 3, 5])
    @pytest.mark.parametrize("alpha_minus_d", [0.5, 1.9])
    @pytest.mark.parametrize("kd", [1e200, 1e300])
    def test_alpha_above_d_in_logs(self, d, alpha_minus_d, kd):
        # (kd/2)^(alpha-d) overflows at alpha = d+1.9; with this horizon
        # lambda itself stays in the double range
        alpha = d + alpha_minus_d
        delta = 1e150
        k = kd / delta
        kd = k * delta
        res = lambda_hybrid(KernelParams(d, alpha, delta), k)
        assert res.method == "asymptotic" and res.terms == 0
        ref = (
            2 * mp.gamma(mp.mpf(d) / 2 + 1) * (d + 2 - mp.mpf(alpha)) / mp.mpf(delta) ** 2
            * oracle_asy_part_a(d, alpha, kd)
        )
        err = rel(res.lam, ref)
        assert err <= 2e-14 + 8 * EPS * abs(alpha - d) * math.log(kd)
        assert err <= res.est_rel_err

    def test_alpha_above_d_huge_horizon(self):
        res = lambda_hybrid(KernelParams(1, 2.9, 1e200), 1.0)
        assert rel(res.lam, -1.098991886799671e-20) <= 1e-12

    @pytest.mark.parametrize("delta,k", [(1.0, 1e300), (1e-100, 1e250)])
    def test_lambda_beyond_double_range_rejected(self, delta, k):
        # lambda ~ -1.1e570, and ~ -1e485 where (kd/2)^(alpha-d) alone fits
        with pytest.raises(ValueError, match="exceeds the double range"):
            lambda_hybrid(KernelParams(1, 2.9, delta), k)

    @pytest.mark.parametrize("k", [math.inf, math.nan, -1.0])
    def test_non_finite_or_negative_k_rejected(self, k):
        with pytest.raises(ValueError, match="k_mod must be finite and >= 0"):
            lambda_hybrid(KernelParams(3, 2.0, 1.0), k)


class TestDeltaSquaredRange:
    """delta^2 alone leaves the double range; lambda is computed or named out of it."""

    @pytest.mark.parametrize(
        "d,alpha,delta,kd",
        [(3, 3.5, 1e200, 1e300), (3, 4.5, 1e160, 1e40), (2, 3.9, 1e170, 1e40)],
    )
    def test_representable_lambda(self, d, alpha, delta, kd):
        with mp.workdps(40):
            ref = mp.mpf(lambda_hybrid(KernelParams(d, alpha, 1.0), kd).lam) / mp.mpf(delta) ** 2
        res = lambda_hybrid(KernelParams(d, alpha, delta), kd / delta)
        assert rel(res.lam, ref) <= 8 * EPS

    @pytest.mark.parametrize("delta", [1e-160, 1e-170])
    def test_lambda_beyond_double_range_rejected(self, delta):
        # lambda ~ -1.8e321 and ~ -1.8e341
        with pytest.raises(ValueError, match="exceeds the double range"):
            lambda_hybrid(KernelParams(3, 2.0, delta), 100.0 / delta)

    def test_kdelta_overflow_named(self):
        # k*delta = inf is computed in logarithms; lambda ~ -1.1e569 is not
        with pytest.raises(ValueError, match="exceeds the double range"):
            lambda_hybrid(KernelParams(1, 2.9, 1e10), 1e300)

    @pytest.mark.parametrize(
        "d,alpha,delta,k",
        [
            (3, 2.0, 1e170, 1e140),
            (3, 2.0, 1e170, 1e130),
            (1, 0.0, 1e200, 1e100),
            (1, 2.9, 1.7e308, 1e162 / 1.7e308),
            (3, 2.0, 1e300, 1.0),
        ],
    )
    def test_lambda_below_normal_doubles_unestimated(self, d, alpha, delta, k):
        # k*delta = inf, 1e300, 1e300, (kd/2)^(alpha-d) beyond the double
        # range, and 1e300: a subnormal or zero lambda has lost its
        # relative accuracy, and its estimate says so
        with mp.workprec(256):
            ref = (
                2 * mp.gamma(mp.mpf(d) / 2 + 1) * (d + 2 - mp.mpf(alpha)) / mp.mpf(delta) ** 2
                * oracle_asy_part_a(d, alpha, mp.mpf(k) * mp.mpf(delta))
            )
        assert 0 < abs(ref) < 2.2250738585072014e-308
        res = lambda_hybrid(KernelParams(d, alpha, delta), k)
        assert res.method == "asymptotic" and res.terms == 0
        assert abs(res.lam) < 2.2250738585072014e-308
        assert res.est_rel_err == math.inf

    @pytest.mark.parametrize(
        "d,alpha,delta,k,lam",
        [
            (3, 2.0, 1e10, 1e300, -1.8e-19),
            (3, 3.0, 1e10, 1e300, -8.5605431339166683e-17),
            (3, 0.0, 1e10, 1e300, -1.0e-19),
            (3, 3.5, 1e150, 1e160, -1.5039769647786003e-144),
            (3, 4.9, 1e150, 1e160, -1.1368881587585682e289),
        ],
    )
    def test_overflowing_kdelta_in_logs(self, d, alpha, delta, k, lam):
        # lam: the gamma-ratio part in mpmath at k*delta = 1e310
        assert k * delta == math.inf
        res = lambda_hybrid(KernelParams(d, alpha, delta), k)
        assert res.method == "asymptotic" and res.terms == 0
        assert rel(res.lam, lam) <= res.est_rel_err
        with mp.workprec(256):
            ref = (
                2 * mp.gamma(mp.mpf(d) / 2 + 1) * (d + 2 - mp.mpf(alpha)) / mp.mpf(delta) ** 2
                * oracle_asy_part_a(d, alpha, mp.mpf(k) * mp.mpf(delta))
            )
        assert rel(res.lam, ref) <= res.est_rel_err


class TestLambdaHybrid:
    def test_dispatch_below_switch(self):
        assert lambda_hybrid(KernelParams(3, 2.0, 1.0), 5.9).method == "maclaurin"

    def test_dispatch_at_switch(self):
        assert lambda_hybrid(KernelParams(3, 2.0, 1.0), 6.0).method == "asymptotic"

    def test_no_jump_across_switch(self):
        params = KernelParams(3, 2.0, 1.0)
        for k in [5.999, 6.001]:
            res = lambda_hybrid(params, k)
            assert rel(res.lam, oracle_lambda_maclaurin(params, k)) <= 5e-10

    def test_dispatch_is_function_of_kdelta(self):
        for delta in [0.25, 1.0, 3.0]:
            params = KernelParams(2, 1.0, delta)
            for kd in [0.5, 5.99, 6.0, 40.0]:
                res = lambda_hybrid(params, kd / delta)
                expected = "maclaurin" if kd < HYBRID_SWITCH else "asymptotic"
                assert res.method == expected

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sign_and_zero(self, d):
        alphas = [0.0, 0.5 * d, float(d), d + 1.75]
        for alpha in alphas:
            params = KernelParams(d, alpha, 1.0)
            assert lambda_hybrid(params, 0.0).lam == 0.0
            for k in [0.1, 1.0, 5.0, 6.0, 13.0, 80.0]:
                assert lambda_hybrid(params, k).lam < 0.0, (d, alpha, k)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_overlap_band_agreement(self, d):
        alphas = [0.5 * j for j in range(2 * d + 4)] + [d + 1.75]
        for alpha in alphas:
            params = KernelParams(d, alpha, 1.0)
            for kd in [5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0]:
                mac = lambda_maclaurin(params, kd).lam
                asy = lambda_asymptotic(params, kd).lam
                assert abs(mac - asy) <= 1e-9 * abs(mac), (d, alpha, kd)

    def test_tol_is_honoured_on_a_lattice(self):
        # every 50th squared norm of the d=3, kmax=64 lattice, both routes
        params = KernelParams(3, 2.0, 0.1)
        ms = achievable_squared_norms(3, 64)[1::50]
        assert sum(math.sqrt(m) * params.delta >= HYBRID_SWITCH for m in ms) >= 100
        for m in ms:
            ref = oracle_lambda_maclaurin(params, math.sqrt(m))
            for tol in [10 * EPS, 1e-12, 1e-8, 1e-5]:
                res = lambda_hybrid(params, math.sqrt(m), tol)
                with mp.workprec(256):
                    err = abs((res.lam - ref) / ref)
                assert err <= tol, (m, tol)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_laplacian_limit(self, d):
        for alpha in [0.5, 0.5 * d, d + 1.0]:
            params = KernelParams(d, alpha, 1.0)
            res = lambda_hybrid(params, 1e-4)
            assert abs(res.lam / -(1e-4**2) - 1.0) <= 1e-6

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("kd", [6.0, 20.0])
    def test_alpha_continuity_at_d(self, d, kd):
        lam0 = lambda_hybrid(KernelParams(d, float(d), 1.0), kd).lam
        for eps in [-1e-6, 1e-6]:
            lam1 = lambda_hybrid(KernelParams(d, d + eps, 1.0), kd).lam
            assert abs(lam1 - lam0) <= 1e-5 * abs(lam0)


    @pytest.mark.parametrize("d", range(1, 11))
    def test_tiny_alpha_within_estimate(self, d):
        # from 1e-17 down (and 1.2e-16 at d = 3, 3e-16 at d = 10),
        # (d - alpha)/2 rounds to d/2 and the gamma-ratio part takes its
        # alpha = 0 form rather than meet the pole of Gamma(0)
        for alpha in [5e-324, 1e-300, 1e-100, 1e-17, 1.2e-16, 3e-16, 1e-12, 1e-8]:
            params = KernelParams(d, alpha, 1.0)
            for kd in (6.5, 30.0):
                res = lambda_hybrid(params, kd)
                assert res.method == "asymptotic"
                err = rel(res.lam, oracle_lambda_maclaurin(params, kd))
                assert err <= res.est_rel_err, (alpha, kd)


class TestLattice:
    def test_achievable_d2_kmax1(self):
        assert achievable_squared_norms(2, 1) == [0, 1, 2]

    def test_achievable_d3_kmax2_matches_brute_force(self):
        got = achievable_squared_norms(3, 2)
        brute = sorted(
            {
                i * i + j * j + k * k
                for i in range(-2, 3)
                for j in range(-2, 3)
                for k in range(-2, 3)
            }
        )
        assert got == brute == [0, 1, 2, 3, 4, 5, 6, 8, 9, 12]

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_achievable_matches_enumeration(self, d):
        for kmax in range(9):
            squares = [j * j for j in range(kmax + 1)]
            brute = sorted({sum(c) for c in itertools.product(squares, repeat=d)})
            assert achievable_squared_norms(d, kmax) == brute, (d, kmax)

    def test_achievable_benchmark_lattice_sizes(self):
        assert len(achievable_squared_norms(3, 64)) == 8041
        assert len(achievable_squared_norms(2, 128)) == 5924

    @pytest.mark.parametrize("d", [0, -1, True, 2.0])
    def test_achievable_rejects_a_d_below_one_or_not_integer(self, d):
        # d = 0 and d = -1 used to give the d = 1 answer
        with pytest.raises(ValueError, match="d must be"):
            achievable_squared_norms(d, 3)

    @pytest.mark.parametrize(
        "d, alpha, delta, kmax",
        # k*delta reaches 28 and beyond, so every Bessel regime is crossed
        [(1, 0.5, 0.6, 60), (2, 3.9, 0.8, 40), (3, 2.0, 2.0, 12), (4, 4.0, 4.0, 6),
         (5, 1.0, 5.0, 5)],
    )
    def test_spectrum_entries_are_single_evaluations(self, d, alpha, delta, kmax):
        params = KernelParams(d, alpha, delta)
        table = lattice_spectrum(params, kmax)
        assert max(table.entries) * delta * delta >= 28.0**2
        for m, res in table.entries.items():
            one = lambda_hybrid(params, math.sqrt(m))
            assert (res.lam.hex(), res.method, res.terms, res.est_rel_err.hex()) == (
                one.lam.hex(), one.method, one.terms, one.est_rel_err.hex()
            ), m

    def test_spectrum_d2_kmax1(self):
        table = lattice_spectrum(KernelParams(2, 1.0, 0.5), 1)
        assert sorted(table.entries) == [0, 1, 2]
        assert table.entries[0].lam == 0.0
        assert table.entries[0].method == "zero"

    def test_spectrum_d1_closed_form(self):
        table = lattice_spectrum(KernelParams(1, 0.0, 1.0), 3)
        assert sorted(table.entries) == [0, 1, 4, 9]
        for m in [1, 4, 9]:
            ref = float(oracle_closed_form_d1_a0(1.0, math.sqrt(m)))
            assert rel(table.entries[m].lam, ref) <= 1e-12

    def test_parallel_results_identical(self):
        params = KernelParams(2, 1.5, 1.0)
        serial = lattice_spectrum(params, 4, jobs=1)
        parallel = lattice_spectrum(params, 4, jobs=4)
        assert serial.entries == parallel.entries

    def test_kmax_guard(self):
        with pytest.raises(ValueError):
            lattice_spectrum(KernelParams(2, 1.0, 1.0), 4097)

    @pytest.mark.parametrize("jobs", [0, -3])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match=f"jobs must be >= 1, got {jobs}"):
            lattice_spectrum(KernelParams(2, 1.0, 1.0), 2, jobs=jobs)

    def test_tables_compare_their_entries(self):
        params = KernelParams(3, 2.0, 1.0)
        exact = lattice_spectrum(params, 4)
        loose = lattice_spectrum(params, 4, tol=1e-3)
        assert exact.entries[1].lam != loose.entries[1].lam
        assert exact != loose
        assert lattice_spectrum(params, 4, jobs=1) == lattice_spectrum(params, 4, jobs=2)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_entries_in_ascending_m(self, jobs):
        # the CLI writes its rows in this order
        ms = achievable_squared_norms(3, 8)
        assert len(ms) >= 100
        table = lattice_spectrum(KernelParams(3, 1.5, 0.5), 8, jobs=jobs)
        assert list(table.entries) == ms

    def test_nonconvergence_reports_same_error_for_any_jobs(self, monkeypatch):
        # forked workers inherit the patched cap
        monkeypatch.setattr(spectra, "MACLAURIN_TERM_CAP", 2)
        errors = []
        for jobs in (1, 2):
            with pytest.raises(NonConvergenceError) as info:
                lattice_spectrum(KernelParams(2, 1.0, 1.0), 2, jobs=jobs)
            assert info.value.result is not None
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("lattice evaluation failed at m=1: ")


class TestApplyToFourierCoeffs:
    def test_single_mode_scales_by_eigenvalue(self):
        params = KernelParams(2, 1.0, 0.5)
        out = apply_to_fourier_coeffs(params, {(1, 0): 1.0 + 0.0j})
        assert out[(1, 0)] == lambda_hybrid(params, 1.0).lam

    def test_constant_function_maps_to_zero(self):
        out = apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), {(0, 0): 3.5 + 1.0j})
        assert out[(0, 0)] == 0.0

    def test_equal_norms_get_identical_multiplier(self):
        params = KernelParams(2, 1.0, 0.5)
        out = apply_to_fourier_coeffs(params, {(3, 4): 1.0 + 0j, (5, 0): 1.0 + 0j})
        assert out[(3, 4)] == out[(5, 0)]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), {(1, 0, 0): 1.0 + 0j})

    def test_non_integral_wavevector_rejected(self):
        # truncated to (1, 0), (1.5, 0) would be overwritten by (1, 0)'s own
        # amplitude
        params = KernelParams(2, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"wavevector \(1\.5, 0\) has a non-integral"):
            apply_to_fourier_coeffs(params, {(1.5, 0): 1.0, (1, 0): 2.0})
        out = apply_to_fourier_coeffs(params, {(2.0, 0): 1.0})
        assert out == {(2, 0): lambda_hybrid(params, 2.0).lam}

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_wavevector_rejected(self, entry):
        params = KernelParams(2, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"has a non-integral entry"):
            apply_to_fourier_coeffs(params, {(entry, 0): 1.0})

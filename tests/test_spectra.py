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
from nlspectra.oracle import (
    oracle_asy_part_a,
    oracle_closed_form_d1_a0,
    oracle_digamma,
    oracle_lambda_maclaurin,
)
from nlspectra.spectra import (
    ASYMPTOTIC_TAIL_CUTOFF,
    HYBRID_SWITCH,
    _asy_part_a,
    achievable_squared_norms,
    stable_prefactor,
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
    def test_limit_value_at_x_zero(self):
        ref = 2.0 * math.log(3.0) + float(oracle_digamma(1.0) + oracle_digamma(1.5))
        assert rel(stable_prefactor(0.0, 3.0, 1.5), ref) <= 1e-13

    def test_half_integer_point(self):
        # Gamma(1.5)/Gamma(0.5) = 1/2 gives (1/2 - 1)/(1/2) = -1
        assert rel(stable_prefactor(0.5, 1.0, 1.0), -1.0) <= 1e-14

    def test_continuous_through_zero(self):
        for y in [0.3, 2.0, 7.0]:
            for z in [0.5, 1.5, 4.0]:
                a = stable_prefactor(1e-9, y, z)
                b = stable_prefactor(0.0, y, z)
                assert abs(a - b) <= 1e-7
                # the true x = 1e-9 value differs from the limit by O(1e-9)
                assert abs(a - b) <= 1e-8 * max(1.0, abs(b)) + 1e-8

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            stable_prefactor(0.1, -1.0, 1.0)
        with pytest.raises(ValueError):
            stable_prefactor(0.1, 1.0, 0.0)
        with pytest.raises(ValueError):
            stable_prefactor(1.5, 1.0, 1.5)
        with pytest.raises(ValueError):
            stable_prefactor(-1.0, 1.0, 1.5)

    def test_same_bits_with_cold_and_warm_log_gamma_memo(self):
        args = [(x, y, z) for x in (-0.75, 0.5, 2.0) for y in (0.01, 3.0) for z in (2.5, 5.0)]
        _purepy._log_gamma_ratios.cache_clear()
        cold = [stable_prefactor(*a) for a in args]
        warm = [stable_prefactor(*a) for a in args]
        assert [v.hex() for v in warm] == [v.hex() for v in cold]


class TestAsymptoticGammaPart:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("kd", [6.0, 20.0, 1e8, 1e52])
    def test_assembly_matches_unrearranged_form(self, d, kd):
        alpha = 0.0
        while alpha < d + 2 - 1e-9:
            got = _asy_part_a(d, alpha, math.log(2.0 / kd))
            ref = oracle_asy_part_a(d, alpha, kd)
            scale = max(abs(float(ref)), 1e-3)
            assert abs(got - float(ref)) / scale <= 1e-12, (d, alpha, kd)
            alpha += 0.25

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_limit_branch_at_alpha_d(self, d):
        got = _asy_part_a(d, float(d), math.log(2.0 / 9.0))
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

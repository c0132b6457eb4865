"""Accuracy of the special-function kernels the eigenvalue routes call:
gamma, the log-gamma ratio, digamma and Bessel J (order passed as 2*nu)."""

import math
import sys

import pytest

from nlspectra import KernelParams
from nlspectra._backend import kernels
from nlspectra._purepy import LANCZOS_C, LANCZOS_G
from nlspectra.oracle import (
    oracle_bessel_j,
    oracle_digamma,
    oracle_gamma,
    oracle_loggamma,
)

EULER_GAMMA = 0.5772156649015328606


def rel(got, ref):
    ref = float(ref)
    if ref == 0.0:
        return abs(got - ref)
    return abs((got - ref) / ref)


class TestGamma:
    def test_factorials(self):
        assert rel(kernels.gamma(1.0), 1.0) <= 1e-14
        assert rel(kernels.gamma(4.0), 6.0) <= 1e-14

    def test_sqrt_pi(self):
        assert rel(kernels.gamma(0.5), math.sqrt(math.pi)) <= 1e-14

    def test_against_oracle_on_caller_domain(self):
        x = -0.49
        while x <= 10.0:
            if abs(x - round(x)) > 1e-3:
                assert rel(kernels.gamma(x), oracle_gamma(x)) <= 1e-14, x
            x += 0.0371

    def test_negative_noninteger_via_recurrence(self):
        assert rel(kernels.gamma(-0.3), oracle_gamma(-0.3)) <= 1e-14


class TestLanczosTable:
    def test_size(self):
        assert len(LANCZOS_C) >= 7

    @pytest.mark.parametrize("z", [0.0, 0.5, 1.0, 2.0, 3.5])
    def test_formula_reproduces_gamma(self, z):
        t = z + LANCZOS_G + 0.5
        series = LANCZOS_C[0] + sum(
            c / (z + i) for i, c in enumerate(LANCZOS_C[1:], start=1)
        )
        val = math.sqrt(2 * math.pi) * t ** (z + 0.5) * math.exp(-t) * series
        assert rel(val, oracle_gamma(z + 1.0)) <= 1e-13


class TestLogGammaRatio:
    def test_zero_eps(self):
        assert kernels.log_gamma_ratio(0.0, 0.0) == 0.0

    def test_gamma2_over_gamma1(self):
        # log(Gamma(2)/Gamma(1)) = 0
        assert abs(kernels.log_gamma_ratio(0.0, 1.0)) <= 1e-13

    def test_against_loggamma_oracle(self):
        ref = float(oracle_loggamma(2.5) - oracle_loggamma(2.0))
        assert rel(kernels.log_gamma_ratio(1.0, 0.5), ref) <= 1e-13

    @pytest.mark.parametrize("z", [0.0, 0.5, 2.0])
    @pytest.mark.parametrize("eps", [1e-8, 0.1, 1.0])
    def test_antisymmetry(self, z, eps):
        resid = kernels.log_gamma_ratio(z, eps) + kernels.log_gamma_ratio(z + eps, -eps)
        assert abs(resid) <= 1e-13

    def test_consistency_with_gamma(self):
        for z in [0.0, 0.3, 1.0, 2.5, 4.0]:
            for eps in [-0.7, 1e-6, 0.25, 1.5]:
                if z + 1 + eps <= 0:
                    continue
                lhs = math.exp(kernels.log_gamma_ratio(z, eps)) * kernels.gamma(z + 1.0)
                assert rel(lhs, kernels.gamma(z + 1.0 + eps)) <= 1e-12


class TestDigamma:
    def test_euler_mascheroni(self):
        assert rel(kernels.digamma(1.0), -EULER_GAMMA) <= 1e-13

    def test_half(self):
        assert rel(kernels.digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)) <= 1e-13

    def test_recurrence_identity(self):
        z = 2.7
        assert rel(kernels.digamma(z + 1.0) - kernels.digamma(z), 1.0 / z) <= 1e-13

    def test_against_oracle(self):
        for z in [0.1, 0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 7.3, 10.0]:
            assert rel(kernels.digamma(z), oracle_digamma(z)) <= 1e-13, z

    def test_finite_difference_of_loggamma(self):
        h = 1e-5
        for z in [0.5, 1.0, 2.5, 5.0]:
            fd = float((oracle_loggamma(z + h) - oracle_loggamma(z - h)) / (2 * h))
            assert abs(kernels.digamma(z) - fd) <= 1e-8


def single(two_nu, x):
    """J_nu(x) as an element of a pair: the first element of bessel_j(2nu, x),
    or for 2nu = -3 and -2 the second element of bessel_j(2nu + 2, x)."""
    if two_nu < -1:
        return kernels.bessel_j(two_nu + 2, x)[1]
    return kernels.bessel_j(two_nu, x)[0]


def _grid():
    # 1e-6..1e5 at five points a decade, dense in [5, 8] and across the
    # switch at x = 28
    xs = {10.0 ** (e / 5) for e in range(-30, 26)}
    xs |= {5.0 + i / 10 for i in range(31)} | {27.0 + i / 10 for i in range(21)}
    xs |= {7.0, math.nextafter(7.0, 8.0), math.nextafter(28.0, 0.0), 28.0}
    return sorted(xs)


class TestBesselJ:
    def test_half_order_closed_form(self):
        x = 2.0
        assert rel(single(1, x), math.sqrt(2.0 / (math.pi * x)) * math.sin(x)) <= 1e-14

    def test_j0_at_origin_limit(self):
        assert abs(single(0, 1e-12) - 1.0) <= 1e-12

    def test_j1_against_series_oracle(self):
        assert rel(single(2, 7.3), oracle_bessel_j(1.0, 7.3)) <= 1e-12

    @pytest.mark.parametrize("two_nu", [-3, -2, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize(
        "x", [0.1, 0.5, 2.0, 5.0, 6.5, 10.0, 20.0, 27.5, 30.0, 50.0, 300.0, 1e5]
    )
    def test_all_regimes_against_oracle(self, two_nu, x):
        nu = two_nu / 2.0
        got = single(two_nu, x)
        ref = oracle_bessel_j(nu, x)
        envelope = math.sqrt(2.0 / (math.pi * x))
        if abs(ref) > 0.01 * max(envelope, 1e-280):
            assert rel(got, ref) <= 1e-12, (nu, x)
        else:
            # near a zero: absolute accuracy at the 1e-14 scale
            assert abs(got - float(ref)) <= 1e-14 * max(1.0, envelope), (nu, x)

    @pytest.mark.parametrize("two_nu", range(-3, 22))
    def test_every_accepted_order_against_mpmath(self, two_nu):
        # every regime and both sides of each switch: backward recurrence
        # (x < 28 for integer orders, x < max(1, nu) for half-integer ones
        # from nu = 3/2), large-argument expansion (x >= 28), closed forms
        # and upward recurrence (the other half-integer cases)
        nu = two_nu / 2.0
        xs = [0.1, 1.0, 3.3, 6.99, 7.0, 7.01, 9.7, 10.6, 14.2, 21.0, 27.99, 28.0, 28.01]
        xs += [31.4, 37.7, 45.0, 66.0, 100.0, 170.0, 1e3, 1e5]
        for x in xs:
            got = single(two_nu, x)
            ref = float(oracle_bessel_j(nu, x))
            envelope = math.sqrt(2.0 / (math.pi * x))
            if abs(ref) > 0.01 * envelope:
                assert rel(got, ref) <= 1e-12, (nu, x)
            else:
                assert abs(got - ref) <= 1e-14 * max(1.0, envelope), (nu, x)

    @pytest.mark.parametrize("two_nu", range(-1, 22))
    def test_both_elements_within_8_eps_of_the_envelope(self, two_nu):
        # the absolute error lambda_asymptotic budgets for J: 8 eps times
        # sqrt(2/(pi x)), or times |J| where J_{-3/2} exceeds that (x < 1)
        for x in _grid():
            scale = math.sqrt(2.0 / (math.pi * x))
            got = kernels.bessel_j(two_nu, x)
            for value, nu in zip(got, (0.5 * two_nu, 0.5 * two_nu - 1.0)):
                ref = float(oracle_bessel_j(nu, x))
                bound = 8.0 * sys.float_info.epsilon * max(scale, abs(ref))
                assert abs(value - ref) <= bound, (nu, x, value, ref)

    @pytest.mark.parametrize("nu", [11.0, 11.5, 20.0, 32.0])
    def test_orders_beyond_the_verified_range_rejected(self, nu):
        # the large-argument expansion gave J_20(30) = 0.698 (true 4.83e-3);
        # lambda_asymptotic asks for J at nu = d/2 - 1 and d/2 - 2, so the
        # d <= 10 of KernelParams is what keeps such orders out
        with pytest.raises(ValueError, match=r"d must be in \[1, 10\]"):
            KernelParams(round(2 * nu) + 2, 1.0, 1.0)

    @pytest.mark.parametrize("two_nu", [1, 2, 3, 4, 5, 6, 7, 8])
    @pytest.mark.parametrize("x", [0.5, 3.0, 10.0, 50.0])
    def test_three_term_recurrence_residual(self, two_nu, x):
        nu = two_nu / 2.0
        jc, jm = kernels.bessel_j(two_nu, x)
        jp = single(two_nu + 2, x)
        resid = abs(jm + jp - (2.0 * nu / x) * jc)
        assert resid <= 1e-12 * max(abs(jm), abs(jc), abs(jp))

    @pytest.mark.parametrize("d", range(1, 11))
    @pytest.mark.parametrize(
        "x", [6.0, 7.0, math.nextafter(7.0, 8.0), 27.99, 28.0, 45.0, 1e3, 1e5]
    )
    def test_pair_has_the_bits_of_two_single_orders(self, d, x):
        # lambda_asymptotic takes J at 2nu = d-2 and d-4 from one kernel
        # call. At x >= 6 each neighbouring pair uses the same regime, so
        # J_{nu-1} has the bits of the first element of bessel_j(2nu - 2),
        # and J_nu those of the second element of bessel_j(2nu + 2); below
        # 2nu = -1 there is no neighbour to compare with.
        j, j_lo = kernels.bessel_j(d - 2, x)
        assert j.hex() == kernels.bessel_j(d, x)[1].hex()
        if d >= 3:
            assert j_lo.hex() == kernels.bessel_j(d - 4, x)[0].hex()

    def test_negative_integer_reflection(self):
        for x in (3.7, 30.0):
            assert kernels.bessel_j(0, x)[1] == -kernels.bessel_j(2, x)[0]

import cmath
import math
import random
from fractions import Fraction

import pytest
from mpmath import mp

from nlspectra import NonConvergenceError
from nlspectra.drummond import (
    HypTerm2F0,
    LommelOrder,
    drummond_2f0,
    drummond_2f0_at_order,
    lommel_s,
)
from nlspectra.oracle import (
    DrummondState,
    drummond_2f0_approximants,
    drummond_generic,
    oracle_denominator_poly,
    oracle_drummond_bigfloat,
    oracle_drummond_reference,
    oracle_lommel,
)


def rel(got, ref):
    ref = complex(ref)
    if ref == 0:
        return abs(complex(got) - ref)
    return abs((complex(got) - ref) / ref)


class TestHypTerm:
    def test_termination_index(self):
        assert HypTerm2F0(-3.0, 1.0, 2.0).termination_index() == 3
        assert HypTerm2F0(1.0, 0.0, 2.0).termination_index() == 0
        assert HypTerm2F0(1.0, 2.0, 2.0).termination_index() is None


class TestDrummondGeneric:
    def test_terminating_series_exact(self):
        # a_2 = 0 marks the series end; the transformation returns its sum
        assert drummond_generic([1.0, 0.5, 0.0], 0, 1) == 1.5

    def test_geometric_remainder_annihilated(self):
        # s_n = 1 - 2^-n has (s - s_n)/Delta s_n constant, so k = 1 is exact
        terms = [0.0] + [2.0**-k for k in range(1, 8)]
        assert rel(drummond_generic(terms, 0, 1), 1.0) <= 1e-14

    def test_matches_recurrence_at_order_five(self):
        term = HypTerm2F0(1.0, 1.0, 8.0)
        got = drummond_generic(term.terms(8), 0, 5)
        other = drummond_2f0_at_order(term, 0, 5)
        assert rel(got, other) <= 1e-9

    def test_needs_enough_terms(self):
        with pytest.raises(ValueError):
            drummond_generic([1.0, 0.5], 0, 1)


class TestDrummond2F0:
    def test_terminating_trivial(self):
        res = drummond_2f0(HypTerm2F0(-1.0, 1.0, 2.0))
        assert res.value == 1.5
        assert res.converged
        assert res.order <= 2

    def test_figure_point_z8(self):
        res = drummond_2f0(HypTerm2F0(1.0, 1.0, 8.0))
        assert res.converged
        ref = oracle_drummond_bigfloat(HypTerm2F0(1.0, 1.0, 8.0), 0, 400)
        assert rel(res.value, float(ref)) <= 1e-12

    def test_huge_z_two_terms(self):
        res = drummond_2f0(HypTerm2F0(1.0, 1.0, 1e8))
        assert res.converged
        ref = oracle_drummond_bigfloat(HypTerm2F0(1.0, 1.0, 1e8), 0, 50)
        assert rel(res.value, float(ref)) <= 1e-13
        assert rel(res.value, 1.0 - 1e-8 + 4e-16) <= 1e-12

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("beta", [0.5, 1.0, 2.5])
    @pytest.mark.parametrize("z", [4.0, 8.0, 20.0])
    @pytest.mark.parametrize("n", [0, 1])
    def test_recurrence_matches_finite_difference_form(self, alpha, beta, z, n):
        term = HypTerm2F0(alpha, beta, z)
        terms = term.terms(n + 17)
        for k in range(1, 16):
            got = drummond_2f0_at_order(term, n, k)
            ref = drummond_generic(terms, n, k)
            assert rel(got, ref) <= 1e-9, (alpha, beta, z, n, k)

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(1), Fraction(3)])
    @pytest.mark.parametrize("z", [1.0, 8.0])
    def test_terminating_exactness(self, m, beta, z):
        res = drummond_2f0(HypTerm2F0(float(-m), float(beta), z))
        a = Fraction(1)
        exact = Fraction(1)
        for j in range(m):
            a = a * (Fraction(-m) + j) * (beta + j) / Fraction(int(-z))
            exact += a
        assert rel(res.value, float(exact)) <= 1e-14
        assert res.converged
        assert res.order <= m + 2

    @pytest.mark.parametrize("theta", [0.1, 1.0])
    def test_complex_z(self, theta):
        z = 8.0 * cmath.exp(1j * theta)
        res = drummond_2f0(HypTerm2F0(1.0, 1.0, z))
        assert res.converged
        assert cmath.isfinite(res.value)
        ref = oracle_drummond_bigfloat(HypTerm2F0(1.0, 1.0, z), 0, 200)
        assert rel(res.value, complex(ref)) <= 1e-12

    def test_alpha_beta_swap_symmetry(self):
        a = drummond_2f0(HypTerm2F0(0.7, 2.3, 9.0)).value
        b = drummond_2f0(HypTerm2F0(2.3, 0.7, 9.0)).value
        assert rel(a, b) <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            drummond_2f0(HypTerm2F0(1.0, 1.0, 0.0))
        with pytest.raises(ValueError):
            drummond_2f0(HypTerm2F0(1.0, 1.0, 8.0), tol=1e-17)
        with pytest.raises(ValueError):
            drummond_2f0(HypTerm2F0(1.0, 1.0, 8.0), k_max=1)

    def test_nonconvergence_flagged_not_raised(self):
        res = drummond_2f0(HypTerm2F0(1.0, 1.0, 0.01), k_max=40)
        assert not res.converged
        assert res.est_rel_err > 0


class TestDrummond2F0AtOrder:
    @pytest.mark.parametrize("m", [1, 2, 3])
    @pytest.mark.parametrize("beta", [1.0, 2.5])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_terminating_parameters_match_oracle(self, m, beta, n):
        # once n + order >= m a weight a_{n+1}..a_{n+order+1} vanishes and the
        # value is the terminal partial sum; below that it is an approximant
        for z in [5.0, 8.0, complex(-4.0, 3.0)]:
            term = HypTerm2F0(float(-m), beta, z)
            for order in range(m + 2):
                got = drummond_2f0_at_order(term, n, order)
                ref = oracle_drummond_bigfloat(term, n, order)
                assert rel(got, complex(ref)) <= 1e-14, (m, beta, n, z, order)

    @pytest.mark.parametrize("n", [0, 1])
    def test_terminating_first_order(self, n):
        assert drummond_2f0_at_order(HypTerm2F0(-1.0, 1.0, 2.0), n, 1) == 1.5

    def test_genuine_pole_is_nan(self):
        # alpha = -2, beta = 1, z = 2 zeroes D_0^(1); nothing terminates below it
        term = HypTerm2F0(-2.0, 1.0, 2.0)
        assert math.isnan(drummond_2f0_at_order(term, 0, 1))
        with pytest.raises(ZeroDivisionError):
            oracle_drummond_bigfloat(term, 0, 1)

    def test_converged_order_reproduces_value_bitwise(self):
        # both entry points run one recurrence: stopping at order K and
        # evaluating at fixed order K must give the same bits
        rng = random.Random(20261017)
        checked = 0
        for i in range(600):
            if i % 2:
                alpha = complex(rng.uniform(0.05, 5.0), rng.uniform(-2.0, 2.0))
                beta = complex(rng.uniform(0.05, 5.0), rng.uniform(-2.0, 2.0))
                z = cmath.rect(rng.uniform(3.0, 60.0), rng.uniform(-2.5, 2.5))
            else:
                alpha = rng.uniform(0.05, 5.0)
                beta = rng.uniform(0.05, 5.0)
                z = rng.uniform(2.0, 60.0)
            term = HypTerm2F0(alpha, beta, z)
            n = i % 3
            res = drummond_2f0(term, n)
            if not res.converged:
                continue
            got = drummond_2f0_at_order(term, n, res.order)
            assert type(got) is type(res.value)
            assert got == res.value, (alpha, beta, z, n, res.order)
            checked += 1
        assert checked >= 400


class TestDrummondState:
    def test_initial_conditions(self):
        term = HypTerm2F0(0.5, 1.5, 6.0)
        n = 1
        state = DrummondState.start(term, n)
        a = term.terms(n + 2)
        s_n = sum(a[: n + 1])
        assert state.D_prev == 1.0 / a[n + 1]
        assert rel(state.N_prev, s_n / a[n + 1]) <= 1e-15
        assert state.T_prev == s_n
        # N^(1) = s_n D^(1) + a_{n+1}/a_{n+2}
        a_full = term.terms(n + 3)
        assert rel(state.N_cur, s_n * state.D_cur + a_full[n + 1] / a_full[n + 2]) <= 1e-15

    def test_approximants_match_fixed_order(self):
        term = HypTerm2F0(1.0, 2.0, 10.0)
        for k, t in drummond_2f0_approximants(term, 0, 12):
            assert rel(t, drummond_2f0_at_order(term, 0, k)) <= 1e-12

    def test_denominators_nonzero_for_positive_parameters(self):
        # positive alpha, beta, z keep the denominator polynomials one-signed
        for z in [4.0, 8.0]:
            term = HypTerm2F0(0.5, 3.0, z)
            state = DrummondState.start(term, 0)
            for _ in range(12):
                assert state.D_cur != 0
                state.advance(term)


class TestDenominatorSignProperty:
    def test_monomial_k0(self):
        coeffs = oracle_denominator_poly(Fraction(1), Fraction(2), 0, 0)
        assert coeffs == [Fraction(0), Fraction(-1, 2)]

    def test_hand_expansion_k1(self):
        coeffs = oracle_denominator_poly(Fraction(1), Fraction(1), 0, 1)
        assert coeffs == [Fraction(0), Fraction(1), Fraction(1, 4)]

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), Fraction(1), Fraction(3)])
    @pytest.mark.parametrize("beta", [Fraction(1, 2), Fraction(1), Fraction(3)])
    def test_one_signed_up_to_nk_12(self, alpha, beta):
        for n in range(3):
            for k in range(13 - n):
                coeffs = oracle_denominator_poly(alpha, beta, n, k)
                signs = {c > 0 for c in coeffs if c != 0}
                assert len(signs) == 1, (alpha, beta, n, k)


class TestLommel:
    def test_terminating_power(self):
        # mu = nu + 1 terminates at the first term: S = x^nu
        assert rel(lommel_s(LommelOrder(1.5, 0.5), 4.0), 2.0) <= 1e-14

    def test_against_oracle_resummation(self):
        got = lommel_s(LommelOrder(-0.5, 0.5), 10.0)
        assert rel(got, float(oracle_lommel(-0.5, 0.5, 10.0))) <= 1e-12

    def test_confluent_parameter_case(self):
        # induced expansion parameters are alpha' = beta' = 1 here
        got = lommel_s(LommelOrder(-1.0, 0.0), 8.0)
        assert rel(got, float(oracle_lommel(-1.0, 0.0, 8.0))) <= 1e-12

    def test_nonconvergence_propagates(self):
        with pytest.raises(NonConvergenceError) as err:
            lommel_s(LommelOrder(-0.5, 0.5), 0.5)
        assert err.value.result is not None

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lommel_s(LommelOrder(-0.5, 0.5), -1.0)


class TestNonFiniteArgument:
    """z = inf or nan has no resummation; every entry point says so."""

    @pytest.mark.parametrize("z", [math.inf, math.nan, complex(math.inf, 1.0)])
    def test_drummond_entry_points(self, z):
        term = HypTerm2F0(1.0, 1.0, z)
        with pytest.raises(ValueError, match="z must be finite"):
            drummond_2f0(term)
        with pytest.raises(ValueError, match="z must be finite"):
            drummond_2f0_at_order(term, 0, 10)

    @pytest.mark.parametrize("x", [1e200, math.inf, math.nan])
    def test_lommel_s(self, x):
        # z = x^2 / 4
        with pytest.raises(ValueError, match="z must be finite"):
            lommel_s(LommelOrder(-1.5, -0.5), x)


class TestReferenceAntilimit:
    def test_self_consistency_met_by_escalation(self):
        term = HypTerm2F0(1.0, 1.0, 8.0)
        ref = oracle_drummond_reference(term, consistency=1e-30)
        with mp.workprec(256):
            # the order-400 value itself is converged to ~2e-27; the
            # escalated reference agrees with it at that level
            t400 = oracle_drummond_bigfloat(term, 0, 400)
            assert abs((ref - t400) / ref) < 1e-26

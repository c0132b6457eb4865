import cmath
import math
import random
import sys
import threading
from fractions import Fraction

import pytest
from mpmath import mp

from nlspectra import NonConvergenceError, _purepy
from nlspectra.drummond import (
    DEFAULT_KMAX,
    DEFAULT_TOL,
    HypTerm2F0,
    drummond_2f0,
    drummond_2f0_at_order,
    lommel_s,
)
from nlspectra.oracle import (
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


class TestTerminatingCap:
    """A terminating series sums at most k_max terms; a cut-off or
    overflowing sum is returned with converged=False and est_rel_err=inf."""

    def test_partial_sum_past_the_cap(self):
        res = drummond_2f0(HypTerm2F0(-2000.0, 1.0, 2.0), k_max=50)
        assert (res.order, res.converged, res.est_rel_err) == (50, False, math.inf)
        a = Fraction(1)
        exact = Fraction(1)
        for j in range(49):
            a = a * (-2000 + j) * (1 + j) / -2
            exact += a
        assert rel(res.value, float(exact)) <= 1e-13

    @pytest.mark.parametrize("alpha", [-1e6, -1e300])
    def test_huge_terminating_parameter_returns_at_the_cap(self, alpha):
        res = drummond_2f0(HypTerm2F0(alpha, 1.0, 2.0))
        assert (res.order, res.converged, res.est_rel_err) == (DEFAULT_KMAX, False, math.inf)

    def test_not_handed_to_the_capped_recurrence(self):
        # the recurrence stopped at k_max = 500 "converges" to -0.042 at
        # order 444 here, while the exact sum overflows
        res = drummond_2f0(HypTerm2F0(-600.0, 1.0, 2.0))
        assert (res.order, res.converged, res.est_rel_err) == (500, False, math.inf)

    def test_overflowing_sum_not_converged(self):
        res = drummond_2f0(HypTerm2F0(-600.0, 1.0, 2.0), k_max=1000)
        assert (res.order, res.converged, res.est_rel_err) == (601, False, math.inf)
        assert not math.isfinite(res.value)

    def test_sum_within_the_cap_unchanged(self):
        res = drummond_2f0(HypTerm2F0(-3.0, 1.0, 2.0), k_max=4)
        assert (res.value, res.order, res.converged, res.est_rel_err) == (10.0, 4, True, 0.0)


@pytest.fixture
def cold_tables():
    """Start and end the test with no coefficient table kept."""
    _purepy._coefficient_table.cache_clear()
    yield _purepy._coefficient_table
    _purepy._coefficient_table.cache_clear()


def _fixed(case, z, order):
    alpha, beta, n = case[:3]
    return _purepy.drummond_2f0_fixed(alpha, beta, z, n, order)


def _early(case, z, order, tol=DEFAULT_TOL):
    alpha, beta, n = case[:3]
    return _purepy.drummond_2f0(alpha, beta, z, n, tol, order)


def _twin(case):
    """The same values with the other parameter type (float <-> complex)."""
    alpha, beta, n, z, order = case
    if isinstance(alpha, complex):
        return (alpha.real, beta.real, n, abs(z), order)
    return (complex(alpha), complex(beta), n, complex(z), order)


class TestCoefficientTables:
    """The recurrence reads its order-only coefficients from tables shared
    by every call on the same (alpha, beta, n); no table state may change a
    bit of any result."""

    # (alpha, beta, n, z, order)
    CASES = [
        (1.0, 1.0, 0, 8.0, 40),
        (0.5, -0.25, 1, 20.0, 25),
        (2.5, 0.5, 3, 4.0, 60),
        (1.0, -0.45, 0, 12.0, 111),
        (complex(1.0), complex(1.0), 0, complex(-3.2, 4.1), 1000),
        (complex(0.7, 0.4), complex(1.5, -0.3), 1, complex(6.0, 2.0), 50),
    ]

    @staticmethod
    def outcome(case):
        z, order = case[3], case[4]
        return repr((_fixed(case, z, order), _early(case, z, order)))

    def warmers(self, case):
        z, order = case[3], case[4]
        yield lambda: _fixed(case, z + 1.5, order + 50)  # higher orders
        yield lambda: _fixed(case, 2 * z, order // 3)  # lower orders
        yield lambda: [_early(case, w, order, 1e-8) for w in (z, 3 * z, z + 7)]
        twin = _twin(case)
        yield lambda: (_fixed(twin, twin[3], order + 5), _early(twin, twin[3], order))

    @pytest.mark.parametrize("case", CASES)
    def test_cold_and_warm_tables_give_the_same_bits(self, case, cold_tables):
        cold = self.outcome(case)
        for warm in self.warmers(case):
            cold_tables.cache_clear()
            warm()
            assert self.outcome(case) == cold, case
        # and with every warmer's rows in place at once
        for warm in self.warmers(case):
            warm()
        assert self.outcome(case) == cold, case

    def test_first_call_builds_only_the_orders_it_uses(self, cold_tables):
        _value, order, converged, _est = _purepy.drummond_2f0(1.0, 1.0, 8.0, 0, DEFAULT_TOL, 500)
        assert converged
        assert cold_tables.cache_info().currsize == 1
        table = cold_tables(1.0, 1.0, 0)
        assert len(table) == order - 1
        _purepy.drummond_2f0_fixed(1.0, 1.0, 9.0, 0, order + 10)
        assert [row[0] for row in table] == list(range(1, order + 10))

    def test_threads_sharing_a_table_give_the_serial_bits(self, cold_tables):
        # four threads build one table from cold at once, 40 times over
        case = (1.0, 0.25, 0)
        zs = [3.0, 4.5, 9.0, 30.0]

        def work(i):
            return repr((_fixed(case, zs[i], 120), _early(case, zs[i], 500)))

        serial = [work(i) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, inside table builds too
        try:
            for _ in range(40):
                cold_tables.cache_clear()
                results = [None] * 4
                barrier = threading.Barrier(4)

                def run(i):
                    barrier.wait()
                    results[i] = work(i)

                threads = [
                    threading.Thread(target=run, args=(i,), daemon=True) for i in range(4)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10.0)
                    assert not t.is_alive()
                assert results == serial
                # one row per order, none repeated or skipped
                assert cold_tables.cache_info().currsize == 1
                table = cold_tables(*case)
                assert [row[0] for row in table] == list(range(1, len(table) + 1))
        finally:
            sys.setswitchinterval(interval)

    def test_number_of_tables_is_bounded(self, cold_tables):
        for i in range(_purepy._TABLES_KEPT + 5):
            _purepy.drummond_2f0(1.0 + i / 7, 0.5, 8.0, 0, DEFAULT_TOL, 500)
        assert cold_tables.cache_info().currsize == _purepy._TABLES_KEPT

    def test_least_recently_used_table_goes_first(self, cold_tables):
        # the first table, used again after 7 newer ones, outlives the
        # second when a ninth arrives
        def resum(i):
            _purepy.drummond_2f0(1.0 + i / 7, 0.5, 8.0, 0, DEFAULT_TOL, 500)

        resum(0)
        first = cold_tables(1.0, 0.5, 0)
        resum(1)
        second = cold_tables(1.0 + 1 / 7, 0.5, 0)
        assert first and second
        for i in range(2, _purepy._TABLES_KEPT):
            resum(i)
        resum(0)
        resum(_purepy._TABLES_KEPT)
        assert cold_tables.cache_info().currsize == _purepy._TABLES_KEPT
        assert cold_tables(1.0, 0.5, 0) is first
        assert cold_tables(1.0 + 1 / 7, 0.5, 0) is not second


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


class TestApproximantsByOrder:
    def test_match_the_bigfloat_oracle_per_order(self):
        # orders 0 and 1 are the recurrence's start-up, n = 1 its offset form
        terms = [
            HypTerm2F0(1.0, 2.0, 10.0),
            HypTerm2F0(0.5, 1.5, 6.0),
            HypTerm2F0(complex(0.7, 0.4), complex(1.5, -0.3), complex(6.0, 2.0)),
        ]
        for term in terms:
            for n in (0, 1):
                for k in range(13):
                    got = drummond_2f0_at_order(term, n, k)
                    ref = oracle_drummond_bigfloat(term, n, k)
                    assert rel(got, complex(ref)) <= 1e-14, (term, n, k)

    def test_finite_for_positive_parameters(self):
        # positive alpha, beta, z keep the denominator polynomials one-signed
        for z in [4.0, 8.0]:
            term = HypTerm2F0(0.5, 3.0, z)
            for n in (0, 1):
                for k in range(13):
                    assert math.isfinite(drummond_2f0_at_order(term, n, k)), (z, n, k)


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
        assert rel(lommel_s(1.5, 0.5, 4.0), 2.0) <= 1e-14

    def test_against_oracle_resummation(self):
        got = lommel_s(-0.5, 0.5, 10.0)
        assert rel(got, float(oracle_lommel(-0.5, 0.5, 10.0))) <= 1e-12

    def test_confluent_parameter_case(self):
        # induced expansion parameters are alpha' = beta' = 1 here
        got = lommel_s(-1.0, 0.0, 8.0)
        assert rel(got, float(oracle_lommel(-1.0, 0.0, 8.0))) <= 1e-12

    def test_nonconvergence_propagates(self):
        with pytest.raises(NonConvergenceError) as err:
            lommel_s(-0.5, 0.5, 0.5)
        assert err.value.result is not None

    def test_domain_error(self):
        with pytest.raises(ValueError):
            lommel_s(-0.5, 0.5, -1.0)


class TestNonFiniteArgument:
    """A non-finite z, alpha or beta has no resummation; every entry point says so."""

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
            lommel_s(-1.5, -0.5, x)

    @pytest.mark.parametrize("p", [math.inf, -math.inf, math.nan])
    def test_non_finite_parameters(self, p):
        for term in (HypTerm2F0(p, 1.0, 2.0), HypTerm2F0(1.0, p, 2.0)):
            with pytest.raises(ValueError, match="alpha and beta must be finite"):
                drummond_2f0(term)
            with pytest.raises(ValueError, match="alpha and beta must be finite"):
                drummond_2f0_at_order(term, 0, 10)

    @pytest.mark.parametrize("mu", [math.inf, -math.inf, math.nan])
    def test_lommel_s_non_finite_order(self, mu):
        with pytest.raises(ValueError, match="alpha and beta must be finite"):
            lommel_s(mu, 0.5, 10.0)


class TestReferenceAntilimit:
    def test_self_consistency_met_by_escalation(self):
        term = HypTerm2F0(1.0, 1.0, 8.0)
        ref = oracle_drummond_reference(term, consistency=1e-30)
        with mp.workprec(256):
            # the order-400 value itself is converged to ~2e-27; the
            # escalated reference agrees with it at that level
            t400 = oracle_drummond_bigfloat(term, 0, 400)
            assert abs((ref - t400) / ref) < 1e-26

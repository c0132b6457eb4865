import cmath
import math
import random
import re
import sys
import threading
from decimal import Decimal
from fractions import Fraction

import pytest

from nlspectra import KernelParams, NonConvergenceError, _purepy, lambda_asymptotic
from nlspectra.drummond import (
    DEFAULT_KMAX,
    DEFAULT_TOL,
    ORDER_LIMIT,
    HypTerm2F0,
    drummond_2f0,
    drummond_2f0_at_order,
    lommel_s,
)
from nlspectra.oracle import (
    drummond_generic,
    oracle_denominator_poly,
    oracle_drummond_bigfloat,
    oracle_lommel,
)


def _float64(x):
    np = pytest.importorskip("numpy")
    return np.float64(x)


#: Each numeric type an entry converts with float(), besides float itself.
NUMBER_TYPES = [Decimal, Fraction, int, _float64]
NUMBER_TYPE_IDS = ["Decimal", "Fraction", "int", "float64"]


def rel(got, ref):
    ref = complex(ref)
    if ref == 0:
        return abs(complex(got) - ref)
    return abs((complex(got) - ref) / ref)


class TestHypTerm2F0:
    def test_terms_count(self):
        term = HypTerm2F0(1.0, 2.0, 4.0)
        assert term.terms(0) == []
        assert term.terms(1) == [1.0]
        assert term.terms(3) == [1.0, -0.5, 0.75]
        with pytest.raises(ValueError, match="count must be >= 0, got -1"):
            term.terms(-1)


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


class TestStabilityAgainstTheQuadraticForm:
    """The paper's claim: the four-term recurrence is more stable than the
    O(k^2) finite-difference form. In doubles, against the big-float
    oracle, the recurrence stays within STABLE_BOUND up to order 120; the
    finite-difference form takes k-th differences of 1/a_j, which lose
    about a bit an order, and is off by at least 1e-6 (or NaN) by order 120
    on three of the four cases (on the first its error has grown from 2e-16
    at order 40 to 5.5e-8 at 120)."""

    STABLE_BOUND = 3e-13
    ORDERS = (40, 80, 120)
    # (alpha, beta, z, whether the finite-difference form breaks down)
    CASES = [
        (1.0, -0.5, 64.0, False),  # z at k*delta = 16
        (1.95, 1.95, 100.0, True),  # z at k*delta = 20
        (1.0, 1.0, complex(-3.0, 4.0), True),  # the phase workload's window
        (1.0, 1.0, 8.0, True),
    ]

    @pytest.mark.parametrize("alpha, beta, z, breaks", CASES)
    def test_recurrence_stable_where_the_quadratic_form_is_not(self, alpha, beta, z, breaks):
        term = HypTerm2F0(alpha, beta, z)
        terms = term.terms(max(self.ORDERS) + 2)
        worst_generic = 0.0
        for order in self.ORDERS:
            ref = oracle_drummond_bigfloat(term, 0, order)
            assert rel(drummond_2f0_at_order(term, 0, order), ref) <= self.STABLE_BOUND
            err = rel(drummond_generic(terms, 0, order), ref)
            worst_generic = max(worst_generic, err) if err == err else math.inf
        assert (worst_generic >= 1e-6) == breaks, worst_generic

    #: To order 320 the recurrence stayed within 1.2e-12 of the oracle on
    #: these cases (the last near a terminating beta); the finite-difference
    #: form was NaN at orders 160 and 320 on all three.
    HIGH_BOUND = 1e-11
    HIGH_CASES = [(1.0, 1.0, 8.0), (0.3, 1.7, 30.0), (2.5, -0.5 + 1e-9, 3.0)]

    @pytest.mark.parametrize("alpha, beta, z", HIGH_CASES)
    def test_recurrence_stable_to_order_320(self, alpha, beta, z):
        term = HypTerm2F0(alpha, beta, z)
        terms = term.terms(320 + 2)
        for order in (40, 80, 160, 320):
            ref = oracle_drummond_bigfloat(term, 0, order)
            assert rel(drummond_2f0_at_order(term, 0, order), ref) <= self.HIGH_BOUND, order
            if order >= 160:
                err = rel(drummond_generic(terms, 0, order), ref)
                assert not err <= 1e-6, (order, err)  # far off, or NaN


class _CountingRows:
    """The rows of a coefficient table, counting those read."""

    def __init__(self, rows):
        self.rows = rows
        self.read = 0

    def __iter__(self):
        for row in self.rows:
            self.read += 1
            yield row


def test_recurrence_reads_one_row_per_order(monkeypatch):
    # the paper's claim of linear complexity, as a count: T_0^(k) reads
    # k - 1 coefficient rows, one multiply-add per term of N and D each,
    # where the oracle's drummond_generic takes k(k+1)/2 difference steps
    # (51,360 at k = 320 against 319 rows)
    table = _purepy._coefficient_table
    tables = []

    def counting(*key):
        rows, p_bound, q_bound = table(*key)
        tables.append(_CountingRows(rows))
        return tables[-1], p_bound, q_bound

    term = HypTerm2F0(1.0, 1.0, 8.0)
    for order in (40, 80, 160, 320):
        expected = drummond_2f0_at_order(term, 0, order)
        monkeypatch.setattr(_purepy, "_coefficient_table", counting)
        tables.clear()
        assert drummond_2f0_at_order(term, 0, order) == expected
        monkeypatch.undo()
        assert [rows.read for rows in tables] == [order - 1], order


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

    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("name", ["n", "k_max", "order"])
    def test_integer_arguments_rejected_by_name(self, name, value):
        term = HypTerm2F0(1.0, 1.0, 8.0)
        calls = {
            "n": lambda: drummond_2f0(term, n=value),
            "k_max": lambda: drummond_2f0(term, k_max=value),
            "order": lambda: drummond_2f0_at_order(term, 0, value),
        }
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            calls[name]()

    @pytest.mark.parametrize(
        "term, cause",
        [
            (
                HypTerm2F0(complex(-1, 1e-200), complex(-1, 1e-200), 2.0),
                "alpha=(-1+1e-200j) and beta=(-1+1e-200j) within 1e-150 of a nonpositive integer",
            ),
            (HypTerm2F0(1e-200, 1e-160, 2.0), "alpha=1e-200 and beta=1e-160 within 1e-150"),
            (HypTerm2F0(1e-10, 1e-10, 1e308), "z=1e+308"),
            # a subnormal a_(n+1), so 1/a_(n+1) is inf
            (HypTerm2F0(1e-310, 0.5, 2.0), "alpha=1e-310 within 1e-150"),
            (HypTerm2F0(1e-200, 1e-120, 2.0), "alpha=1e-200 within 1e-150"),
            # 1/a_(n+1) is finite, the first denominator overflows
            (HypTerm2F0(0.5, 0.5, 1e200), "z=1e+200"),
        ],
    )
    def test_underflow_to_a_zero_divisor_is_a_value_error(self, term, cause):
        # a_(n+1) or (alpha+n+k+1)(beta+n+k+1) underflows to 0 though the
        # series does not terminate; this used to be a bare ZeroDivisionError
        for call in (lambda: drummond_2f0(term), lambda: drummond_2f0_at_order(term, 0, 5)):
            with pytest.raises(ValueError, match="underflows to 0") as info:
                call()
            assert cause in str(info.value)

    @pytest.mark.parametrize(
        "name, call",
        [
            ("k_max", lambda term: drummond_2f0(term, k_max=ORDER_LIMIT + 1)),
            ("order", lambda term: drummond_2f0_at_order(term, 0, ORDER_LIMIT + 1)),
        ],
    )
    def test_orders_beyond_the_limit_rejected(self, name, call):
        message = rf"{name} must be in \[\d, {ORDER_LIMIT}\], got {ORDER_LIMIT + 1}"
        with pytest.raises(ValueError, match=message):
            call(HypTerm2F0(1.0, 1.0, 8.0))

    @pytest.mark.parametrize("n", [ORDER_LIMIT + 1, 10**400])
    def test_start_index_beyond_the_limit_rejected(self, n):
        # the prelude forms s_n in n steps, so an unbounded n never returns
        term = HypTerm2F0(1.0, 1.0, 8.0)
        message = rf"n must be in \[0, {ORDER_LIMIT}\], got {n}"
        for call in (lambda: drummond_2f0(term, n=n), lambda: drummond_2f0_at_order(term, n, 3)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_start_index_at_the_limit_accepted(self):
        # the prelude runs all its steps; the terms (k!)^2 / 8^k overflow
        # long before, so the approximants are NaN
        term = HypTerm2F0(1.0, 1.0, 8.0)
        res = drummond_2f0(term, n=ORDER_LIMIT, k_max=2)
        assert math.isnan(res.value) and not res.converged
        assert math.isnan(drummond_2f0_at_order(term, ORDER_LIMIT, 3))

    @pytest.mark.parametrize("value", ["1", None, Decimal("sNaN")])
    @pytest.mark.parametrize("name", ["alpha", "beta", "z"])
    def test_parameters_that_are_not_numbers_rejected_by_name(self, name, value):
        # complex() would parse the string as 1, and raise a bare ValueError
        # on a signaling NaN
        term = HypTerm2F0(**{"alpha": 1.0, "beta": 1.0, "z": 2.0, name: value})
        message = re.escape(f"{name} must be a number, got {value!r}")
        for call in (lambda: drummond_2f0(term), lambda: drummond_2f0_at_order(term, 0, 3)):
            with pytest.raises(ValueError, match=message):
                call()

    @pytest.mark.parametrize("name", ["alpha", "beta", "z"])
    def test_parameters_beyond_the_double_range_rejected_by_name(self, name):
        # complex() would raise a bare OverflowError
        term = HypTerm2F0(**{"alpha": 1.0, "beta": 1.0, "z": 2.0, name: 10**400})
        message = f"{name} must lie within the double range, got {10**400}"
        for call in (lambda: drummond_2f0(term), lambda: drummond_2f0_at_order(term, 0, 3)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_nonconvergence_flagged_not_raised(self):
        res = drummond_2f0(HypTerm2F0(1.0, 1.0, 0.01), k_max=40)
        assert not res.converged
        assert res.est_rel_err > 0

    @pytest.mark.parametrize("kind", NUMBER_TYPES, ids=NUMBER_TYPE_IDS)
    @pytest.mark.parametrize("name", ["alpha", "beta", "z", "tol"])
    def test_numbers_give_the_bits_of_their_float_twin(self, name, kind):
        # an int value is integral, so its tol >= 1; the other values are not
        values = {"alpha": (0.75, 2), "beta": (1.5, 3), "z": (7.25, 8), "tol": (1e-10, 1)}
        x = values[name][kind is int]
        twin = dict(alpha=1.0, beta=1.0, z=8.0, tol=1e-12)
        given = dict(twin)
        twin[name], given[name] = float(x), kind(x)

        def result(tol, **params):
            term = HypTerm2F0(**params)
            return repr((drummond_2f0(term, tol=tol), drummond_2f0_at_order(term, 0, 12)))

        assert result(**given) == result(**twin)


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
        # 1 + 1.5 + 3 + 4.5: every term positive, so eps sum|a_j| / |s| = eps
        res = drummond_2f0(HypTerm2F0(-3.0, 1.0, 2.0), k_max=4)
        assert (res.value, res.order, res.converged, res.est_rel_err) == (
            10.0, 4, True, sys.float_info.epsilon
        )

    def test_estimate_sums_the_term_moduli_correctly_rounded(self):
        # 1 + 2/3 + 4/9: sum() rounds this to 2.1111111111111107 before
        # Python 3.12 and fsum() to 2.111111111111111 on every version
        term = HypTerm2F0(-2.0, 1.0, 3.0)
        moduli = list(map(abs, term.terms(3)))
        assert sum(moduli) != math.fsum(moduli) or sys.version_info >= (3, 12)
        res = drummond_2f0(term)
        assert res.converged and res.order == 3
        assert res.est_rel_err == sys.float_info.epsilon * math.fsum(moduli) / abs(res.value)

    def test_sum_of_zero_has_no_relative_estimate(self):
        # 1 + (-1): no relative error bound exists for a sum of 0
        res = drummond_2f0(HypTerm2F0(-1.0, 1.0, -1.0))
        assert (res.value, res.order, res.converged, res.est_rel_err) == (0.0, 2, True, math.inf)


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
    by every call on the same (alpha, beta, n, k_end); no table state may
    change a bit of any result."""

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

    def test_table_holds_orders_below_k_end_for_every_z(self, cold_tables):
        _value, _order, converged, _est = _purepy.drummond_2f0(1.0, 1.0, 8.0, 0, DEFAULT_TOL, 500)
        assert converged
        assert cold_tables.cache_info().currsize == 1
        entry = cold_tables(1.0, 1.0, 0, 500)
        assert isinstance(entry, tuple) and isinstance(entry[0], tuple)
        assert [row[0] for row in entry[0]] == list(range(1, 500))
        _purepy.drummond_2f0(1.0, 1.0, 9.0, 0, DEFAULT_TOL, 500)
        _purepy.drummond_2f0_fixed(1.0, 1.0, -2.5, 0, 500)
        assert cold_tables.cache_info().currsize == 1
        assert cold_tables(1.0, 1.0, 0, 500) is entry

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
                # one table per k_end, one row per order, none repeated or skipped
                assert cold_tables.cache_info().currsize == 2
                for k_end in (120, 500):
                    rows = cold_tables(*case, k_end)[0]
                    assert [row[0] for row in rows] == list(range(1, k_end))
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
        first = cold_tables(1.0, 0.5, 0, 500)
        resum(1)
        second = cold_tables(1.0 + 1 / 7, 0.5, 0, 500)
        assert first and second
        for i in range(2, _purepy._TABLES_KEPT):
            resum(i)
        resum(0)
        resum(_purepy._TABLES_KEPT)
        assert cold_tables.cache_info().currsize == _purepy._TABLES_KEPT
        assert cold_tables(1.0, 0.5, 0, 500) is first
        assert cold_tables(1.0 + 1 / 7, 0.5, 0, 500) is not second


class TestRescaleSchedule:
    """The rescale check runs once every few orders, as many as the growth
    bounds cached with the table allow; with no headroom it runs at every
    order. A power-of-two rescale commutes with the recurrence while
    nothing leaves the normal doubles, so no schedule may change a bit."""

    # (alpha, beta, n, z, order): N and D pass 2^512 and are rescaled down
    # 3 and 7 times. The third is rescaled both down and up, and needs the
    # backward (shrinkage) half of the bounds: forward growth alone allows
    # an interval of 499 where it is 12, and the call comes back NaN
    RESCALING = [(1.0, 1.0, 0, 1e5, 1000), (2.5, 0.5, 0, 1e8, 300), (1e6, 1e6, 0, -1e12, 200)]

    @staticmethod
    def outcomes(cases):
        return [
            repr((_fixed(case, case[3], case[4]), _early(case, case[3], case[4], 1e-14)))
            for case in cases
        ]

    @staticmethod
    def interval(case):
        # the schedule of _drummond_recurrence, from the bounds of the entry
        alpha, beta, n, z, order = case
        _rows, p, q = _purepy._coefficient_table(alpha, beta, n, order)
        growth = (abs(z.real) + abs(z.imag)) * p + q
        if not growth < math.inf:
            return 1
        return int(_purepy._RESCALE_HEADROOM_BITS / math.log2(max(growth, 2.0))) or 1

    def assert_same_bits_as_every_order(self, cases, monkeypatch):
        scheduled = self.outcomes(cases)
        monkeypatch.setattr(_purepy, "_RESCALE_HEADROOM_BITS", 0.0)
        assert all(self.interval(case) == 1 for case in cases)
        assert self.outcomes(cases) == scheduled

    def test_rescaling_calls_keep_their_bits(self, monkeypatch):
        assert all(1 < self.interval(case) < 100 for case in self.RESCALING)
        self.assert_same_bits_as_every_order(self.RESCALING, monkeypatch)
        monkeypatch.setattr(_purepy, "_RESCALE_THRESHOLD", math.inf)
        monkeypatch.setattr(_purepy, "_RESCALE_TINY", 0.0)
        for case in self.RESCALING:
            assert math.isnan(_fixed(case, case[3], case[4])), case

    def test_call_at_the_order_limit_reads_one_table(self, cold_tables, monkeypatch):
        # the largest order any entry point accepts: a rescaling call and
        # an early-exit call that runs to the end share one whole table
        term = HypTerm2F0(1.0, 1.0, 0.01)
        assert not drummond_2f0(term, k_max=ORDER_LIMIT).converged
        assert math.isfinite(drummond_2f0_at_order(term, 0, ORDER_LIMIT))
        cases = [(1.0, 1.0, 0, 0.01, ORDER_LIMIT), (1.0, 1.0, 0, complex(-3e5, 4e5), ORDER_LIMIT)]
        self.assert_same_bits_as_every_order(cases, monkeypatch)
        assert cold_tables.cache_info().currsize == 1
        rows = cold_tables(1.0, 1.0, 0, ORDER_LIMIT)[0]
        assert [row[0] for row in rows] == list(range(1, ORDER_LIMIT))

    def test_table_cases_keep_their_bits(self, monkeypatch):
        # the fixed order 1000 at complex z is the phase command's call: a
        # check every 90 orders or so, not every order
        assert self.interval(TestCoefficientTables.CASES[4]) > 50
        self.assert_same_bits_as_every_order(TestCoefficientTables.CASES, monkeypatch)

    def test_random_calls_keep_their_bits(self, monkeypatch):
        rng = random.Random(20261018)
        cases = []
        for i in range(600):
            if i % 2:
                alpha = complex(rng.uniform(0.05, 6.0), rng.uniform(-3.0, 3.0))
                beta = complex(rng.uniform(-3.0, 6.0), rng.uniform(-3.0, 3.0))
                z = cmath.rect(10.0 ** rng.uniform(-8, 12), rng.uniform(-3.1, 3.1))
            else:
                alpha = rng.uniform(0.05, 6.0)
                beta = rng.uniform(0.05, 6.0)
                z = 10.0 ** rng.uniform(-8, 12)
            cases.append((alpha, beta, i % 4, z, rng.choice([5, 40, 300, 1000])))
        self.assert_same_bits_as_every_order(cases, monkeypatch)

    def test_near_pole_checks_every_order(self, monkeypatch):
        # lead = (alpha+2)(beta+2) ~ 1e-100 at order 1: p = -1/lead bounds
        # the growth by ~2^330 an order, so there is no headroom to skip
        case = (complex(-2.0, 1e-100), complex(1.0), 0, complex(3.0), 500)
        assert self.interval(case) == 1
        self.assert_same_bits_as_every_order([case], monkeypatch)

    def test_unbounded_and_empty_tables_keep_their_bits(self, monkeypatch):
        # alpha = beta = 1e200: lead overflows, so s = 0 from order 2 on and
        # no backward bound exists; the check runs at every order
        overflow = (1e200, 1e200, 0, 8.0, 500)
        assert _purepy._coefficient_table(1e200, 1e200, 0, 500)[1:] == (math.inf, math.inf)
        assert self.interval(overflow) == 1
        # fixed order 1 is k_end = 1: no rows, so nothing grows
        empty = (1.0, 1.0, 0, 8.0, 1)
        assert _purepy._coefficient_table(1.0, 1.0, 0, 1) == ((), 0.0, 0.0)
        assert self.interval(empty) == int(_purepy._RESCALE_HEADROOM_BITS)
        self.assert_same_bits_as_every_order([overflow, empty], monkeypatch)


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

    # T_0^(300) over the complex window of the phase command errs by at most
    # 2.5e-12 at these points; the bound leaves a factor of 4
    HIGH_ORDER_BOUND = 1e-11

    @pytest.mark.parametrize(
        "z", [complex(-15, -10), complex(-8, 2), complex(-3.2, 4.1),
              complex(-1, -0.5), complex(2, 6), complex(5, -10)]
    )
    def test_high_fixed_order_at_complex_z(self, z):
        term = HypTerm2F0(complex(1.0), complex(1.0), z)
        got = drummond_2f0_at_order(term, 0, 300)
        assert rel(got, complex(oracle_drummond_bigfloat(term, 0, 300))) <= self.HIGH_ORDER_BOUND

    def test_rescaled_high_fixed_order(self, monkeypatch):
        # at |z| = 5e5, N and D pass 2^512 within 300 orders: with the
        # rescale off they overflow and T is NaN
        term = HypTerm2F0(complex(1.0), complex(1.0), complex(-3e5, 4e5))
        got = drummond_2f0_at_order(term, 0, 300)
        assert rel(got, complex(oracle_drummond_bigfloat(term, 0, 300))) <= self.HIGH_ORDER_BOUND
        monkeypatch.setattr(_purepy, "_RESCALE_THRESHOLD", math.inf)
        monkeypatch.setattr(_purepy, "_RESCALE_TINY", 0.0)
        assert cmath.isnan(drummond_2f0_at_order(term, 0, 300))

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

    @pytest.mark.parametrize(
        "args, name",
        [((1.0, 1.0, "2"), "x"), (("1", 1.0, 2.0), "mu"), ((None, 1.0, 2.0), "mu"),
         ((1.0, 1j, 2.0), "nu"), ((Decimal("sNaN"), 1.0, 2.0), "mu")],
    )
    def test_arguments_that_are_not_real_numbers_rejected_by_name(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be a real number, got "):
            lommel_s(*args)

    @pytest.mark.parametrize("kind", NUMBER_TYPES, ids=NUMBER_TYPE_IDS)
    @pytest.mark.parametrize("name", ["mu", "nu", "x", "tol"])
    def test_numbers_give_the_bits_of_their_float_twin(self, name, kind):
        # an int value is integral, so its tol >= 1; the other values are not
        values = {"mu": (-0.25, 0), "nu": (0.75, 1), "x": (12.5, 12), "tol": (1e-10, 1)}
        x = values[name][kind is int]
        twin = dict(mu=-0.5, nu=0.5, x=10.0, tol=1e-12)
        given = dict(twin)
        twin[name], given[name] = float(x), kind(x)
        assert repr(lommel_s(**given)) == repr(lommel_s(**twin))

    @pytest.mark.parametrize("x", [1e-150, 1e-170, 5e-324])
    def test_tiny_argument_named(self, x):
        # x^(mu-1) overflows at 1e-150; z = x^2/4 underflows to 0 below
        with pytest.raises(ValueError, match=f"leaves the double range at x={x!r}"):
            lommel_s(-1.5, -0.5, x)


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


def _terminal_m(alpha, beta):
    """m where alpha or beta is the nonpositive integer -m, else None."""
    ms = [
        -int(p.real)
        for p in map(complex, (alpha, beta))
        if p.imag == 0.0 and p.real <= 0.0 and p.real.is_integer()
    ]
    return min(ms, default=None)


class TestKernelContract:
    """The recurrence kernel trusts its wrappers: it never sees z = 0, an
    early exit on a terminating series, or a fixed order >= 1 that reaches
    the vanishing term of one."""

    @pytest.fixture
    def kernel_calls(self, monkeypatch):
        calls = []
        early, fixed = _purepy.drummond_2f0, _purepy.drummond_2f0_fixed

        def checked_early(alpha, beta, z, n, tol, k_max):
            assert z != 0 and _terminal_m(alpha, beta) is None, (alpha, beta, z)
            calls.append("early")
            return early(alpha, beta, z, n, tol, k_max)

        def checked_fixed(alpha, beta, z, n, order):
            m = _terminal_m(alpha, beta)
            assert z != 0, (alpha, beta)
            assert order == 0 or m is None or n + order < m, (alpha, beta, n, order)
            calls.append("fixed" if order == 0 else "approximant")
            return fixed(alpha, beta, z, n, order)

        monkeypatch.setattr(_purepy, "drummond_2f0", checked_early)
        monkeypatch.setattr(_purepy, "drummond_2f0_fixed", checked_fixed)
        return calls

    def test_drummond_entry_points(self, kernel_calls):
        for p in [0.0, -1.0, -2.0, -3.0, -4.0]:
            for other in [1.5, -2.0]:
                for z in [2.5, complex(-4.0, 3.0)]:
                    for term in (HypTerm2F0(p, other, z), HypTerm2F0(other, p, z)):
                        for n in range(3):
                            drummond_2f0(term, n)
                            drummond_2f0(term, n, k_max=3)
                            for order in range(7):
                                drummond_2f0_at_order(term, n, order)
                    for zero in (0.0, 0j):
                        with pytest.raises(ValueError, match="z = 0"):
                            drummond_2f0(HypTerm2F0(p, other, zero))
                        with pytest.raises(ValueError, match="z = 0"):
                            drummond_2f0_at_order(HypTerm2F0(p, other, zero), 1, 3)
        # terminal sums, and approximants below the vanishing term
        assert set(kernel_calls) == {"fixed", "approximant"}

    def test_lommel_and_eigenvalue_routes(self, kernel_calls):
        # mu = 1 + nu + 2j or 1 - nu + 2j makes a Lommel expansion terminate
        for nu in [-0.5, 0.0, 1.5]:
            for j in range(3):
                for mu in (1.0 + nu + 2 * j, 1.0 - nu + 2 * j):
                    lommel_s(mu, nu, 8.0)
        # alpha = d - 2 - 2j makes (2-d+alpha)/2 or (4-d+alpha)/2 one
        for d in range(1, 11):
            for alpha in [0.0] + [d - 2.0 - 2 * j for j in range(d // 2)]:
                if alpha >= 0.0:
                    for kd in [6.0, 9.5, 30.0]:
                        lambda_asymptotic(KernelParams(d, alpha, 1.0), kd)
        # terminal sums, and resummations of the other expansion
        assert set(kernel_calls) == {"fixed", "early"}

import itertools
import math
import pickle
import random
import re
import time
from collections import namedtuple
from decimal import Decimal
from enum import IntEnum
from fractions import Fraction

import pytest
from mpmath import mp

from nlspectra import (
    EvalResult,
    KernelParams,
    NonConvergenceError,
    SpectrumTable,
    _purepy,
    apply_to_fourier_coeffs,
    lambda_asymptotic,
    lambda_hybrid,
    lambda_maclaurin,
    lattice_spectrum,
    spectra,
)
from nlspectra._backend import kernels
from nlspectra.cli import EIGENROW_FIELDS, _write_rows
from nlspectra.drummond import HypTerm2F0, TransformResult, drummond_2f0, lommel_s
from nlspectra.oracle import (
    oracle_asy_part_a,
    oracle_closed_form_d1_a0,
    oracle_digamma,
    oracle_lambda_maclaurin,
)
from nlspectra.spectra import (
    ASYMPTOTIC_TAIL_CUTOFF,
    D_MAX,
    HYBRID_SWITCH,
    LATTICE_KMAX_LIMIT,
    _asy_gamma_part,
    achievable_squared_norms,
)

EPS = 2.220446049250313e-16

_PARAMS = KernelParams(3, 1.0, 1.0)
_RESULT = EvalResult(1.0, "maclaurin", 3, 0.5)
#: Each record with its repr, the one the dataclasses they replace printed.
RECORDS = [
    (_PARAMS, "KernelParams(d=3, alpha=1.0, delta=1.0)"),
    (_RESULT, "EvalResult(lam=1.0, method='maclaurin', terms=3, est_rel_err=0.5)"),
    (SpectrumTable(_PARAMS, 0, {0: _RESULT}),
     "SpectrumTable(params=KernelParams(d=3, alpha=1.0, delta=1.0), kmax=0, "
     "entries={0: EvalResult(lam=1.0, method='maclaurin', terms=3, est_rel_err=0.5)})"),
    (HypTerm2F0(1.0, 2j, -3.5), "HypTerm2F0(alpha=1.0, beta=2j, z=-3.5)"),
    (TransformResult(0.5, 12, True, 1e-16),
     "TransformResult(value=0.5, order=12, converged=True, est_rel_err=1e-16)"),
]
RECORD_IDS = [type(record).__name__ for record, _ in RECORDS]


class _Level(IntEnum):
    TWO = 2


def _float64(x):
    np = pytest.importorskip("numpy")
    return np.float64(x)


#: Each numeric type an entry converts with float(), besides float itself.
NUMBER_TYPES = [Decimal, Fraction, int, _float64]
NUMBER_TYPE_IDS = ["Decimal", "Fraction", "int", "float64"]


def rel(got, ref):
    ref = float(ref)
    if ref == 0.0:
        return abs(got - ref)
    return abs((got - ref) / ref)


class TestKernelParams:
    def test_valid(self):
        KernelParams(3, 2.0, 1.0)

    @pytest.mark.parametrize("kind", NUMBER_TYPES, ids=NUMBER_TYPE_IDS)
    def test_stored_as_floats(self, kind):
        params = KernelParams(3, kind(2), kind(1))
        assert tuple(params) == (3, 2.0, 1.0)
        assert type(params.alpha) is float and type(params.delta) is float
        assert repr(params) == "KernelParams(d=3, alpha=2.0, delta=1.0)"

    @pytest.mark.parametrize("kind", NUMBER_TYPES, ids=NUMBER_TYPE_IDS)
    @pytest.mark.parametrize("name", ["alpha", "delta", "k_mod", "tol"])
    def test_numbers_give_the_bits_of_their_float_twin(self, name, kind):
        # an int value is integral, so its tol >= 1; the other values are not
        values = {"alpha": (1.25, 2), "delta": (2.5, 2), "k_mod": (3.5, 3), "tol": (1e-10, 1)}
        x = values[name][kind is int]
        twin = dict(alpha=1.0, delta=2.0, k_mod=3.0, tol=1e-12)
        given = dict(twin)
        twin[name], given[name] = float(x), kind(x)

        def results(alpha, delta, k_mod, tol):
            p = KernelParams(3, alpha, delta)
            # k*delta = 6 to 8.75 takes the series, 20 times that the asymptotic form
            evals = [f(p, k, tol) for f in (lambda_maclaurin, lambda_asymptotic, lambda_hybrid)
                     for k in (k_mod, 20 * k_mod)]
            # |k| reaches 12 sqrt(3), k*delta 41.6 and more: both routes
            table = lattice_spectrum(p, 12, tol)
            coeffs = {(1, 0, 0): 1.0, (2, 1, 0): 0.5j, (12, 12, 12): 2.0}
            return repr((evals, table, apply_to_fourier_coeffs(p, coeffs, tol)))

        assert results(**given) == results(**twin)

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

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: lambda_maclaurin(p, 1.0),
            lambda p: lambda_asymptotic(p, 40.0),
            lambda p: lambda_hybrid(p, 1.0),
            lambda p: lattice_spectrum(p, 2),
            lambda p: apply_to_fourier_coeffs(p, {(1, 0, 0): 1.0}),
        ],
        ids=["maclaurin", "asymptotic", "hybrid", "lattice", "fourier"],
    )
    def test_lookalike_params_rejected(self, call):
        Params = namedtuple("Params", "d alpha delta")
        with pytest.raises(ValueError, match=r"params must be KernelParams, got <class "):
            call(Params(3, 2.0, 1.0))

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: KernelParams(3, "1", 1.0), "alpha must be in [0, d+2) = [0, 5), got '1'"),
            (lambda: KernelParams(3, 1.0, None), "delta must be positive and finite, got None"),
            (lambda: lambda_hybrid(KernelParams(3, 1.0, 1.0), "1"),
             "k_mod must be finite and >= 0, got '1'"),
            (lambda: lambda_hybrid(KernelParams(3, 1.0, 1.0), 1j),
             "k_mod must be finite and >= 0, got 1j"),
            (lambda: lambda_hybrid(KernelParams(3, 1.0, 1.0), 1.0, None),
             "tol must be >= machine epsilon, got None"),
            (lambda: lommel_s(1.0, 1.0, math.inf), "z must be finite, got x^2/4 at x=inf"),
            # ints beyond the double range: a ValueError, not an OverflowError
            (lambda: KernelParams(3, 1.0, 10**400),
             f"delta must be positive and finite, got {10**400}"),
            (lambda: lambda_hybrid(KernelParams(3, 1.0, 1.0), 10**400),
             f"k_mod must be finite and >= 0, got {10**400}"),
            (lambda: lommel_s(1.0, 1.0, 10**400),
             f"x must lie within the double range, got {10**400}"),
            (lambda: lambda_hybrid(KernelParams(3, 1.0, 1.0), 2.0, 10**400),
             f"tol must be >= machine epsilon, got {10**400}"),
            (lambda: drummond_2f0(HypTerm2F0(1, 1, 10), tol=10**400),
             f"tol must be >= machine epsilon, got {10**400}"),
        ],
        ids=["alpha-str", "delta-none", "k-str", "k-complex", "tol-none", "lommel-x-inf",
             "delta-huge-int", "k-huge-int", "lommel-x-huge-int", "tol-huge-int",
             "drummond-tol-huge-int"],
    )
    def test_argument_errors_name_the_argument(self, call, message):
        # a value that does not compare with floats is a ValueError, not a
        # bare TypeError from the comparison
        with pytest.raises(ValueError, match=re.escape(message)):
            call()


@pytest.mark.parametrize("record, text", RECORDS, ids=RECORD_IDS)
class TestRecords:
    """The records are immutable named tuples that keep the semantics of the
    frozen dataclasses they replace, but for unpacking like tuples."""

    def test_repr_and_fields(self, record, text):
        assert repr(record) == text
        assert type(record)(**record._asdict()) == record

    def test_unequal_to_a_plain_tuple_either_way(self, record, text):
        plain = tuple(record)
        assert record != plain and plain != record
        assert not (record == plain or plain == record)
        assert record == type(record)(*plain) and not record != type(record)(*plain)

    def test_hash_and_pickle_round_trip(self, record, text):
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record
        if isinstance(record, SpectrumTable):
            # its entries are a dict
            with pytest.raises(TypeError, match="unhashable"):
                hash(record)
        else:
            assert hash(copy) == hash(record) == hash(tuple(record))

    def test_assignment_raises(self, record, text):
        for name in record._fields + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, 0.0)
        assert repr(record) == text


class TestRecordConstruction:
    @pytest.mark.parametrize(
        "call",
        [lambda: KernelParams(d=3, alpha=1.0, delta=-1.0), lambda: _PARAMS._replace(delta=-1.0),
         lambda: KernelParams._make((3, 1.0, -1.0))],
        ids=["keywords", "replace", "make"],
    )
    def test_kernel_params_validate_however_built(self, call):
        message = "delta must be positive and finite, got -1.0"
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_records_of_two_types_unequal_on_the_same_values(self):
        other = TransformResult(*_RESULT)
        assert _RESULT != other and other != _RESULT

    def test_records_unpack_like_tuples(self):
        d, alpha, delta = _PARAMS
        assert (d, alpha, delta) == (3, 1.0, 1.0)
        assert _PARAMS._replace(delta=2.0) == KernelParams(3, 1.0, 2.0)


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
            got = _asy_gamma_part(d, alpha, math.gamma(0.5 * d), math.log(2.0 / kd))[0]
            ref = oracle_asy_part_a(d, alpha, kd)
            scale = max(abs(float(ref)), 1e-3)
            assert abs(got - float(ref)) / scale <= 1e-12, (d, alpha, kd)
            alpha += 0.25

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_limit_branch_at_alpha_d(self, d):
        got = _asy_gamma_part(d, float(d), math.gamma(0.5 * d), math.log(2.0 / 9.0))[0]
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

    @pytest.mark.parametrize("d", range(1, 11))
    def test_accuracy_follows_tol(self, d):
        # the paper's claim that accuracy is individually controllable: at
        # each tol the estimate meets it, the true error meets the estimate,
        # a looser tol takes no more terms and 1e-4 fewer than 10 eps (all
        # 800 cases of d = 1..10)
        tols = (10 * EPS, 1e-12, 1e-8, 1e-4)
        for alpha in (0.0, d / 2, float(d), d + 1.9):
            params = KernelParams(d, alpha, 0.25)
            for kd in (0.01, 0.5, 3.0, 10.0, 39.0):
                ref = oracle_lambda_maclaurin(params, kd / 0.25)
                terms = []
                for tol in tols:
                    res = lambda_maclaurin(params, kd / 0.25, tol)
                    err = abs((mp.mpf(res.lam) - ref) / ref)
                    assert res.est_rel_err <= tol and err <= res.est_rel_err, (alpha, kd, tol)
                    terms.append(res.terms)
                assert terms == sorted(terms, reverse=True) and terms[0] > terms[-1], (
                    alpha, kd, terms
                )

    def test_overflowing_argument_is_nonconvergence(self):
        # (k*delta)^2 leaves the double range before the first term
        with pytest.raises(NonConvergenceError, match="exceeds the double range") as info:
            lambda_maclaurin(KernelParams(3, 2.0, 1.0), 1e200)
        res = info.value.result
        assert res.method == "maclaurin" and math.isnan(res.lam)
        assert res.est_rel_err == math.inf

    def test_float_series_where_k_squared_overflows(self):
        # k*delta = 5.88 and 1: k^2 leaves the double range, lambda = -7.7e307
        # does not and is summed without a term of NaN; lambda ~ -1e400 does
        params = KernelParams(3, 2.0, 4.2e-154)
        res = lambda_maclaurin(params, 1.4e154)
        assert res.method == "maclaurin"
        assert rel(res.lam, oracle_lambda_maclaurin(params, 1.4e154)) <= res.est_rel_err
        with pytest.raises(ValueError, match="exceeds the double range"):
            lambda_maclaurin(KernelParams(3, 2.0, 1e-200), 1e200)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_fixed_point_within_its_estimate(self, d):
        # beyond k*delta = 6, on both sides of the route switch, out to the
        # series' reach (long coefficient tables, a large p), and at the smallest
        # alpha whose ratio needs a long denominator; never fewer terms than
        # k*delta / 2, from where the terms fall
        kds = [math.nextafter(6.0, 7.0), 6.5, 7.3, 9.0, 11.1, 13.7,
               math.nextafter(16.0, 0.0), 16.0, 20.0, 25.0, 30.0, 100.0, 500.0, 2000.0]
        for alpha in [0.0, d - 0.5, float(d), d + 2 - 1e-12, 1e-300]:
            params = KernelParams(d, alpha, 1.0)
            for kd in kds:
                ref = oracle_lambda_maclaurin(params, kd)
                for tol in [10 * EPS, 1e-12, 1e-8]:
                    res = lambda_maclaurin(params, kd, tol)
                    assert res.method == "maclaurin"
                    assert res.terms >= math.ceil(kd / 2), (alpha, kd, tol)
                    with mp.workprec(256):
                        err = abs((res.lam - ref) / ref)
                    assert err <= res.est_rel_err, (alpha, kd, tol)

    @pytest.mark.parametrize("kd", [10.0, 20.0, 100.0])
    def test_fixed_point_extends_a_short_first_choice(self, kd, monkeypatch):
        # the number of terms is first chosen against a lower bound on the
        # sum; with that bound raised far above the sum, the first choice is
        # short, and the check against the sum itself must run the backward
        # pass again with more terms rather than return
        params = KernelParams(3, 2.0137, 1.0)
        ref = oracle_lambda_maclaurin(params, kd)
        lookups = []
        table = _purepy._series_table
        floor = _purepy._SUM_FLOOR

        def counted(*args):
            lookups.append(args)
            return table(*args)

        monkeypatch.setattr(_purepy, "_series_table", counted)
        for tol in [10 * EPS, 1e-8]:
            lookups.clear()
            plain = lambda_maclaurin(params, kd, tol)
            plain_lookups = len(lookups)
            monkeypatch.setattr(_purepy, "_SUM_FLOOR", 2.0**40)
            lookups.clear()
            res = lambda_maclaurin(params, kd, tol)
            monkeypatch.setattr(_purepy, "_SUM_FLOOR", floor)
            assert len(lookups) > plain_lookups, (kd, tol)
            assert res.terms >= math.ceil(kd / 2)
            with mp.workprec(256):
                err = abs((res.lam - ref) / ref)
            assert err <= res.est_rel_err and err <= tol, (kd, tol)
            assert rel(res.lam, plain.lam) <= res.est_rel_err + plain.est_rel_err

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    @pytest.mark.parametrize("kd", [6.0, HYBRID_SWITCH])
    def test_no_jump_where_the_summation_or_route_changes(self, d, kd):
        # at 6, inside the one fixed-point summation, and at the switch to
        # the asymptotic route: neighbouring doubles of k*delta agree to
        # within their estimates and the slope of lambda
        for alpha in [0.0, d - 0.5, float(d), d + 1.9]:
            params = KernelParams(d, alpha, 1.0)
            lo = lambda_hybrid(params, math.nextafter(kd, 0.0))
            hi = lambda_hybrid(params, math.nextafter(kd, math.inf))
            assert lo.method == "maclaurin"
            assert hi.method == ("maclaurin" if kd < HYBRID_SWITCH else "asymptotic")
            bound = lo.est_rel_err + hi.est_rel_err + 8 * EPS
            assert rel(hi.lam, lo.lam) <= bound, (alpha, kd)

    @pytest.mark.parametrize("delta,k", [(1e200, 1e200), (1.0, 1e5), (1e-3, 2.1e6)])
    def test_beyond_the_series_reach_is_nonconvergence_at_once(self, delta, k):
        # k*delta = inf, 1e5 and 2100: no loop of NaN terms, no OverflowError
        start = time.perf_counter()
        with pytest.raises(NonConvergenceError, match="series cannot start") as info:
            lambda_maclaurin(KernelParams(3, 2.0, delta), k)
        assert time.perf_counter() - start < 0.5
        res = info.value.result
        assert res.method == "maclaurin" and math.isnan(res.lam)
        assert res.est_rel_err == math.inf

    def test_fixed_point_lambda_outside_the_double_range(self):
        # k*delta = 10: |lambda| ~ 1e320 is named, ~ 1e-400 is unestimated
        with pytest.raises(ValueError, match="exceeds the double range"):
            lambda_maclaurin(KernelParams(3, 2.0, 1e-160), 10.0 / 1e-160)
        res = lambda_maclaurin(KernelParams(3, 2.0, 1e201), 10.0 / 1e201)
        assert abs(res.lam) < 2.2250738585072014e-308 and res.est_rel_err == math.inf

    @pytest.mark.parametrize(
        "delta,k", [(1.0, 1e-160), (1.0, 1e-200), (1.0, 5e-324), (1e-170, 1e-170)]
    )
    def test_tiny_k_is_unestimated_not_a_failure(self, delta, k):
        # lambda = -k^2 falls below the normal doubles, at k*delta = 1e-160,
        # 1e-200, 5e-324 and 0 (underflowed): one term, an infinite estimate,
        # no run to the term cap
        for fn in (lambda_maclaurin, lambda_hybrid):
            res = fn(KernelParams(3, 2.0, delta), k)
            assert res.method == "maclaurin" and res.terms == 1
            assert res.lam == -(k * k) and res.est_rel_err == math.inf

    @pytest.mark.parametrize("delta,k", [(1e-250, 1e-100), (1e-300, 1e-30)])
    def test_underflowed_kdelta_is_minus_k_squared(self, delta, k):
        # k*delta = 1e-350 and 1e-330 underflow to 0 as doubles, but lambda
        # = -k^2 (1 - O((k*delta)^2)) is a normal double
        params = KernelParams(3, 2.0, delta)
        assert k * delta == 0.0
        res = lambda_maclaurin(params, k)
        assert res.lam == -(k * k) and res.terms == 1
        assert rel(res.lam, oracle_lambda_maclaurin(params, k)) <= res.est_rel_err <= 4 * EPS

    def test_reach_of_the_series(self):
        # the last k*delta the guard lets through converges within its
        # coefficient table, at the loosest tol and at the default
        params = KernelParams(3, 2.0, 1.0)
        kd = spectra.MACLAURIN_KDELTA_MAX
        res = lambda_maclaurin(params, kd, 1e300)
        assert res.terms >= math.ceil(kd / 2)
        res = lambda_maclaurin(params, kd)
        assert res.terms < 1.4 * kd and res.est_rel_err < 1e-15

    @pytest.mark.parametrize("d", range(1, 11))
    def test_series_table_ends_at_its_first_zero_row(self, d, monkeypatch):
        # at the (p, g) that k*delta from 0 (underflowed) to the series'
        # reach asks for: the last row is the table's only zero row, 64 rows
        # continued past it in exact rationals are 0 too, and N + 1 at
        # tol = eps is a row of the table
        keys = []
        table = _purepy._series_table

        def recorded(*key):
            keys.append(key)
            return table(*key)

        monkeypatch.setattr(_purepy, "_series_table", recorded)
        rng = random.Random(d)
        kdeltas = [(1e-170, 1e-170), (1e-3, 1.0), (0.3, 1.0), (6.0, 1.0), (27.9, 1.0),
                   (100.0, 1.0), (2000.0, 1.0)]
        for alpha in (0.0, float(d), d + 2 - 1e-12, 1e-300, rng.uniform(0.0, d + 2.0)):
            a = Fraction(alpha)
            for k, delta in kdeltas:
                keys.clear()
                constants = _purepy.maclaurin_constants(d, alpha, delta, EPS)
                terms, converged = _purepy.maclaurin_lambda(constants, k)[1:3]
                assert converged and len(set(keys)) == 1, (alpha, k * delta)
                _, _, p, g = keys[0]
                rows = table(*keys[0])[0]
                last = len(rows) - 1
                assert [n for n in range(1, last + 1) if rows[n] == 0] == [last]
                assert terms + 1 <= last, (alpha, k * delta)
                den = math.prod((j + 1) * (2 * j + d) for j in range(1, last))
                v = (d + 2 - a) / ((d + 2 * last - a) * den) * 2 ** (p + (last - 1) * g)
                for n in range(last, last + 64):
                    assert v < 1, (alpha, k * delta, n)
                    v *= (d + 2 * n - a) / ((d + 2 * n + 2 - a) * (n + 1) * (2 * n + d)) * 2**g

    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_square_of_k_as_int_m_or_as_float_k(self, d, monkeypatch):
        # at m = j^2 both ways sum the same table to the same N; lambda = -(m F)
        # against -(j (j F)) is within an ulp, and equal where j is a power of 2
        keys = []
        table = _purepy._series_table

        def recorded(*key):
            keys.append(key)
            return table(*key)

        monkeypatch.setattr(_purepy, "_series_table", recorded)
        rng = random.Random(d)
        for alpha in (0.0, float(d), d + 2 - 1e-12, rng.uniform(0.0, d + 2.0)):
            for delta in (0.1, 0.25, 1.0 / 3.0, rng.uniform(0.01, 1.0)):
                constants = _purepy.maclaurin_constants(d, alpha, delta, EPS)
                for j in (1, 2, 3, 4, 5, 7, 8, 16, 31, 64, 100, 128, 255, 399):
                    if j * delta >= HYBRID_SWITCH:
                        continue
                    keys.clear()
                    at_k = _purepy.maclaurin_lambda(constants, float(j))
                    at_m = _purepy.maclaurin_lambda(constants, float(j), j * j)
                    assert len(keys) == 2 and keys[0] == keys[1], (alpha, delta, j)
                    assert at_m[1:] == at_k[1:], (alpha, delta, j)
                    if j & (j - 1):
                        assert abs(at_m[0] - at_k[0]) <= math.ulp(at_k[0]), (alpha, delta, j)
                    else:
                        assert at_m[0].hex() == at_k[0].hex(), (alpha, delta, j)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_non_square_m_within_its_estimate_of_sqrt_m(self, d):
        # at k^2 = m and at k = fl(sqrt(m)), against the series at sqrt(m)
        # taken in mpmath
        rng = random.Random(100 + d)
        failures = []
        for i in range(24):
            alpha = (0.0, float(d), d + 2 - 1e-12, rng.uniform(0.0, d + 2.0))[i % 4]
            delta = rng.choice((0.1, 0.25, rng.uniform(0.01, 1.0)))
            m = rng.randint(2, int((HYBRID_SWITCH / delta) ** 2))
            if math.isqrt(m) ** 2 == m:
                m += 1
            params = KernelParams(d, alpha, delta)
            with mp.workprec(256):
                ref = oracle_lambda_maclaurin(params, mp.sqrt(m))
            for tol in (EPS, 1e-12):
                constants = _purepy.maclaurin_constants(d, alpha, delta, tol)
                for lam, _, converged, est in (
                    _purepy.maclaurin_lambda(constants, math.sqrt(m), m),
                    _purepy.maclaurin_lambda(constants, math.sqrt(m)),
                ):
                    with mp.workprec(256):
                        err = float(abs((lam - ref) / ref))
                    if not (converged and err <= est):
                        failures.append((d, alpha, delta, m, tol, lam, err, est))
        assert not failures, failures[:5]

    def test_cold_call_at_the_reach_builds_one_table(self):
        _purepy._series_table.cache_clear()
        lambda_maclaurin(KernelParams(3, 2.0, 1.0), spectra.MACLAURIN_KDELTA_MAX)
        assert _purepy._series_table.cache_info().misses == 1

    def test_estimate_holds_on_random_arguments(self):
        # 300 draws of full-mantissa k and delta (not lattice norms), d 1..10,
        # alpha cycling through 0, d, d+2-1e-12, 1e-300 and uniform, k*delta
        # log-uniform in [1e-3, 2000], each at three tols: the first omitted
        # term plus 2N units of 2^-p bound the error against the oracle
        rng = random.Random(19)
        failures = []
        for i in range(300):
            d = rng.randint(1, 10)
            alpha = (0.0, float(d), d + 2 - 1e-12, 1e-300, rng.uniform(0.0, d + 2))[i % 5]
            delta = 10.0 ** rng.uniform(-2.0, 1.0)
            k = math.exp(rng.uniform(math.log(1e-3), math.log(2000.0))) / delta
            while k * delta > spectra.MACLAURIN_KDELTA_MAX:
                k = math.nextafter(k, 0.0)
            params = KernelParams(d, alpha, delta)
            ref = oracle_lambda_maclaurin(params, k)
            for tol in (10 * EPS, 1e-12, 1e-8):
                res = lambda_maclaurin(params, k, tol)
                with mp.workprec(256):
                    err = float(abs((res.lam - ref) / ref))
                if not err <= res.est_rel_err:
                    failures.append((d, alpha, delta, k, tol, err, res))
        assert not failures, failures[:5]

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 10])
    def test_estimate_bounds_the_error(self, d):
        # first omitted term plus the rounding bound of the fixed-point sum
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

    def test_estimate_is_inf_below_the_floor_and_holds_above_it(self):
        # direct calls at 10 eps, 1e-12 and 1e-8: from k*delta = 1 to the
        # floor the Lommel factors err above their estimates (up to 9.5x in
        # [1, 3) at 10 eps), so no estimate is given; from the floor to 8 it
        # bounds the error, with the flat 8 eps budget for J
        rng = random.Random(5)
        assert spectra.ASYMPTOTIC_KDELTA_MIN == 5.0
        failures = []
        for i in range(400):
            d = rng.randint(1, 10)
            alpha = (0.0, float(d), d + 2 - 1e-12, 1e-300, rng.uniform(0.0, d + 2.0))[i % 5]
            params = KernelParams(d, alpha, 1.0)
            if i % 2:
                kd = rng.uniform(1.0, 5.0)
                for tol in (10 * EPS, 1e-12, 1e-8):
                    try:
                        res = lambda_asymptotic(params, kd, tol)
                    except NonConvergenceError as exc:
                        res = exc.result
                    if res.est_rel_err != math.inf:
                        failures.append((d, alpha, kd, tol, res))
                continue
            kd = rng.uniform(5.0, 8.0)
            ref = oracle_lambda_maclaurin(params, kd)
            for tol in (10 * EPS, 1e-12, 1e-8):
                res = lambda_asymptotic(params, kd, tol)
                with mp.workprec(256):
                    err = abs((res.lam - ref) / ref)
                if not err <= res.est_rel_err:
                    failures.append((d, alpha, kd, tol, res, float(err)))
        assert not failures, failures[:5]

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

    @pytest.mark.parametrize("d", range(1, 11))
    def test_tiny_kdelta_ends_typed(self, d):
        # z = kd^2/4 underflows, x^(mu-1), kd^(alpha+1-d) or (kd/2)^(alpha-d)
        # overflows, or infinite products of J and S meet in part_b: each is
        # a ValueError naming k*delta, never an OverflowError or a NaN lambda
        kds = [5e-324, 1e-300, 1e-200, 1e-160, 1e-150, 1e-100, 1e-50, 1e-20, 1e-5]
        for alpha in [0.0, 1.0, float(d), d + 1.5]:
            params = KernelParams(d, alpha, 1.0)
            for kd in kds:
                try:
                    res = lambda_asymptotic(params, kd)
                except NonConvergenceError:
                    continue
                except ValueError as exc:
                    assert "an intermediate of the asymptotic form leaves the double range" in str(exc)
                    assert f"k*delta={kd:g}" in str(exc)
                    continue
                assert math.isfinite(res.lam), (alpha, kd)


# lambda_hybrid(KernelParams(d, alpha, 1), kd).lam by the full formula, Lommel
# part included; the tail cutoff must leave these bits unchanged. From
# k*delta = 1e20 on the Lommel part is far below rounding, so each value
# also lies within its estimate of 2 Gamma(d/2+1) (d+2-alpha) part_a.
_FULL_FORM_VALUES = {
    (1, 0.5, 1e20): "-0x1.3fffffffa9df8p+3",
    (1, 0.5, 1e40): "-0x1.4000000000000p+3",
    (1, 2.9, 1e20): "-0x1.4ab7415dc4c1cp+126",
    (1, 2.9, 1e40): "-0x1.84c12da9b7763p+252",
    (3, 2.5, 1e20): "-0x1.dffffffefd9e8p+4",
    (3, 2.5, 1e40): "-0x1.e000000000001p+4",
    (3, 4.9, 1e20): "-0x1.561ead8d23d67p+126",
    (3, 4.9, 1e40): "-0x1.9228f171c6a9ep+252",
    (10, 9.5, 1e20): "-0x1.8ffffffec1587p+6",
    (10, 9.5, 1e40): "-0x1.9000000000000p+6",
    (10, 11.9, 1e20): "-0x1.67dabed0c7d96p+126",
    (10, 11.9, 1e40): "-0x1.a701c44af082cp+252",
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
        with mp.workprec(256):
            ref = (
                2 * mp.gamma(mp.mpf(d) / 2 + 1) * (d + 2 - mp.mpf(alpha))
                * oracle_asy_part_a(d, alpha, kd)
            )
            assert rel(res.lam, ref) <= res.est_rel_err

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
        params = KernelParams(3, 2.0, 1.0)
        assert HYBRID_SWITCH == 40.0
        assert lambda_hybrid(params, 40.0).method == "asymptotic"
        assert lambda_hybrid(params, math.nextafter(40.0, 0.0)).method == "maclaurin"

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
        # and both ways of summing the series
        params = KernelParams(3, 2.0, 0.75)
        ms = achievable_squared_norms(3, 64)[1::50]
        assert sum(math.sqrt(m) * params.delta >= HYBRID_SWITCH for m in ms) >= 100
        assert sum(6.0 < math.sqrt(m) * params.delta < HYBRID_SWITCH for m in ms) >= 30
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
        # alpha = 0 form rather than meet the pole of Gamma(0); the
        # fixed-point series takes such an alpha as an exact ratio
        for alpha in [5e-324, 1e-300, 1e-100, 1e-17, 1.2e-16, 3e-16, 1e-12, 1e-8]:
            params = KernelParams(d, alpha, 1.0)
            for kd in (6.5, 30.0):
                ref = oracle_lambda_maclaurin(params, kd)
                for route in (lambda_asymptotic, lambda_maclaurin):
                    res = route(params, kd)
                    err = rel(res.lam, ref)
                    assert err <= res.est_rel_err, (route.__name__, alpha, kd)


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
        # and at a kmax whose first-coordinate bitset spans many bytes
        for kmax in [*range(9), {1: 2048, 2: 100, 3: 30, 4: 12}.get(d, 8)]:
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
        "d, kmax, message",
        [(3, LATTICE_KMAX_LIMIT + 1, r"kmax must be in \[0, 4096\], got 4097"),
         (D_MAX + 1, 2, r"d must be in \[1, 10\], got 11"),
         (1, 10**5, r"kmax must be in \[0, 4096\], got 100000")],
    )
    def test_achievable_rejects_what_lattice_spectrum_rejects(self, d, kmax, message):
        # the bitset has d kmax^2 bits: (1, 10**5) would be 1.25 GB
        with pytest.raises(ValueError, match=message):
            achievable_squared_norms(d, kmax)

    def test_achievable_accepts_the_largest_d(self):
        assert achievable_squared_norms(D_MAX, 1) == list(range(D_MAX + 1))

    @pytest.mark.parametrize(
        "d, alpha, delta, kmax",
        # k*delta reaches HYBRID_SWITCH and beyond, so both routes are taken
        [(1, 0.5, 0.7, 60), (2, 3.9, 0.8, 40), (3, 2.0, 2.0, 12), (4, 4.0, 4.0, 6),
         (5, 1.0, 5.0, 5)],
    )
    def test_spectrum_entries_are_single_evaluations(self, d, alpha, delta, kmax):
        # the lattice's evaluator, built once, against one built per row; and
        # against lambda_hybrid at fl(sqrt(m)), whose series sums at
        # fl(sqrt(m))^2, not at m
        params = KernelParams(d, alpha, delta)
        for tol in (EPS, spectra.DEFAULT_TOL, 1e-8):
            table = lattice_spectrum(params, kmax, tol)
            assert max(table.entries) * delta * delta >= HYBRID_SWITCH**2
            assert any(res.method == "asymptotic" for res in table.entries.values())
            for m, res in table.entries.items():
                one = spectra._Evaluator(params, tol).hybrid(math.sqrt(m), m)
                assert (res.lam.hex(), res.method, res.terms, res.est_rel_err.hex()) == (
                    one.lam.hex(), one.method, one.terms, one.est_rel_err.hex()
                ), (m, tol)
                at_k = lambda_hybrid(params, math.sqrt(m), tol)
                assert res.method == at_k.method, (m, tol)
                if res.method == "maclaurin":
                    bound = math.ulp(at_k.lam) + res.est_rel_err * abs(at_k.lam)
                    assert abs(res.lam - at_k.lam) <= bound, (m, tol)
                else:
                    assert (res.lam.hex(), res.terms, res.est_rel_err.hex()) == (
                        at_k.lam.hex(), at_k.terms, at_k.est_rel_err.hex()
                    ), (m, tol)

    @pytest.mark.parametrize("d, alpha, delta, kmax", [(2, 3.9, 0.25, 128), (3, 2.0, 0.1, 16)])
    def test_rows_of_any_split_equal_the_whole_run(self, tmp_path, d, alpha, delta, kmax):
        # each eigenvalue is independent of all others: fresh evaluators over
        # three uneven parts of the m list, the first from m = 0, give the
        # rows of one evaluator over the whole list, and the same CSV. On the
        # first lattice a cut falls at HYBRID_SWITCH, so the last part starts
        # its evaluator on an asymptotic row; the second has series rows only.
        params = KernelParams(d, alpha, delta)
        tol = spectra.DEFAULT_TOL
        ms = achievable_squared_norms(d, kmax)
        first_asy = next(
            (i for i, m in enumerate(ms) if math.sqrt(m) * delta >= HYBRID_SWITCH), None
        )
        cuts = [0, len(ms) // 7, first_asy or 3 * len(ms) // 5, len(ms)]
        parts = [ms[a:b] for a, b in zip(cuts, cuts[1:])]
        assert parts[0][0] == 0 and len({len(part) for part in parts}) == 3
        whole = list(spectra._Evaluator(params, tol).lattice(ms))
        joined = [
            row for part in parts for row in spectra._Evaluator(params, tol).lattice(part)
        ]
        assert joined == whole
        methods = {row[3] for row in whole}
        assert methods == ({"zero", "maclaurin", "asymptotic"} if first_asy else
                           {"zero", "maclaurin"})
        csvs = []
        for name, rows in (("whole.csv", whole), ("joined.csv", joined)):
            _write_rows(str(tmp_path / name), EIGENROW_FIELDS, rows, "csv", lead=params)
            csvs.append((tmp_path / name).read_bytes())
        assert csvs[0] == csvs[1]

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

    @pytest.mark.parametrize("value", [2.5, True])
    @pytest.mark.parametrize("where", ["kmax", "jobs", "norms_kmax"])
    def test_integer_arguments_rejected_by_name(self, where, value):
        params = KernelParams(2, 1.0, 1.0)
        calls = {
            "kmax": lambda: lattice_spectrum(params, value),
            "jobs": lambda: lattice_spectrum(params, 2, jobs=value),
            "norms_kmax": lambda: achievable_squared_norms(3, value),
        }
        name = "jobs" if where == "jobs" else "kmax"
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            calls[where]()

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
        # forked workers inherit the patched kernel, whose series never
        # converges
        kernel = _purepy.maclaurin_lambda

        def unconverged(*args):
            lam, terms, _, est = kernel(*args)
            return lam, terms, False, est

        monkeypatch.setattr(_purepy, "maclaurin_lambda", unconverged)
        errors = []
        for jobs in (1, 2):
            with pytest.raises(NonConvergenceError) as info:
                lattice_spectrum(KernelParams(2, 1.0, 1.0), 2, jobs=jobs)
            assert info.value.result is not None
            errors.append(str(info.value))
        assert errors[0] == errors[1]
        assert errors[0].startswith("lattice evaluation failed at m=1: ")

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("failure", [NonConvergenceError, ValueError])
    def test_failure_in_the_middle_of_a_lattice(self, monkeypatch, failure, jobs):
        # one later series row fails, after the lattice's loop has called the
        # kernel itself for the rows before it: the error must still name
        # that m and be the scalar path's. The kernel reports non-convergence
        # there, or a lambda beyond the double range (-inf).
        params = KernelParams(2, 3.9, 0.8)
        series = [
            m for m in achievable_squared_norms(2, 40)
            if m and math.sqrt(m) * params.delta < HYBRID_SWITCH
        ]
        bad = series[2 * len(series) // 3]
        kernel = _purepy.maclaurin_lambda

        def failing_at_bad(constants, k, m=None):
            lam, terms, converged, est = kernel(constants, k, m)
            if m == bad:
                if failure is NonConvergenceError:
                    converged = False
                else:
                    lam = -math.inf
            return lam, terms, converged, est

        monkeypatch.setattr(_purepy, "maclaurin_lambda", failing_at_bad)
        with pytest.raises(failure) as scalar:
            spectra._Evaluator(params, spectra.DEFAULT_TOL).hybrid(math.sqrt(bad), bad)
        with pytest.raises(failure) as info:
            lattice_spectrum(params, 40, jobs=jobs)
        assert type(info.value) is failure
        if failure is NonConvergenceError:
            assert str(info.value) == f"lattice evaluation failed at m={bad}: {scalar.value}"
            assert info.value.result == scalar.value.result
            assert info.value.result.method == "maclaurin"
        else:
            assert str(info.value) == str(scalar.value)

    def test_entries_are_records(self):
        # lattice_spectrum builds its records from the loop's rows with
        # tuple.__new__, not the constructor; a record equals only a record
        # of its own type
        table = lattice_spectrum(KernelParams(2, 3.9, 0.8), 40)
        methods = {res.method for res in table.entries.values()}
        assert methods == {"zero", "maclaurin", "asymptotic"}
        for res in table.entries.values():
            made = EvalResult(*res)
            assert type(res) is EvalResult
            assert res == made and hash(res) == hash(made)


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
        # also where (1, 0) has put every coordinate of (1, 0, 0) in the memo
        for coeffs in ({(1, 0, 0): 1.0 + 0j}, {(1, 0): 1.0, (1, 0, 0): 1.0}):
            with pytest.raises(ValueError, match=r"\(1, 0, 0\) does not have d=2 entries"):
                apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), coeffs)

    def test_non_integral_wavevector_rejected(self):
        # truncated to (1, 0), (1.5, 0) would be overwritten by (1, 0)'s own
        # amplitude
        params = KernelParams(2, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"wavevector \(1\.5, 0\) has a non-integral"):
            apply_to_fourier_coeffs(params, {(1.5, 0): 1.0, (1, 0): 2.0})
        out = apply_to_fourier_coeffs(params, {(2.0, 0): 1.0})
        assert out == {(2, 0): lambda_hybrid(params, 2.0).lam}

    @pytest.mark.parametrize("key", [5, None, (1, None)])
    def test_wavevector_not_a_sequence_of_numbers_rejected(self, key):
        # 5 used to raise a bare TypeError from map(int, 5)
        params = KernelParams(2, 1.0, 0.5)
        with pytest.raises(ValueError, match=rf"wavevector {re.escape(repr(key))} is not"):
            apply_to_fourier_coeffs(params, {(1, 0): 1.0, key: 1.0})

    @pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
    def test_non_finite_wavevector_rejected(self, entry):
        params = KernelParams(2, 1.0, 0.5)
        with pytest.raises(ValueError, match=r"has a non-integral entry"):
            apply_to_fourier_coeffs(params, {(entry, 0): 1.0})

    @pytest.mark.parametrize("d,r", [(2, 9), (3, 4)])
    def test_matches_per_coefficient_reference(self, d, r):
        # a shuffled block with negative entries against one lambda_hybrid
        # per coefficient: the same values, in the same order, under int keys
        params = KernelParams(d, 1.5, 0.3)
        keys = list(itertools.product(range(-r, r + 1), repeat=d))
        random.Random(d).shuffle(keys)
        coeffs = {k: complex(i, -i) for i, k in enumerate(keys)}
        out = apply_to_fourier_coeffs(params, coeffs)
        ref = [
            (k, amp * lambda_hybrid(params, math.sqrt(sum(c * c for c in k))).lam)
            for k, amp in coeffs.items()
        ]
        assert list(out.items()) == ref
        assert all(type(c) is int for k in out for c in k)

    @pytest.mark.parametrize(
        "coeffs,bad",
        [
            ({(1, 0): 1.0, (1, -4097): 1.0}, r"\(1, -4097\)"),
            ({(4097, 0): 1.0}, r"\(4097, 0\)"),
            ({(0, 1): 1.0, (1, 0): 1.0, (0, 4097): 1.0}, r"\(0, 4097\)"),
        ],
    )
    def test_wavevector_over_the_limit_rejected(self, coeffs, bad):
        # also where its other entries passed the check on an earlier wavevector
        params = KernelParams(2, 1.0, 0.5)
        with pytest.raises(ValueError, match=bad + r" exceeds \|k\|_inf <= 4096"):
            apply_to_fourier_coeffs(params, coeffs)

    def test_bad_tol_rejected_on_entry(self):
        # also where no coefficient would reach an eigenvalue route
        for coeffs in ({}, {(1, 0): 1.0}):
            with pytest.raises(ValueError, match="tol must be"):
                apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), coeffs, tol=0)

    def test_limit_itself_accepted(self):
        params = KernelParams(2, 1.0, 1e-4)
        out = apply_to_fourier_coeffs(params, {(4096, 0): 1.0, (-4096, 1): 1.0})
        assert list(out) == [(4096, 0), (-4096, 1)]

    def test_float_valued_keys_come_back_as_int_tuples(self):
        params = KernelParams(3, 1.0, 0.5)
        out = apply_to_fourier_coeffs(params, {(2.0, 0, -1.0): 1.0, (1, 2, 2.0): 2.0})
        assert list(out) == [(2, 0, -1), (1, 2, 2)]
        assert all(type(c) is int for k in out for c in k)
        assert out[(1, 2, 2)] == 2.0 * lambda_hybrid(params, 3.0).lam
        # also where both coordinates of (2.0, 0) are in the memo when it arrives
        params = KernelParams(2, 1.0, 0.5)
        out = apply_to_fourier_coeffs(params, {(2, 1): 1.0, (0, 1): 2.0, (2.0, 0): 3.0})
        assert list(out) == [(2, 1), (0, 1), (2, 0)]
        assert all(type(c) is int for k in out for c in k)
        assert out[(2, 0)] == 3.0 * lambda_hybrid(params, 2.0).lam

    def test_one_evaluation_per_distinct_norm(self, monkeypatch):
        calls = []

        def counting(params, k_mod, tol):
            calls.append(k_mod)
            return lambda_hybrid(params, k_mod, tol)

        monkeypatch.setattr(spectra, "lambda_hybrid", counting)
        keys = list(itertools.product(range(-3, 4), repeat=3))
        apply_to_fourier_coeffs(KernelParams(3, 1.0, 0.5), dict.fromkeys(keys, 1.0))
        norms = {sum(c * c for c in k) for k in keys}
        assert sorted(calls) == sorted(map(math.sqrt, norms))

    @pytest.mark.parametrize("coeffs", [[((1, 0), 1.0)], None, 5])
    def test_coeffs_without_items_rejected(self, coeffs):
        # these used to raise a bare AttributeError
        with pytest.raises(ValueError, match=r"coeffs must be a mapping .*, got <class "):
            apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), coeffs)

    @pytest.mark.parametrize("amp", ["x", None])
    def test_amplitude_that_is_not_a_number_rejected(self, amp):
        with pytest.raises(
            ValueError, match=r"amplitude .* of wavevector \(1, 0\) is not a number"
        ):
            apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), {(0, 1): 1.0, (1, 0): amp})

    def test_amplitude_error_names_the_int_tuple_of_a_bool_key(self):
        with pytest.raises(
            ValueError, match=r"amplitude 'x' of wavevector \(1, 0\) is not a number"
        ):
            apply_to_fourier_coeffs(KernelParams(2, 1.0, 0.5), {(0, 1): 1.0, (True, 0): "x"})

    @pytest.mark.parametrize("item", [((1, 0),), ((1, 0), 1.0, 2.0), 5])
    def test_item_that_is_not_a_pair_rejected(self, item):
        class Items:
            def __init__(self, first):
                self.first = first

            def items(self):
                return iter([self.first, item])

        params = KernelParams(2, 1.0, 0.5)
        message = re.escape(f"coeffs.items() yielded {item!r}, not a (wavevector, amplitude) pair")
        with pytest.raises(ValueError, match=message):
            apply_to_fourier_coeffs(params, Items(((0, 1), 1.0)))
        # an invalid wavevector reached first is named, not the item after it
        with pytest.raises(ValueError, match="non-integral entry"):
            apply_to_fourier_coeffs(params, Items(((0.5, 1), 1.0)))

    def test_duck_typed_mapping_accepted(self):
        class Pairs:
            def items(self):
                return iter([((1, 0), 2.0), ((0, 2), 1.0)])

        params = KernelParams(2, 1.0, 0.5)
        out = apply_to_fourier_coeffs(params, Pairs())
        assert out == {(1, 0): 2.0 * lambda_hybrid(params, 1.0).lam,
                       (0, 2): lambda_hybrid(params, 2.0).lam}

    def test_bool_and_int_subclass_entries_come_back_as_exact_ints(self):
        class Axis(IntEnum):
            X = 1
            Y = 2

        params = KernelParams(2, 1.0, 0.5)
        # (0, 1) and (2, 2) put every coordinate in the memo before the others
        coeffs = {(0, 1): 1.0, (2, 2): 1.0, (True, 0): 2.0, (Axis.Y, False): 3.0}
        out = apply_to_fourier_coeffs(params, coeffs)
        assert list(out)[2:] == [(1, 0), (2, 0)]
        assert out[(1, 0)] == 2.0 * lambda_hybrid(params, 1.0).lam
        assert out[(2, 0)] == 3.0 * lambda_hybrid(params, 2.0).lam
        assert all(type(c) is int for k in out for c in k)

    def test_namedtuple_key_comes_back_as_a_plain_tuple(self):
        Wave = namedtuple("Wave", "x y")
        params = KernelParams(2, 1.0, 0.5)
        for coeffs in ({Wave(1, 2): 1.0}, {(1, 2): 1.0, Wave(2, 1): 1.0}):
            out = apply_to_fourier_coeffs(params, coeffs)
            assert all(type(k) is tuple for k in out)
            assert list(out) == [tuple(k) for k in coeffs]

    @pytest.mark.parametrize(
        "entry", [2.0, True, _Level.TWO, Fraction(2), Decimal(2)], ids=repr
    )
    def test_entry_equal_to_a_checked_int_comes_back_as_that_int(self, entry):
        # (0, n) puts the entry's int twin n in the memo, so (entry, 0) hits
        # it and only the scan after the pass sees the entry's type; (1, entry)
        # misses on 1 where n = 2
        params = KernelParams(2, 1.0, 0.5)
        n = int(entry)
        coeffs = {(0, n): 1.0, (entry, 0): 2.0, (1, entry): 3.0, (3, 1): 4.0}
        twin = {(0, n): 1.0, (n, 0): 2.0, (1, n): 3.0, (3, 1): 4.0}
        out = apply_to_fourier_coeffs(params, coeffs)
        assert list(out.items()) == list(apply_to_fourier_coeffs(params, twin).items())
        assert all(type(c) is int for k in out for c in k)
        first, _, _, last = coeffs
        assert list(out)[0] is first and list(out)[3] is last

    def test_unhashable_entry_named(self):
        # (1, [0]) hits the memo on 1 and then cannot hash [0]
        class Pairs:
            def __init__(self, *pairs):
                self.pairs = pairs

            def items(self):
                return iter(self.pairs)

        params = KernelParams(2, 1.0, 0.5)
        for pairs in ([((1, [0]), 1.0)], [((1, 0), 1.0), ((1, [0]), 1.0)]):
            with pytest.raises(
                ValueError, match=re.escape("wavevector (1, [0]) is not a sequence of numbers")
            ):
                apply_to_fourier_coeffs(params, Pairs(*pairs))

    def test_exact_int_keys_are_the_output_keys(self):
        keys = list(itertools.product(range(-300, 301, 150), repeat=3))
        coeffs = dict.fromkeys(keys, 1.0)
        out = apply_to_fourier_coeffs(KernelParams(3, 1.0, 1e-3), coeffs)
        assert len(out) == len(coeffs)
        assert all(a is b for a, b in zip(coeffs, out))

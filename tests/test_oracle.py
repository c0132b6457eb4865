import ast
import inspect
from fractions import Fraction

import pytest
from mpmath import mp

from nlspectra import HypTerm2F0, KernelParams, oracle
from nlspectra.oracle import (
    oracle_closed_form_d1_a0,
    oracle_denominator_poly,
    oracle_drummond_bigfloat,
    oracle_lambda_maclaurin,
)

# regression constant: oracle_lambda_maclaurin(KernelParams(3, 2, 1), 6.0)
# computed at 256-bit precision, 40 digits
LAMBDA_D3_A2_K6 = "-13.72593734615848039269290691624857394452"


class TestMaclaurinOracle:
    def test_zero_mode(self):
        assert oracle_lambda_maclaurin(KernelParams(3, 2.0, 1.0), 0) == 0

    def test_agrees_with_closed_form_to_30_digits(self):
        for delta in [0.5, 1.0, 2.0]:
            for kd in [0.1, 1.0, 10.0]:
                k = kd / delta
                a = oracle_lambda_maclaurin(KernelParams(1, 0.0, delta), k)
                b = oracle_closed_form_d1_a0(delta, k)
                with mp.workprec(256):
                    assert abs((a - b) / b) < mp.mpf(10) ** -30

    def test_regression_constant(self):
        with mp.workprec(256):
            val = oracle_lambda_maclaurin(KernelParams(3, 2.0, 1.0), 6.0)
            assert abs((val - mp.mpf(LAMBDA_D3_A2_K6)) / val) < mp.mpf(10) ** -38

    @pytest.mark.parametrize("kd", [170.0, 190.0, 200.0, 2000.0])
    def test_precision_grows_with_kdelta(self, kd):
        # about kd log2(e) bits cancel in the series; 256 bits alone give an
        # error of 2e-7 at kd = 170 and 1.5e6 at kd = 200
        a = oracle_lambda_maclaurin(KernelParams(1, 0.0, 1.0), kd)
        b = oracle_closed_form_d1_a0(1.0, kd)
        with mp.workprec(256):
            assert abs((a - b) / b) < mp.mpf(10) ** -30

    def test_series_length_guard(self):
        with pytest.raises(ValueError):
            oracle_lambda_maclaurin(KernelParams(1, 0.0, 1.0), 2100.0)


class TestDrummondOracle:
    def test_terminating_is_exact(self):
        term = HypTerm2F0(-1.0, 1.0, 2.0)
        for k in [1, 3, 10]:
            assert oracle_drummond_bigfloat(term, 0, k) == mp.mpf("1.5")

    def test_matches_working_precision_at_low_order(self):
        from nlspectra import drummond_2f0_at_order

        term = HypTerm2F0(1.0, 1.0, 8.0)
        ref = oracle_drummond_bigfloat(term, 0, 5)
        got = drummond_2f0_at_order(term, 0, 5)
        assert abs((got - float(ref)) / float(ref)) <= 1e-12

    def test_high_order_is_precision_safe(self):
        # order 400 carries ~120 decimal digits of cancellation; the widened
        # working precision must absorb it
        term = HypTerm2F0(1.0, 1.0, 8.0)
        t400 = oracle_drummond_bigfloat(term, 0, 400)
        t399 = oracle_drummond_bigfloat(term, 0, 399)
        with mp.workprec(256):
            assert abs((t400 - t399) / t400) < mp.mpf(10) ** -25


class TestDenominatorPolyOracle:
    def test_guard(self):
        with pytest.raises(ValueError):
            oracle_denominator_poly(Fraction(1), Fraction(1), 6, 7)

    def test_degree_structure(self):
        coeffs = oracle_denominator_poly(Fraction(1, 2), Fraction(3), 1, 2)
        assert len(coeffs) == 5  # powers z^0..z^4
        assert coeffs[0] == 0 and coeffs[1] == 0  # lowest power is z^(n+1)


def test_oracle_calls_none_of_the_code_it_checks():
    # a reference built from the kernels would share their faults
    checked = {"_purepy", "_backend", "spectra"}
    for node in ast.walk(ast.parse(inspect.getsource(oracle))):
        if isinstance(node, ast.ImportFrom):
            names = [node.module or ""] + [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert not checked & set(name.split(".")), name

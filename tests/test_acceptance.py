"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured worst case (run with ``pytest -s`` to see them inline)."""

import math
import random
import time

from mpmath import mp

from nlbench.common import calibrate
from nlspectra import (
    BACKEND,
    HypTerm2F0,
    KernelParams,
    drummond_2f0_at_order,
    lambda_asymptotic,
    lambda_hybrid,
    lambda_maclaurin,
)
from nlspectra.cli import main as cli_main
from nlspectra.drummond import drummond_2f0
from nlspectra.oracle import (
    drummond_generic,
    oracle_closed_form_d1_a0,
    oracle_denominator_poly,
    oracle_drummond_bigfloat,
    oracle_lambda_maclaurin,
)

EPS = 2.220446049250313e-16
#: Seconds ``nlbench.common.calibrate()`` takes at the reference machine speed
#: (``PROBE_REF_S`` in ``nlbench/run.py``).
PROBE_REF_S = 0.040


def rel(got, ref):
    ref = float(ref)
    if ref == 0.0:
        return abs(float(got))
    return abs((float(got) - ref) / ref)


def report(criterion, detail):
    print(f"\nACCEPTANCE {criterion}: PASS ({detail})")


def test_c01_closed_form_regression():
    t0 = time.perf_counter()
    worst = 0.0
    for delta in [0.5, 1.0, 2.0]:
        for kd in [0.1, 1.0, 3.0, 5.99, 6.0, 10.0, 50.0, 100.0]:
            k = kd / delta
            got = lambda_hybrid(KernelParams(1, 0.0, delta), k).lam
            ref = 6.0 * math.sin(kd) / (k * delta**3) - 6.0 / delta**2
            worst = max(worst, rel(got, ref))
    assert worst <= 1e-12
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(1, f"closed-form regression, worst rel err {worst:.2e}, {dt:.2f}s")


def test_c02_oracle_sweep():
    t0 = time.perf_counter()
    kds = [10.0 ** (-1.0 + 3.0 * i / 19.0) for i in range(20)] + [6.0]
    worst_mac = (0.0, None)
    worst_asy = (0.0, None)
    for d in [1, 2, 3]:
        alphas = [0.25 * j for j in range(4 * (d + 2))]
        for alpha in alphas:
            params = KernelParams(d, alpha, 1.0)
            for kd in kds:
                ref = oracle_lambda_maclaurin(params, kd)
                if kd <= 6.0:
                    err = rel(lambda_maclaurin(params, kd).lam, ref)
                    if err > worst_mac[0]:
                        worst_mac = (err, (d, alpha, kd))
                if 6.0 <= kd <= 100.0:
                    err = rel(lambda_asymptotic(params, kd).lam, ref)
                    if err > worst_asy[0]:
                        worst_asy = (err, (d, alpha, kd))
    assert worst_mac[0] <= 1e-12, worst_mac
    assert worst_asy[0] <= 1e-11, worst_asy
    dt = time.perf_counter() - t0
    assert dt < 300.0
    report(2, f"maclaurin worst {worst_mac[0]:.2e}, asymptotic worst {worst_asy[0]:.2e}, {dt:.1f}s")


def test_c03_drummond_stability():
    t0 = time.perf_counter()
    term = HypTerm2F0(1.0, 1.0, 8.0)
    res = drummond_2f0(term, tol=10 * EPS)
    assert res.converged
    ref = oracle_drummond_bigfloat(term, 0, 400)
    err_linear = rel(res.value, ref)
    assert err_linear <= 1e-12
    worst_quad = 0.0
    terms = term.terms(17)
    for k in range(1, 16):
        a = drummond_generic(terms, 0, k)
        b = drummond_2f0_at_order(term, 0, k)
        worst_quad = max(worst_quad, abs((a - b) / b))
    assert worst_quad <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(3, f"linear vs oracle(400) {err_linear:.2e}, quad vs linear {worst_quad:.2e}, {dt:.1f}s")


def _fixed_order_literal_bracket(alpha, beta, z, n, order):
    """Recurrence variant with the bracket read as (alpha+n+k+1)^2."""
    a = 1.0
    s = 1.0
    for j in range(n):
        a = a * (alpha + j) * (beta + j) / (-z)
        s = s + a
    if order == 0:
        return s
    a = a * (alpha + n) * (beta + n) / (-z)
    d_prev = 1.0 / a
    n_prev = s * d_prev
    r = (alpha + n + 1.0) * (beta + n + 1.0)
    d_cur = -(z / r + 1.0) * d_prev
    n_cur = s * d_cur - z / r
    n_prev2 = 0.0
    d_prev2 = 0.0
    ab2n = alpha + beta + 2.0 * n
    for k in range(1, order):
        lead = (alpha + n + k + 1.0) * (beta + n + k + 1.0)
        b = z + k * (ab2n + 2.0 * k + 1.0) + (alpha + n + k + 1.0) ** 2
        c = k * (ab2n + 3.0 * k)
        e = k * (k - 1.0)
        n_new = -(b * n_cur + c * n_prev + e * n_prev2) / lead
        d_new = -(b * d_cur + c * d_prev + e * d_prev2) / lead
        n_prev2, n_prev, n_cur = n_prev, n_cur, n_new
        d_prev2, d_prev, d_cur = d_prev, d_cur, d_new
    return n_cur / d_cur


def test_c04_recurrence_bracket_gate():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    worst = 0.0
    literal_failures = 0
    for _ in range(200):
        alpha = rng.uniform(1e-3, 5.0)
        beta = rng.uniform(1e-3, 5.0)
        z = rng.uniform(2.0, 50.0)
        k = rng.randint(2, 12)
        term = HypTerm2F0(alpha, beta, z)
        ref = drummond_generic(term.terms(k + 2), 0, k)
        got = drummond_2f0_at_order(term, 0, k)
        err = abs((got - ref) / ref)
        worst = max(worst, err)
        lit = _fixed_order_literal_bracket(alpha, beta, z, 0, k)
        if abs(alpha - beta) > 1e-3 and abs((lit - ref) / ref) > 1e-9:
            literal_failures += 1
    assert worst <= 1e-9
    assert literal_failures >= 1
    dt = time.perf_counter() - t0
    assert dt < 10.0
    report(4, f"bracket gate worst {worst:.2e}, literal reading fails "
              f"{literal_failures}/200 cases, {dt:.1f}s")


def test_c05_terminating_exactness():
    from fractions import Fraction

    t0 = time.perf_counter()
    worst = 0.0
    for m in range(7):
        for beta in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            for z in [1.0, 8.0]:
                res = drummond_2f0(HypTerm2F0(float(-m), float(beta), z))
                a = Fraction(1)
                exact = Fraction(1)
                for j in range(m):
                    a = a * (j - m) * (beta + j) / Fraction(int(-z))
                    exact += a
                worst = max(worst, rel(res.value, float(exact)))
                assert res.converged and res.order <= m + 2
    assert worst <= 1e-14
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(5, f"terminating exactness worst {worst:.2e}, {dt:.2f}s")


def test_c06_removable_singularity():
    t0 = time.perf_counter()
    worst_cont = 0.0
    worst_oracle = 0.0
    for d in [1, 2, 3]:
        for kd in [6.0, 20.0]:
            lam0 = lambda_hybrid(KernelParams(d, float(d), 1.0), kd).lam
            worst_oracle = max(
                worst_oracle, rel(lam0, oracle_lambda_maclaurin(KernelParams(d, float(d), 1.0), kd))
            )
            for eps in [-1e-6, 1e-6]:
                lam1 = lambda_hybrid(KernelParams(d, d + eps, 1.0), kd).lam
                worst_cont = max(worst_cont, abs(lam1 - lam0) / abs(lam0))
    assert worst_cont <= 1e-5
    assert worst_oracle <= 1e-10
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(6, f"alpha continuity {worst_cont:.2e}, oracle err {worst_oracle:.2e}, {dt:.1f}s")


def test_c07_laplacian_limit():
    t0 = time.perf_counter()
    worst = 0.0
    k = 1e-4
    for d in [1, 2, 3]:
        for alpha in [0.5, 0.5 * d, d + 1.0]:
            lam = lambda_hybrid(KernelParams(d, alpha, 1.0), k).lam
            worst = max(worst, abs(lam / -(k * k) - 1.0))
    assert worst <= 1e-6
    dt = time.perf_counter() - t0
    assert dt < 1.0
    report(7, f"laplacian limit worst {worst:.2e}, {dt:.2f}s")


def test_c08_denominator_sign_property():
    from fractions import Fraction

    t0 = time.perf_counter()
    cases = 0
    for alpha in [Fraction(1, 2), Fraction(1), Fraction(3)]:
        for beta in [Fraction(1, 2), Fraction(1), Fraction(3)]:
            for n in range(13):
                for k in range(13 - n):
                    coeffs = oracle_denominator_poly(alpha, beta, n, k)
                    signs = {c > 0 for c in coeffs if c != 0}
                    assert len(signs) == 1, (alpha, beta, n, k)
                    cases += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0
    report(8, f"{cases} exact-rational cases all one-signed, {dt:.1f}s")


def test_c09_parallel_determinism(tmp_path):
    t0 = time.perf_counter()
    a = tmp_path / "jobs1.csv"
    b = tmp_path / "jobs8.csv"
    common = ["spectrum", "--d", "3", "--alpha", "2", "--delta", "1", "--kmax", "32"]
    assert cli_main(common + ["--out", str(a), "--jobs", "1"]) == 0
    assert cli_main(common + ["--out", str(b), "--jobs", "8"]) == 0
    assert a.read_bytes() == b.read_bytes()
    nrows = len(a.read_text().strip().split("\n")) - 1
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(9, f"jobs=1 vs jobs=8 byte-identical over {nrows} rows, {dt:.1f}s")


def test_c10_performance_bound():
    """Per-call bounds at the benchmark's reference machine speed.

    Raw means follow the load of the machine as much as the code, so they
    are scaled by the calibration probe, timed before and after, as
    ``nlbench/run.py`` scales ``wall_s``.
    """
    t0 = time.perf_counter()
    params = KernelParams(3, 2.0, 1.0)

    def mean_ns(fn, reps):
        for _ in range(min(reps, 1000)):
            fn(params, 6.0)
        start = time.perf_counter_ns()
        for _ in range(reps):
            fn(params, 6.0)
        return (time.perf_counter_ns() - start) / reps

    probe_before = calibrate()
    mac_raw = mean_ns(lambda_maclaurin, 20000)
    asy_raw = mean_ns(lambda_asymptotic, 3000)
    probe_after = calibrate()
    speed = 2 * PROBE_REF_S / (probe_before + probe_after)
    mac = mac_raw * speed
    asy = asy_raw * speed
    assert mac <= 12_000.0, f"maclaurin {mac:.0f} ns ({mac_raw:.0f} ns raw)"
    assert asy <= 400_000.0, f"asymptotic {asy:.0f} ns ({asy_raw:.0f} ns raw)"
    dt = time.perf_counter() - t0
    assert dt < 60.0
    report(10, f"maclaurin {mac / 1000.0:.2f} us, asymptotic {asy / 1000.0:.2f} us "
               f"at reference speed ({mac_raw / 1000.0:.2f}/{asy_raw / 1000.0:.2f} us raw; "
               f"bounds 12/400 us, backend={BACKEND}), {dt:.1f}s")

"""The names the benchmark's traced run wraps (``nlbench/spans.py``) must
exist in the package. A renamed kernel or layer would otherwise show up only
as zeroed per-layer metrics, and a different backend name as a refusal of
``nlbench/compare.py`` to compare runs."""

import nlspectra
from nlbench import spans
from nlspectra import KernelParams, lattice_spectrum, spectra
from nlspectra._backend import kernels


def test_every_traced_name_is_found():
    with spans.installed(spans.Tracer()) as missing:
        assert missing == []


def test_kernel_module_has_every_traced_kernel():
    for name in spans.KERNELS:
        assert callable(getattr(kernels, name)), name


def test_backend_name():
    assert nlspectra.BACKEND == "python"


def test_traced_call_is_counted_and_wrappers_removed():
    original = kernels.drummond_2f0
    tracer = spans.Tracer()
    with spans.installed(tracer):
        # looked up at call time, as the benchmark's callers do
        spectra.lambda_hybrid(KernelParams(3, 2.0, 1.0), 40.0)
    summary = tracer.summary()
    assert summary["spectra.lambda_hybrid.calls"] == 1
    # the public wrappers delegate to the evaluator, not to one another
    assert summary["spectra.lambda_asymptotic.calls"] == 0
    assert summary["kernels.bessel_j.calls"] == 1
    assert summary["kernels.drummond_2f0.calls"] == 2
    assert summary["spectra.route.asymptotic"] == 1
    assert kernels.drummond_2f0 is original


def test_lattice_kernel_counts_match_its_entries():
    # the lattice's evaluator takes the series kernel when it is built, so
    # inside the traced block it calls the traced one, even where the same
    # lattice was evaluated before the block
    params = KernelParams(2, 3.9, 0.8)
    lattice_spectrum(params, 40)
    tracer = spans.Tracer()
    with spans.installed(tracer):
        table = lattice_spectrum(params, 40)
    summary = tracer.summary()
    series = [res for res in table.entries.values() if res.method == "maclaurin"]
    asymptotic = [res for res in table.entries.values() if res.method == "asymptotic"]
    assert series and asymptotic
    assert summary["kernels.maclaurin_lambda.calls"] == len(series)
    assert summary["kernels.maclaurin_lambda.terms"] == sum(res.terms for res in series)
    assert summary["kernels.bessel_j.calls"] == len(asymptotic)

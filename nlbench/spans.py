"""Span tracing for the traced run, from wrappers around calls into each layer.

A wrapper records one span per call: an id, the id of the span that was open
when the call began (0 at the top), the layer-qualified name, and start and
end times from ``perf_counter_ns``. Spans stay in memory until the run ends.
Optional hooks add work counts (resummation orders, series terms, bytes
written) at the same boundary.

Callers bind some functions by name (``cli`` imports ``lambda_hybrid`` and
``drummond_2f0_at_order``, ``spectra`` imports ``_lommel_with_info``), so a
wrapper is installed on every ``nlspectra`` module attribute that holds the
original function, not only on the defining module. Kernels are looked up as
attributes of the backend module at call time, so wrapping that module's
attributes covers every caller.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import sys
import time
from collections import Counter, defaultdict


def _drummond_counts(counts, args, result):
    _value, order, converged, _est = result
    counts["kernels.drummond_2f0.orders"] += order
    counts["kernels.drummond_2f0.order_max"] = max(
        counts["kernels.drummond_2f0.order_max"], order
    )
    if not converged:
        counts["kernels.drummond_2f0.nonconverged"] += 1


def _maclaurin_counts(counts, args, result):
    counts["kernels.maclaurin_lambda.terms"] += result[1]


def _fixed_counts(counts, args, result):
    # drummond_2f0_fixed(alpha, beta, z, n, order): one step per order
    counts["kernels.drummond_2f0_fixed.steps"] += args[4]


def _route_counts(counts, args, result):
    counts[f"spectra.route.{result.method}"] += 1


def _lookup_counts(counts, args, result):
    # apply_to_fourier_coeffs(params, coeffs): one cache lookup per coefficient
    counts["spectra.fourier.cache_lookups"] += len(args[1])


def _bytes_counts(counts, args, result):
    # _write_rows(path, header, rows, fmt)
    counts["cli.write_rows.bytes"] += os.path.getsize(args[0])


KERNELS = (
    "drummond_2f0",
    "drummond_2f0_fixed",
    "maclaurin_lambda",
    "bessel_j",
    "gamma",
    "stable_prefactor",
)
SPECTRA = (
    "lambda_hybrid",
    "lambda_maclaurin",
    "lambda_asymptotic",
    "lattice_spectrum",
    "achievable_squared_norms",
    "apply_to_fourier_coeffs",
)
DRUMMOND = ("drummond_2f0", "drummond_2f0_at_order")

HOOKS = {
    "kernels.drummond_2f0": _drummond_counts,
    "kernels.maclaurin_lambda": _maclaurin_counts,
    "kernels.drummond_2f0_fixed": _fixed_counts,
    "spectra.lambda_hybrid": _route_counts,
    "spectra.apply_to_fourier_coeffs": _lookup_counts,
    "cli.write_rows": _bytes_counts,
}

#: Names whose ``calls`` and ``self_s`` are reported.
TIMED = (
    [f"kernels.{n}" for n in KERNELS]
    + [f"drummond.{n}" for n in DRUMMOND]
    + [f"spectra.{n}" for n in SPECTRA]
)
#: Work counts reported as they are.
COUNTS = (
    "kernels.drummond_2f0.orders",
    "kernels.drummond_2f0.order_max",
    "kernels.drummond_2f0.nonconverged",
    "kernels.maclaurin_lambda.terms",
    "kernels.drummond_2f0_fixed.steps",
    "spectra.route.maclaurin",
    "spectra.route.asymptotic",
    "spectra.route.zero",
    "cli.write_rows.bytes",
)


class Tracer:
    """Spans and counts of one traced pass; ``reset`` starts the next."""

    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.counts: Counter = Counter()
        self._stack = [0]
        self._ids = itertools.count(1)

    def reset(self) -> None:
        # in place: the wrappers hold these containers
        self.spans.clear()
        self.counts.clear()
        del self._stack[1:]

    def wrap(self, name: str, fn, hook=None):
        spans = self.spans
        counts = self.counts
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                hook(counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def summary(self) -> dict[str, float]:
        """Per-layer metrics of the spans and counts recorded since ``reset``."""
        child_ns: defaultdict[int, int] = defaultdict(int)
        name_of = {}
        for sid, parent, name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
            name_of[sid] = name
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        misses = 0
        for sid, parent, name, t0, t1 in self.spans:
            calls[name] += 1
            self_ns[name] += (t1 - t0) - child_ns[sid]
            if name == "spectra.lambda_hybrid" and (
                name_of.get(parent) == "spectra.apply_to_fourier_coeffs"
            ):
                misses += 1
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] * 1e-9
        out["cli.main.self_s"] = self_ns["cli.main"] * 1e-9
        out["cli.write_rows.self_s"] = self_ns["cli.write_rows"] * 1e-9
        for name in COUNTS:
            out[name] = self.counts[name]
        lookups = self.counts["spectra.fourier.cache_lookups"]
        out["spectra.fourier.cache_lookups"] = lookups
        out["spectra.fourier.cache_hits"] = lookups - misses
        out["spectra.fourier.cache_hit_ratio"] = (lookups - misses) / lookups if lookups else 0.0
        return out


def _targets():
    from nlspectra import cli, drummond, spectra
    from nlspectra._backend import kernels

    for name in KERNELS:
        yield f"kernels.{name}", kernels, name
    for name in DRUMMOND:
        yield f"drummond.{name}", drummond, name
    for name in SPECTRA:
        yield f"spectra.{name}", spectra, name
    yield "cli.main", cli, "main"
    yield "cli.write_rows", cli, "_write_rows"


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every traced function while the block runs; restore them after.

    Yields the span names that found no function to wrap (they report zero
    calls), so a layer renamed in the package shows up instead of failing.
    """
    modules = [
        m for key, m in sys.modules.items()
        if m is not None and (key == "nlspectra" or key.startswith("nlspectra."))
    ]
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    try:
        for span, home, attr in _targets():
            fn = getattr(home, attr, None)
            if fn is None:
                missing.append(span)
                continue
            wrapper = tracer.wrap(span, fn, HOOKS.get(span))
            # every module binding of this function object, the home included
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        saved.append((mod, key, fn))
                        setattr(mod, key, wrapper)
        yield missing
    finally:
        for mod, key, fn in reversed(saved):
            setattr(mod, key, fn)

#!/usr/bin/env python3
"""nlspectra benchmark: whole workloads, output checks, and a traced layer run.

Usage, from the root of a checkout:

    python3 nlbench/run.py --workload spectrum --seed 1 --seconds 30 --trace 0

Workloads (README.md in this directory says why each was chosen):

* ``spectrum``: two ``nlspectra spectrum --jobs 1`` commands through
  ``cli.main``; one operation is one output row.
* ``fourier``: ``spectra.apply_to_fourier_coeffs`` on every wavevector of
  {-28..28}^3; one operation is one multiplied coefficient.
* ``phase``: ``nlspectra phase --order 1000`` on a 24 x 24 grid through
  ``cli.main``; one operation is one grid point.

Each run is one process on one thread: an untimed warm-up pass, then
back-to-back passes (a closed loop) for ``--seconds``, each followed by a
short calibration probe and a fresh-interpreter set-up sample. Outputs are
checked after the timed passes against the mpmath references in
``nlspectra.oracle``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports per-layer metrics from the spans of
``spans.py``. The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the full record, with
provenance, goes to ``.nlbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import spans  # noqa: E402

OUT_DIR = os.path.join(common.ROOT, ".nlbench")

#: Stated accuracy bound for an eigenvalue (spectrum row, Fourier product),
#: relative to the reference. Measured worst case on these workloads is
#: about 3e-15; the bound leaves a factor of about 7.
LAMBDA_REL_TOL = 2e-14
#: Stated bound for T_0^(1000)(z) - 1, as an error in T relative to |T|.
#: Measured roundoff at order 1000 reaches 1.1e-11 on the checked points
#: (2.5e-12 at z = -3.2+4.1i).
PHASE_REL_TOL = 3e-11
#: ``oracle_lambda_maclaurin`` sums at a fixed 256 bits; series cancellation
#: exhausts them near k*delta = 200, so checked rows must stay below this.
ORACLE_KDELTA_MAX = 150.0
#: Relative size of the perturbation ``--perturb`` applies to one output.
PERTURBATION = 1e-9

MIN_PASSES = 3
#: Time of ``common.calibrate()`` taken as the reference machine speed:
#: about what it reads on the 2-core machine the bounds were set on when that
#: machine is quiet. ``wall_s`` and ``setup_s`` are in seconds at this speed.
PROBE_REF_S = 0.040


class Check:
    """Outcome of checking one pass's output."""

    def __init__(self):
        self.failed = 0  # operations of the pass that failed a check
        self.checked = 0  # operations compared against a reference
        self.max_rel_err = 0.0
        self.violations: int | None = None  # error above est_rel_err, if estimated
        self.notes: list[str] = []
        self.perturb = False  # scale the next nonzero checked output

    def perturbed(self, value):
        """``value``, scaled by 1 + PERTURBATION if a perturbation is pending."""
        if self.perturb and value != 0:
            self.perturb = False
            return value * (1.0 + PERTURBATION)
        return value

    def accuracy(self, err: float, bound: float, est: float | None = None) -> None:
        self.checked += 1
        if not err <= bound:
            self.failed += 1
        if err > self.max_rel_err or math.isnan(err):
            self.max_rel_err = err
        if est is not None:
            self.violations = (self.violations or 0) + (err > est)


def _file_digest(*paths: str) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def _squared_norms(d: int, kmax: int) -> list[int]:
    """Achievable |k|^2 of {-kmax..kmax}^d by plain enumeration of one orthant."""
    squares = [j * j for j in range(kmax + 1)]
    return sorted({sum(c) for c in itertools.product(squares, repeat=d)})


class Spectrum:
    """Two lattice spectra through the CLI, written to CSV and read back."""

    name = "spectrum"

    def __init__(self, rng: random.Random, smoke: bool, tmp: str):
        # Routes depend only on k*delta, so alpha moves no row across routes.
        self.lattices = [
            (3, rng.uniform(1.95, 2.05), 0.1, 12 if smoke else 64),
            # alpha near d+2; k*delta up to 45 reaches the Hankel regime of J
            (2, rng.uniform(3.85, 3.95), 0.25, 24 if smoke else 128),
        ]
        self.paths = [os.path.join(tmp, f"spectrum{i}.csv") for i in range(2)]
        self.argvs = [
            ["spectrum", "--d", str(d), "--alpha", repr(alpha), "--delta", repr(delta),
             "--kmax", str(kmax), "--out", path, "--jobs", "1"]
            for (d, alpha, delta, kmax), path in zip(self.lattices, self.paths)
        ]
        self.expected = [_squared_norms(d, kmax) for d, _, _, kmax in self.lattices]
        self.ops = sum(len(ms) for ms in self.expected)
        self.samples = 40 if smoke else 400

    def setup_code(self) -> str:
        return f"from nlspectra import cli\nargvs = {self.argvs!r}\n"

    def run_pass(self, nl) -> None:
        for argv in self.argvs:
            rc = nl.cli.main(argv)
            if rc != 0:
                raise RuntimeError(f"nlspectra {' '.join(argv)} exited with {rc}")

    def digest(self) -> str:
        return _file_digest(*self.paths)

    def check(self, nl, rng: random.Random, perturb: bool) -> Check:
        from nlspectra.oracle import oracle_lambda_maclaurin

        chk = Check()
        chk.perturb = perturb
        for (d, alpha, delta, _), path, ms in zip(self.lattices, self.paths, self.expected):
            params = nl.spectra.KernelParams(d, alpha, delta)
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            try:
                good = [int(r["m"]) for r in rows] == ms and all(
                    self._row_ok(r, d, alpha, delta) for r in rows
                )
            except (KeyError, ValueError, TypeError) as exc:
                chk.notes.append(f"{path}: unreadable row: {exc}")
                good = False
            if not good:
                chk.failed += len(ms)
                chk.notes.append(f"d={d}: rows do not match the lattice or are not finite")
                continue
            for idx in sorted(rng.sample(range(len(rows)), min(self.samples, len(rows)))):
                row = rows[idx]
                k_mod = float(row["k_mod"])
                if k_mod * delta > ORACLE_KDELTA_MAX:
                    raise common.SetupError(
                        f"k*delta={k_mod * delta:g} is beyond the oracle's range"
                    )
                lam = chk.perturbed(float(row["lambda"]))
                ref = oracle_lambda_maclaurin(params, k_mod)
                if ref == 0:
                    err = 0.0 if lam == 0.0 else math.inf
                else:
                    err = float(abs((lam - ref) / ref))
                chk.accuracy(err, LAMBDA_REL_TOL, float(row["est_rel_err"]))
        return chk

    @staticmethod
    def _row_ok(row, d, alpha, delta) -> bool:
        m = int(row["m"])
        lam = float(row["lambda"])
        est = float(row["est_rel_err"])
        return (
            int(row["d"]) == d
            and float(row["alpha"]) == alpha
            and float(row["delta"]) == delta
            and float(row["k_mod"]) == math.sqrt(m)
            and math.isfinite(lam)
            and math.isfinite(est)
            and est >= 0.0
            and row["method"] in ("maclaurin", "asymptotic", "zero")
            and int(row["terms"]) >= 0
        )


class Fourier:
    """The diagonal multiply of a full block of Fourier amplitudes."""

    name = "fourier"

    def __init__(self, rng: random.Random, smoke: bool, tmp: str):
        self.d = 3
        self.alpha = rng.uniform(1.45, 1.55)
        self.delta = 0.12  # every k*delta below 6: the Maclaurin route only
        r = 6 if smoke else 28
        keys = list(itertools.product(range(-r, r + 1), repeat=self.d))
        rng.shuffle(keys)
        self.coeffs = {k: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for k in keys}
        self.ops = len(self.coeffs)
        self.samples = 40 if smoke else 400
        self.params = None
        self.out = None

    def setup_code(self) -> str:
        return (
            "from nlspectra import spectra\n"
            f"params = spectra.KernelParams({self.d}, {self.alpha!r}, {self.delta!r})\n"
        )

    def run_pass(self, nl) -> None:
        if self.params is None:
            self.params = nl.spectra.KernelParams(self.d, self.alpha, self.delta)
        self.out = None
        self.out = nl.spectra.apply_to_fourier_coeffs(self.params, self.coeffs)

    def digest(self):
        return hash(tuple(self.out.items()))

    def check(self, nl, rng: random.Random, perturb: bool) -> Check:
        from mpmath import mp

        from nlspectra.oracle import oracle_lambda_maclaurin

        chk = Check()
        chk.perturb = perturb
        out = self.out
        bad = sum(
            1 for k in self.coeffs
            if k not in out or not (math.isfinite(out[k].real) and math.isfinite(out[k].imag))
        )
        bad += max(0, len(out) - len(self.coeffs))
        if bad:
            chk.failed += bad
            chk.notes.append(f"{bad} coefficients missing, extra or not finite")
        refs: dict[int, tuple] = {}
        keys = list(self.coeffs)
        for k in rng.sample(keys, min(self.samples, len(keys))):
            if k not in out:
                continue
            m = sum(c * c for c in k)
            if m not in refs:
                k_mod = math.sqrt(m)
                est = nl.spectra.lambda_hybrid(self.params, k_mod).est_rel_err
                refs[m] = (oracle_lambda_maclaurin(self.params, k_mod), est)
            lam_ref, est = refs[m]
            got = chk.perturbed(out[k])
            with mp.workprec(256):
                ref = mp.mpc(self.coeffs[k]) * lam_ref
                if ref == 0:
                    err = 0.0 if got == 0 else math.inf
                else:
                    err = float(abs(mp.mpc(got) - ref) / abs(ref))
            chk.accuracy(err, LAMBDA_REL_TOL, est)
        return chk


class Phase:
    """The resummation approximant over a complex grid, through the CLI."""

    name = "phase"

    def __init__(self, rng: random.Random, smoke: bool, tmp: str):
        re_min, re_max, im_min, im_max = common.PHASE_WINDOW
        self.path = os.path.join(tmp, "phase.csv")
        self.argv = [
            "phase", "--alpha", "1", "--beta", "1", "--order", str(common.PHASE_ORDER),
            "--re-min", repr(re_min), "--re-max", repr(re_max),
            "--im-min", repr(im_min), "--im-max", repr(im_max),
            "--nx", str(common.PHASE_N), "--ny", str(common.PHASE_N), "--out", self.path,
        ]
        self.ops = common.PHASE_N * common.PHASE_N
        with open(os.path.join(HERE, "phase_refs.json")) as fh:
            self.refs = json.load(fh)["points"]

    def setup_code(self) -> str:
        return f"from nlspectra import cli\nargv = {self.argv!r}\n"

    def run_pass(self, nl) -> None:
        rc = nl.cli.main(self.argv)
        if rc != 0:
            raise RuntimeError(f"nlspectra {' '.join(self.argv)} exited with {rc}")

    def digest(self) -> str:
        return _file_digest(self.path)

    def check(self, nl, rng: random.Random, perturb: bool) -> Check:
        from mpmath import mp

        chk = Check()
        chk.perturb = perturb
        res, ims = common.phase_axes()
        with open(self.path, newline="") as fh:
            rows = [[float(v) for v in r] for r in list(csv.reader(fh))[1:]]
        grid = [(re, im) for im in ims for re in res]
        if len(rows) != len(grid) or any((r[0], r[1]) != z for r, z in zip(rows, grid)):
            chk.failed = self.ops
            chk.notes.append("grid points missing or out of order")
            return chk
        bad = sum(1 for r in rows if not (math.isfinite(r[2]) and math.isfinite(r[3])))
        if bad:
            chk.failed += bad
            chk.notes.append(f"{bad} grid points not finite")
        for ref in self.refs:
            row = rows[ref["row"]]
            if (row[0], row[1]) != (float(ref["re_z"]), float(ref["im_z"])):
                raise common.SetupError(f"stored reference {ref} is not on the grid")
            got = chk.perturbed(complex(row[2], row[3]))
            with mp.workprec(256):
                t_ref = mp.mpc(ref["re_T"], ref["im_T"])
                err = float(abs(mp.mpc(got) - t_ref) / abs(t_ref + 1))
            chk.accuracy(err, PHASE_REL_TOL)
        return chk


WORKLOADS = {w.name: w for w in (Spectrum, Fourier, Phase)}


def setup_script(workload) -> str:
    """Source timing a cold import plus parameter building in a fresh interpreter."""
    src = os.path.realpath(common.SRC)
    return (
        "import sys, time\n"
        "t0 = time.perf_counter()\n"
        f"sys.path.insert(0, {src!r})\n"
        "import nlspectra\n"
        f"{workload.setup_code()}"
        "t1 = time.perf_counter()\n"
        "import os\n"
        f"if not os.path.realpath(nlspectra.__file__).startswith({src + os.sep!r}):\n"
        "    sys.exit('nlspectra imported from outside the checkout')\n"
        f"sys.path.insert(0, {HERE!r})\n"
        "import common\n"
        "print(repr(t1 - t0), repr(common.calibrate()))\n"
    )


def setup_sample(script: str) -> tuple[float, float]:
    """Set-up time in a fresh interpreter, and the probe taken there after it."""
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=common.ROOT, capture_output=True,
        text=True, timeout=60, check=False,
    )
    if proc.returncode != 0:
        raise common.SetupError(f"set-up interpreter failed: {proc.stderr.strip()}")
    setup, probe = proc.stdout.split()[-2:]
    return float(setup), float(probe)


def _git_commit() -> str | None:
    # only a repository rooted at the checkout; never search parent directories
    if not os.path.exists(os.path.join(common.ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=common.ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def _src_digest() -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(common.SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, common.SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def provenance(nl) -> dict:
    import mpmath

    return {
        "backend": getattr(nl, "BACKEND", None),
        "package_file": os.path.relpath(nl.__file__, common.ROOT),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "machine": platform.machine(),
        "commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _timed_pass(workload, nl) -> tuple[float, object]:
    """Wall time and output digest of one pass; digest None if it raised."""
    t0 = time.perf_counter()
    try:
        workload.run_pass(nl)
    except Exception:  # a failed pass is counted, not fatal
        elapsed = time.perf_counter() - t0
        traceback.print_exc()
        return elapsed, None
    elapsed = time.perf_counter() - t0
    return elapsed, workload.digest()


def run_untraced(workload, nl, seconds: float):
    """Timed passes, each followed by a calibration probe and a set-up sample.

    The probes before and after a pass measure how fast the machine ran it;
    on a shared machine that speed drifts by a quarter over minutes. Each
    set-up sample brings its own probe, taken in the same fresh interpreter.
    Spreading the set-up samples over the run, instead of taking them in one
    burst, keeps a short spell of contention from deciding ``setup_s``.
    """
    script = setup_script(workload)
    setup_sample(script)  # this one also writes the bytecode cache; not counted
    times, digests, setup, probes = [], [], [], [common.calibrate()]
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < seconds:
        dt, dig = _timed_pass(workload, nl)
        times.append(dt)
        digests.append(dig)
        probes.append(common.calibrate())
        setup.append(setup_sample(script))
    return times, digests, setup, probes


def run_traced(workload, nl, seconds: float):
    """Alternate untraced and traced passes; per-layer summaries of the traced."""
    tracer = spans.Tracer()
    plain, traced, digests, summaries = [], [], [], []
    last_spans: list = []
    missing: list[str] = []
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < seconds:
        dt, dig = _timed_pass(workload, nl)
        plain.append(dt)
        digests.append(dig)
        tracer.reset()
        with spans.installed(tracer) as missing:
            dt, dig = _timed_pass(workload, nl)
        traced.append(dt)
        digests.append(dig)
        summaries.append(tracer.summary())
        last_spans = list(tracer.spans)
    return plain, traced, digests, summaries, last_spans, missing


def layer_metrics(summaries: list[dict], plain: list[float], traced: list[float]):
    """Counts from the first traced pass, self times as medians over passes."""
    metrics = {}
    for name, value in summaries[0].items():
        if name.endswith(".self_s"):
            metrics[name] = (statistics.median(s[name] for s in summaries), "s")
        elif name.endswith("cache_hit_ratio"):
            metrics[name] = (value, "1")
        elif name.endswith(".bytes"):
            metrics[name] = (value, "B")
        else:
            metrics[name] = (value, "count")
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = (overhead, "fraction")
    counts_repeat = all(
        {k: v for k, v in s.items() if not k.endswith(".self_s")}
        == {k: v for k, v in summaries[0].items() if not k.endswith(".self_s")}
        for s in summaries
    )
    return metrics, counts_repeat


def _write_trace(path: str, span_list: list) -> None:
    t_base = span_list[0][3] if span_list else 0
    with open(path, "w") as fh:
        json.dump(
            {
                "fields": ["id", "parent", "name", "start_ns", "end_ns"],
                "spans": [[s, p, n, t0 - t_base, t1 - t_base] for s, p, n, t0, t1 in span_list],
            },
            fh,
        )
        fh.write("\n")


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs and fewer checked samples (harness self-test)")
    parser.add_argument("--perturb", action="store_true",
                        help=f"scale one checked output by 1+{PERTURBATION:g} before checking")
    args = parser.parse_args(argv)

    try:
        nl = common.import_package()
        import nlspectra.cli  # noqa: F401  (bound as nl.cli)
        import nlspectra.spectra  # noqa: F401
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    tmp = os.path.join(OUT_DIR, f"tmp-{os.getpid()}")
    os.makedirs(tmp, exist_ok=True)
    try:
        return _run(args, nl, tmp)
    except common.SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _run(args, nl, tmp: str) -> int:
    workload = WORKLOADS[args.workload](random.Random(args.seed), args.smoke, tmp)

    _, warm_digest = _timed_pass(workload, nl)
    digests = [warm_digest]
    record: dict = {}
    reported: dict = {}  # printed and recorded, but not in BENCHMARK.json
    if args.trace:
        plain, traced, digs, summaries, last_spans, missing = run_traced(
            workload, nl, args.seconds
        )
        digests += digs
        metrics, counts_repeat = layer_metrics(summaries, plain, traced)
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
        _write_trace(trace_path, last_spans)
        record.update(
            untraced_pass_s=plain, traced_pass_s=traced, counts_repeat=counts_repeat,
            unwrapped=missing, trace_file=os.path.relpath(trace_path, common.ROOT),
        )
    else:
        times, digs, setup_times, probes = run_untraced(workload, nl, args.seconds)
        digests += digs
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # times at the reference speed: a pass over the mean probe around it,
        # a set-up sample over the probe taken in its own interpreter
        scaled = [t * 2 * PROBE_REF_S / (a + b) for t, a, b in zip(times, probes, probes[1:])]
        wall = statistics.median(scaled)
        setup = statistics.median(t * PROBE_REF_S / p for t, p in setup_times)
        metrics = {
            "wall_s": (wall, "s"),
            "ops_per_s": (workload.ops / wall, "1/s"),
            "setup_s": (setup, "s"),
            "peak_rss_mb": (peak_rss_mb, "MiB"),
        }
        reported["wall_raw_s"] = (statistics.median(times), "s")
        reported["setup_raw_s"] = (statistics.median(t for t, _ in setup_times), "s")
        reported["probe_s"] = (statistics.median(probes), "s")
        record.update(pass_s=times, setup_samples_s=setup_times, calibration_s=probes)

    # Outputs are checked once, on the last pass; every other pass must have
    # produced the same output, or all its operations count as failed.
    final = digests[-1]
    chk = Check()
    if final is not None:
        chk = workload.check(nl, random.Random(f"check-{args.seed}"), args.perturb)
    else:
        chk.failed = workload.ops
        chk.notes.append("the last pass raised")
    same = sum(1 for d in digests if d is not None and d == final)
    failed = chk.failed * same + workload.ops * (len(digests) - same)
    attempted = workload.ops * len(digests)
    if same != len(digests):
        chk.notes.append(f"{len(digests) - same} passes raised or gave another output")
    viol = None if chk.violations is None else chk.violations / chk.checked
    reported["failed_frac"] = (failed / attempted, "fraction")
    reported["max_rel_err"] = (chk.max_rel_err, "1")
    reported["est_violation_frac"] = (viol, "fraction")

    prov = provenance(nl)
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, perturb=args.perturb, ops_per_pass=workload.ops,
        passes=len(digests), attempted=attempted, failed=failed,
        checked=chk.checked, est_violations=chk.violations, notes=chk.notes,
        provenance=prov,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **reported}.items()},
    )
    results = os.path.join(OUT_DIR, "results")
    os.makedirs(results, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(results, name), "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(
        f"nlbench {args.workload} seed={args.seed} trace={args.trace} "
        f"backend={prov['backend']} nproc={prov['nproc']} python={prov['python']} "
        f"mpmath={prov['mpmath']} commit={prov['commit']} src={prov['src_sha256'][:12]}"
    )
    print(f"  {len(digests)} passes x {workload.ops} operations; "
          f"{chk.checked} checked against the oracle")
    for key, (value, unit) in {**metrics, **reported}.items():
        print(f"  {key:<44} {_fmt(value):>14} {unit}")
    for note in chk.notes:
        print(f"  note: {note}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Layered benchmark for mpccert.

Run from the root of a checkout, the directory that holds ``src/`` and
``plants/``::

    python3 perfbench/run.py --workload circle-sweep --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30 --trace 0

Every workload is a closed loop in one process: the calls of a pass run
back to back, each starting when the previous one has returned.

``circle-sweep``
    ``mpccert sweep`` in-process over ``unit-circle:128`` at N = 3 with
    one worker, for alg1 to alg4 at alpha_bar 0.01 and 0.6: 8 sweeps,
    1,024 closed-loop runs.  Short plans keep the engine's own share of
    the time high, and it is the only workload that re-plans and that
    takes the exit-fallback and slack-cover paths.
``horizon-table``
    ``mpccert horizon-table`` over ``unit-circle:128`` at alpha_bar 0.01
    with two workers, once for each of the horizons 2,3,4,5,10,20: 12
    sweeps, 1,536 runs, the rows of the paper's table.  Long plans put
    the time in ``riccati``, and it is the only workload that goes
    through the process pool.
``drop-grid``
    ``value_drop_grid`` on a 101 x 101 grid for (N, m) = (3, 1), (3, 2)
    and (10, 1): 30,603 open-loop plans and no engine, certificates or
    pool.

The seed shuffles the order of the independent calls of each pass; seed 0
keeps the order above.  So every seed gives the same outputs, and every
pass is checked against the files under ``reference/``: discrete fields
exactly, floats to 1e-12 relative.  The bundled ``reference_checks()`` run
once per run, outside timing, and must pass exactly 10 of 11 with
``grid-min-realized-degree`` at 0.666827 as the one failure.

Times are host-calibrated.  Shared hosts drift in speed by up to 2x over
tens of seconds, far more than the changes the benchmark has to resolve.
So a fixed kernel of small NumPy products and Python arithmetic (see
``calibrate.py``) runs between consecutive calls, and each call's wall
time is scaled by the kernel's nominal time over the mean of its times
just before and after the call.  A reported second is a second on a host
where the kernel takes its nominal time; the raw wall time and the host
factor are printed next to each timing.  Set-up runs in fresh
interpreters (see ``setup_probe.py``), each calibrated by the kernel
right after it.

``--trace 0`` reports the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced passes at one worker and
reports per-layer metrics from the traced ones (see ``spans.py``); the
spans of the last traced pass go to ``.bench_out/spans-<workload>.npz``.

The last line of standard output is a JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output is correct, 1 when the gate fails and 2 when the
working directory is not an mpccert checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
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
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from calibrate import calibrated, calibration_seconds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join(ROOT, ".bench_out")
PLANT = os.path.join("plants", "spiral2d.txt")

WORKLOADS = ("circle-sweep", "horizon-table", "drop-grid")
SIZES = {"full": {"points": 128, "grid": 101}, "tiny": {"points": 8, "grid": 5}}
VARIANTS = ("alg1", "alg2", "alg3", "alg4")
ALPHA_BARS = ("0.01", "0.6")
HORIZONS = (2, 3, 4, 5, 10, 20)
GRID_CASES = ((3, 1), (3, 2), (10, 1))
SETUP_PROBES = 7
REL_TOL = 1e-12

END_TO_END_UNITS = {"wall_s": "s", "runs_per_s": "runs/s", "setup_s": "s", "peak_rss_mb": "MiB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".us_per_call"):
        return "us"
    if name.endswith(".bytes"):
        return "B"
    if name.endswith(("_ratio", "_frac", "_per_iteration", ".efficiency")):
        return "ratio"
    return "count"


# --------------------------------------------------------------------------
# Loading the program under test


@dataclass
class Program:
    cli: object
    sweep: object
    refchecks: object
    LqLadderSolver: type
    lq: object


def load_program() -> Program:
    """Import mpccert from ``./src`` of the working directory, or exit 2."""
    src = os.path.join(ROOT, "src")
    package = os.path.join(src, "mpccert")
    if not os.path.isfile(os.path.join(package, "__init__.py")) or not os.path.isfile(PLANT):
        print(f"error: {ROOT} is not an mpccert checkout (need src/mpccert and {PLANT})", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, src)
    cli = importlib.import_module("mpccert.cli")
    if os.path.realpath(os.path.dirname(cli.__file__)) != os.path.realpath(package):
        print(f"error: imported mpccert from {cli.__file__}, not from {package}", file=sys.stderr)
        sys.exit(2)
    from mpccert.model import load_plant
    from mpccert.riccati import LqLadderSolver

    return Program(
        cli=cli,
        # ``mpccert.sweep`` the attribute is the re-exported function.
        sweep=importlib.import_module("mpccert.sweep"),
        refchecks=importlib.import_module("mpccert.refchecks"),
        LqLadderSolver=LqLadderSolver,
        lq=load_plant(PLANT),
    )


# --------------------------------------------------------------------------
# Output comparison


def close(a: float, b: float, scale: float) -> bool:
    """Equal to ``REL_TOL`` relative to the larger value or the column scale."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= REL_TOL * max(abs(a), abs(b), scale)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    lines = read_bytes(path).decode("utf-8").splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def compare_csv(ref_path: str, out_path: str, key: str, discrete: set[str]) -> set[str] | None:
    """Keys of rows that differ; ``None`` when the tables do not line up."""
    ref_head, ref_rows = read_csv(ref_path)
    out_head, out_rows = read_csv(out_path)
    if ref_head != out_head:
        return None
    k = ref_head.index(key)
    ref_by_key = {row[k]: row for row in ref_rows}
    out_by_key = {row[k]: row for row in out_rows}
    if set(ref_by_key) != set(out_by_key) or len(out_by_key) != len(out_rows):
        return None
    scales = {}
    for c, name in enumerate(ref_head):
        if name not in discrete:
            finite = [abs(float(row[c])) for row in ref_rows if math.isfinite(float(row[c]))]
            scales[c] = max(finite, default=0.0)
    bad = set()
    for row_key, ref_row in ref_by_key.items():
        out_row = out_by_key[row_key]
        for c, (r, o) in enumerate(zip(ref_row, out_row)):
            same = r == o if c not in scales else close(float(r), float(o), scales[c])
            if not same:
                bad.add(row_key)
                break
    return bad


SUMMARY_SETS = ("failure_indices", "warned_indices")


def read_summary(path: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in read_bytes(path).decode("utf-8").splitlines())


def compare_summary(ref_path: str, out_path: str) -> set[str] | None:
    """Points whose index-set membership differs; ``None`` if anything else does."""
    ref, out = read_summary(ref_path), read_summary(out_path)
    if set(ref) != set(out):
        return None
    bad: set[str] = set()
    for key, r in ref.items():
        o = out[key]
        if key in SUMMARY_SETS:
            bad |= set(filter(None, r.split(","))) ^ set(filter(None, o.split(",")))
        elif key.startswith("alpha"):
            if not close(float(r), float(o), 0.0):
                return None
        elif r != o:
            return None
    return bad


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Job:
    """One call of a pass.  ``units`` is the runs or grid states it performs."""

    key: str
    units: int
    call: Callable[[str, int], object]


@dataclass
class Verdict:
    failed: int
    files: int
    identical: int
    problem: str | None = None


class CircleSweep:
    name = "circle-sweep"
    workers = 1
    FILES = ("sweep_points.csv", "summary.txt")

    def __init__(self, program: Program, size: dict):
        self.program = program
        self.points = size["points"]

    def jobs(self, rng: random.Random | None) -> list[Job]:
        cases = [(v, a) for v in VARIANTS for a in ALPHA_BARS]
        if rng is not None:
            rng.shuffle(cases)
        return [self._job(v, a) for v, a in cases]

    def _job(self, variant: str, alpha_bar: str) -> Job:
        key = f"{variant}-a{alpha_bar}"

        def call(out: str, workers: int):
            return self.program.cli.main(
                ["sweep", "--plant", PLANT, "--variant", variant, "--horizon", "3",
                 "--alpha-bar", alpha_bar, "--set", f"unit-circle:{self.points}",
                 "--workers", "1", "--out", os.path.join(out, key), "--no-timestamp"]
            )

        return Job(key, self.points, call)

    def check(self, job: Job, result, out: str, ref: str) -> Verdict:
        if result != 0:
            return Verdict(job.units, 2, 0, f"{job.key}: sweep exited {result!r}")
        got = [os.path.join(out, job.key, f) for f in self.FILES]
        want = [os.path.join(ref, job.key, f) for f in self.FILES]
        identical = sum(read_bytes(g) == read_bytes(w) for g, w in zip(got, want))
        rows = compare_csv(want[0], got[0], "k", {"k", "warning", "status"})
        sets = compare_summary(want[1], got[1])
        if rows is None or sets is None:
            return Verdict(job.units, 2, identical, f"{job.key}: outputs do not match the reference")
        bad = rows | sets
        return Verdict(len(bad), 2, identical, f"{job.key}: points {sorted(bad, key=int)} differ" if bad else None)

    def save(self, job: Job, result, out: str, ref: str) -> None:
        os.makedirs(os.path.join(ref, job.key), exist_ok=True)
        for f in self.FILES:
            shutil.copyfile(os.path.join(out, job.key, f), os.path.join(ref, job.key, f))


class HorizonTable:
    """One ``horizon-table`` call per horizon, so calibration can run between them."""

    name = "horizon-table"
    workers = 2
    FILE = "horizon_table.csv"

    def __init__(self, program: Program, size: dict):
        self.program = program
        self.points = size["points"]

    def jobs(self, rng: random.Random | None) -> list[Job]:
        horizons = list(HORIZONS)
        if rng is not None:
            rng.shuffle(horizons)
        return [self._job(h) for h in horizons]

    def _job(self, horizon: int) -> Job:
        key = f"N{horizon}"

        def call(out: str, workers: int):
            return self.program.cli.main(
                ["horizon-table", "--plant", PLANT, "--set", f"unit-circle:{self.points}",
                 "--horizons", str(horizon), "--alpha-bar", "0.01", "--workers", str(workers),
                 "--out", os.path.join(out, key), "--no-timestamp"]
            )

        return Job(key, 2 * self.points, call)

    def check(self, job: Job, result, out: str, ref: str) -> Verdict:
        if result != 0:
            return Verdict(job.units, 1, 0, f"{job.key}: horizon-table exited {result!r}")
        got, want = os.path.join(out, job.key, self.FILE), os.path.join(ref, job.key, self.FILE)
        identical = int(read_bytes(got) == read_bytes(want))
        bad = compare_csv(want, got, "N", {"N"})
        if bad is None or bad:
            return Verdict(job.units, 1, identical, f"{job.key}: row does not match the reference")
        return Verdict(0, 1, identical)

    def save(self, job: Job, result, out: str, ref: str) -> None:
        os.makedirs(os.path.join(ref, job.key), exist_ok=True)
        shutil.copyfile(os.path.join(out, job.key, self.FILE), os.path.join(ref, job.key, self.FILE))


class DropGrid:
    name = "drop-grid"
    workers = 1

    def __init__(self, program: Program, size: dict):
        self.program = program
        self.n = size["grid"]

    def jobs(self, rng: random.Random | None) -> list[Job]:
        cases = list(GRID_CASES)
        if rng is not None:
            rng.shuffle(cases)
        return [self._job(h, m) for h, m in cases]

    def _job(self, horizon: int, m: int) -> Job:
        program = self.program

        def call(out: str, workers: int):
            solver = program.LqLadderSolver(program.lq, horizon)
            return program.sweep.value_drop_grid(solver, horizon, m, n=self.n)[1]

        return Job(f"N{horizon}-m{m}", self.n * self.n, call)

    @staticmethod
    def _npy(drops) -> bytes:
        buf = io.BytesIO()
        np.save(buf, drops)
        return buf.getvalue()

    def check(self, job: Job, result, out: str, ref: str) -> Verdict:
        path = os.path.join(ref, job.key + ".npy")
        want = np.load(path)
        if not isinstance(result, np.ndarray) or result.shape != want.shape:
            return Verdict(job.units, 1, 0, f"{job.key}: result is not a {want.shape} array")
        identical = int(read_bytes(path) == self._npy(result))
        scale = float(np.max(np.abs(want)))
        value_ok = np.isclose(result, want, rtol=REL_TOL, atol=REL_TOL * scale, equal_nan=True)
        sign_ok = (result < 0) == (want < 0)
        failed = int(np.sum(~(value_ok & sign_ok)))
        return Verdict(failed, 1, identical, f"{job.key}: {failed} grid states differ" if failed else None)

    def save(self, job: Job, result, out: str, ref: str) -> None:
        os.makedirs(ref, exist_ok=True)
        with open(os.path.join(ref, job.key + ".npy"), "wb") as fh:
            fh.write(self._npy(result))


WORKLOAD_TYPES = {w.name: w for w in (CircleSweep, HorizonTable, DropGrid)}


# --------------------------------------------------------------------------
# Passes and the correctness gate


@dataclass
class Gate:
    reference: str
    attempted: int = 0
    failed: int = 0
    files: int = 0
    identical: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, units: int, verdict: Verdict) -> None:
        self.attempted += units
        self.failed += min(units, verdict.failed)
        self.files += verdict.files
        self.identical += verdict.identical
        if verdict.problem and len(self.problems) < 5:
            self.problems.append(verdict.problem)


class _Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


@dataclass
class PassTime:
    raw: float  # wall seconds spent in the calls
    calibrated: float  # the same, on a host of nominal speed

    @property
    def host_factor(self) -> float:
        return self.calibrated / self.raw


def run_pass(workload, rng, out: str, workers: int, gate: Gate) -> PassTime:
    """Run one pass with calibration between its calls, then check its outputs."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    jobs = workload.jobs(rng)
    results = []
    raw = scaled = 0.0
    cal_before = calibration_seconds()
    with contextlib.redirect_stdout(_Discard()):
        for job in jobs:
            start = time.perf_counter()
            try:
                results.append(job.call(out, workers))
            except Exception:  # a crash in the program fails this call, not the run
                results.append(traceback.format_exc(limit=3))
            elapsed = time.perf_counter() - start
            cal_after = calibration_seconds()
            raw += elapsed
            scaled += calibrated(elapsed, cal_before, cal_after)
            cal_before = cal_after
    for job, result in zip(jobs, results):
        if isinstance(result, str):
            gate.record(job.units, Verdict(job.units, 0, 0, f"{job.key} raised: {result}"))
            continue
        try:
            verdict = workload.check(job, result, out, gate.reference)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            verdict = Verdict(job.units, 0, 0, f"{job.key}: cannot compare outputs: {exc!r}")
        gate.record(job.units, verdict)
    return PassTime(raw, scaled)


def reference_checks_gate(program: Program) -> tuple[bool, str]:
    results = program.refchecks.reference_checks()
    failing = [r for r in results if not r.passed]
    ok = (
        len(results) == 11
        and len(failing) == 1
        and failing[0].name == "grid-min-realized-degree"
        and "computed 0.666827" in failing[0].detail
    )
    names = ", ".join(f"{r.name} ({r.detail})" for r in failing)
    return ok, f"{len(results) - len(failing)} of {len(results)} passed; failing: {names}"


# --------------------------------------------------------------------------
# Measurement


def spread(values: list[float], what: str) -> str:
    """``median of k <what>, IQR/median r`` for a list of samples."""
    if len(values) < 2:
        return f"{what}: {len(values)}"
    q1, med, q3 = statistics.quantiles(values, n=4)
    ratio = (q3 - q1) / abs(med) if med else 0.0
    return f"median of {len(values)} {what}, IQR/median {ratio:.3f}"


def setup_seconds(workload_name: str) -> list[PassTime]:
    """Set-up times of fresh interpreters; the first, which compiles, is dropped."""
    module, horizons = {
        "circle-sweep": ("mpccert.cli", [3]),
        "horizon-table": ("mpccert.cli", list(HORIZONS)),
        "drop-grid": ("mpccert", [h for h, _ in GRID_CASES]),
    }[workload_name]
    cmd = [sys.executable, os.path.join(HERE, "setup_probe.py"), module, *map(str, horizons)]
    times = []
    for _ in range(SETUP_PROBES + 1):
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
        raw, scaled = map(float, proc.stdout.split()[-2:])
        times.append(PassTime(raw, scaled))
    return times[1:]


def peak_rss_mib() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def timing_note(times: list[PassTime], what: str) -> str:
    raw = statistics.median(t.raw for t in times)
    factor = statistics.median(t.host_factor for t in times)
    return f"{spread([t.calibrated for t in times], what)}; raw median {raw:.4g} s, host factor {factor:.3f}"


def untraced_run(workload, rng, out, gate, seconds, units):
    passes: list[PassTime] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(run_pass(workload, rng, out, workload.workers, gate))
    rates = [units / p.calibrated for p in passes]
    rss = peak_rss_mib()  # before the set-up probes and reference checks add to it
    setups = setup_seconds(workload.name)
    metrics = {
        "wall_s": statistics.median(p.calibrated for p in passes),
        "runs_per_s": statistics.median(rates),
        "setup_s": statistics.median(s.calibrated for s in setups),
        "peak_rss_mb": rss,
    }
    notes = {
        "wall_s": timing_note(passes, "passes"),
        "runs_per_s": f"{units} runs per pass; {spread(rates, 'passes')}",
        "setup_s": timing_note(setups, "fresh interpreters"),
        "peak_rss_mb": "whole run, pool children included",
    }
    return metrics, notes


def traced_run(workload, rng, out, gate, seconds):
    from spans import SpanRecorder

    recorder = SpanRecorder()
    pooled = workload.name == "horizon-table"
    plain, two_workers, traced, layers = [], [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(run_pass(workload, rng, out, 1, gate))
        if pooled:
            two_workers.append(run_pass(workload, rng, out, 2, gate))
        recorder.reset()
        with recorder:
            traced.append(run_pass(workload, rng, out, 1, gate))
        # Layer times are scaled by the same host factor as the pass.
        factor = traced[-1].host_factor
        layers.append(
            {name: value * factor if layer_unit(name) in ("s", "us") else value
             for name, value in recorder.layer_metrics().items()}
        )
    os.makedirs(OUT, exist_ok=True)
    recorder.save(os.path.join(OUT, f"spans-{workload.name}.npz"))

    metrics = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    notes = {
        name: spread([layer[name] for layer in layers], "traced passes")
        for name in metrics
        if layer_unit(name) in ("s", "us")
    }
    one = statistics.median(p.calibrated for p in plain)
    if pooled:
        two = statistics.median(p.calibrated for p in two_workers)
        metrics["sweep.pool.efficiency"] = one / (2 * two)
        notes["sweep.pool.efficiency"] = f"one-worker pass {one:.4g} s / (2 x two-worker pass {two:.4g} s)"
    else:
        metrics["sweep.pool.efficiency"] = 0.0
        notes["sweep.pool.efficiency"] = "no process pool on this workload"
    with_spans = statistics.median(p.calibrated for p in traced)
    metrics["trace.overhead_frac"] = with_spans / one - 1.0
    notes["trace.overhead_frac"] = (
        f"traced {with_spans:.4g} s vs untraced {one:.4g} s per one-worker pass, {len(traced)} of each"
    )
    return metrics, notes


# --------------------------------------------------------------------------
# Entry points


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args, size: str) -> str:
    return (
        f"env: python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {os.cpu_count()}, cpu {cpu_model()!r}; workload {args.workload}, "
        f"seed {args.seed}, seconds {args.seconds}, trace {args.trace}, size {size}"
    )


def write_reference(workload, out: str, reference: str) -> int:
    gate = Gate(reference)
    os.makedirs(out)
    jobs = workload.jobs(None)
    with contextlib.redirect_stdout(_Discard()):
        results = [job.call(out, workload.workers) for job in jobs]
    for job, result in zip(jobs, results):
        workload.save(job, result, out, reference)
        gate.record(job.units, workload.check(job, result, out, reference))
    print(f"wrote {gate.files} files to {reference}")
    return 0 if gate.failed == 0 else 1


def run_one(args) -> int:
    program = load_program()
    size = "tiny" if args.tiny else "full"
    workload = WORKLOAD_TYPES[args.workload](program, SIZES[size])
    reference = args.reference or os.path.join(HERE, "reference", size, workload.name)
    out = os.path.join(OUT, f"run-{os.getpid()}")
    print(environment(args, size))

    gate = Gate(reference)
    rng = None if args.seed == 0 else random.Random(args.seed)
    units = sum(job.units for job in workload.jobs(None))
    try:
        if args.write_reference:
            return write_reference(workload, out, reference)
        if args.trace:
            metrics, notes = traced_run(workload, rng, out, gate, args.seconds)
        else:
            metrics, notes = untraced_run(workload, rng, out, gate, args.seconds, units)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    checks_ok, checks_text = reference_checks_gate(program)

    correct = checks_ok and gate.failed == 0 and gate.attempted > 0
    print(f"gate: reference_checks {checks_text}: {'ok' if checks_ok else 'WRONG'}")
    print(
        f"gate: {gate.attempted} runs or grid states checked, {gate.failed} failed; "
        f"{gate.identical} of {gate.files} output files byte-identical to {os.path.relpath(gate.reference, ROOT)}"
    )
    for problem in gate.problems:
        print(f"gate: {problem}")
    units_of = END_TO_END_UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units_of[name]}  ({notes.get(name, 'count per pass')})")
    if not args.trace:
        failed_frac = gate.failed / gate.attempted if gate.attempted else 1.0
        print(f"failed_frac = {failed_frac:.6g} ratio  (runs or grid states that failed the gate)")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": gate.attempted,
                "failed": gate.failed,
                "metrics": {name: {"value": value, "unit": units_of[name]} for name, value in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own interpreter, with one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        cmd += ["--tiny"] if args.tiny else []
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(proc.stdout, end="")
            return proc.returncode or 1
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="Layered benchmark for mpccert; run from a checkout's root.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0, help="shuffles call order; 0 keeps the paper's order")
    parser.add_argument("--seconds", type=int, default=30, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--tiny", action="store_true", help="unit-circle:8 and a 5x5 grid, for smoke tests")
    parser.add_argument("--reference", default=None, help="reference directory to compare against")
    parser.add_argument(
        "--write-reference", action="store_true", help="write one seed-0 pass's outputs as the reference"
    )
    args = parser.parse_args(argv)
    if args.seconds < 1 or args.seed < 0:
        parser.error("--seconds must be at least 1 and --seed nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

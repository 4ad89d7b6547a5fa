"""``tools/bench_pairs.py`` judges each end-to-end metric by the spread of the parent's runs.

The tool is a script, not a module of the package, so it is loaded by
path, and ``summary`` gets synthetic runs.  ``tools/inproc_pairs.py``
runs as a child process at perfbench's smoke-test sizes, and
``tools/engine_share.py`` at its own.
"""

import importlib.util
import io
import random
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from mpccert.refchecks import reference_instance

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.22}
RATE = {"name": "runs_per_s", "unit": "runs/s", "better": "higher", "bound": 0.22}


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(values, key="w/wall_s"):
    return [{"metrics": {key: {"value": v}}} for v in values]


@pytest.mark.parametrize(
    "metric,parent,change,flags",
    (
        # A tight parent: judged by the bound alone.
        (WALL, [1.0, 1.01, 0.99, 1.0], [1.05, 1.04, 1.06, 1.05], ""),
        (WALL, [1.0, 1.01, 0.99, 1.0], [1.3, 1.31, 1.29, 1.3], "  PAST BOUND"),
        (RATE, [1.0, 1.01, 0.99, 1.0], [0.7, 0.71, 0.69, 0.7], "  PAST BOUND"),
        # IQR/median 0.6 against a bound of 0.22: too wide to tell.
        (WALL, [0.6, 0.8, 1.2, 1.4], [1.0, 0.9, 1.1, 1.0], "  UNRESOLVED"),
        (WALL, [0.6, 0.8, 1.2, 1.4], [1.5, 1.6, 1.4, 1.5], "  PAST BOUND  UNRESOLVED"),
        (RATE, [0.6, 0.8, 1.2, 1.4], [1.0, 0.9, 1.1, 1.0], "  UNRESOLVED"),
        # ... unless every run of the change beats every run of the parent.
        (WALL, [0.6, 0.8, 1.2, 1.4], [0.5, 0.55, 0.45, 0.5], ""),
        (RATE, [0.6, 0.8, 1.2, 1.4], [1.5, 1.6, 1.45, 1.5], ""),
    ),
)
def test_summary_flags_wide_parent_spread_as_unresolved(bench_pairs, metric, parent, change, flags):
    line = bench_pairs.summary(metric, "w/wall_s", _runs(parent), _runs(change))
    assert line.startswith("w/wall_s: parent ")
    assert line[line.index("parent IQR/median") :].split("%", 1)[1] == flags


def test_inproc_pairs_prints_one_line_per_workload():
    # One tree against itself, at perfbench's smoke-test sizes: each tree
    # loads under its own package name, and every workload gets a ratio,
    # its quartiles, a win count over the pairs and each tree's median
    # minor page faults per pass.
    root = TOOL.parent.parent
    tool = root / "tools" / "inproc_pairs.py"
    proc = subprocess.run(
        [sys.executable, str(tool), str(root), str(root), "--pairs", "3", "--tiny"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["circle-sweep", "horizon-table", "drop-grid"]
    number = r"\d+\.\d{3}"
    for line in lines:
        assert re.fullmatch(
            rf"[a-z-]+: change/parent {number} \(IQR {number}-{number}\), change faster in [0-3] of 3;"
            r" minor faults per pass parent \d+\.\d, change \d+\.\d",
            line,
        )


def test_inproc_pairs_fresh_plant_gives_every_pass_a_new_copy():
    # perfbench keeps one plant per tree; --fresh-plant swaps in an equal
    # new one before each pass, so nothing kept on the plant outlives it.
    spec = importlib.util.spec_from_file_location("inproc_pairs", TOOL.parent / "inproc_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    seen = []

    class Workload:
        workers = 1
        program = types.SimpleNamespace(lq=reference_instance())

        def jobs(self, rng):
            return [types.SimpleNamespace(call=lambda out, workers: seen.append(self.program.lq))] * 2

    run, workload = types.SimpleNamespace(_Discard=io.StringIO), Workload()
    first = workload.program.lq
    for fresh in (False, True, True):
        tool.timed_pair(run, {"parent": workload}, "", random.Random(0), fresh)
    assert seen[:2] == [first] * 2 and seen[2] is seen[3] and seen[4] is seen[5]
    assert len({id(lq) for lq in seen}) == 3 and all(np.array_equal(lq.A, first.A) for lq in seen)


def test_engine_share_prints_one_line_per_batch():
    # The tool's smoke-test size on this tree: each batch gets its
    # run_blocks time, its plan-step calls, time and share, its
    # iterations and the time per iteration besides the plan steps.
    root = TOOL.parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "tools" / "engine_share.py"), str(root), "--tiny"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["circle-sweep", "horizon-table N=3", "horizon-table N=10"]
    ms = r"\d+\.\d\d ms"
    for line in lines:
        assert re.fullmatch(
            rf"[a-z-]+( N=\d+)?: run_blocks {ms} \(best of 3\), \d+ plan steps {ms} \(\d+ %\), "
            rf"\d+ iterations, -?\d+ us per iteration besides plan steps",
            line,
        ), line

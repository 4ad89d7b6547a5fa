"""``tools/bench_pairs.py`` judges each end-to-end metric by the spread of the parent's runs.

The tool is a script, not a module of the package, so it is loaded by
path, and ``summary`` gets synthetic runs.  ``tools/inproc_pairs.py``
runs as a child process at perfbench's smoke-test sizes.
"""

import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
    # its quartiles and a win count over the pairs.
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
        assert re.fullmatch(rf"[a-z-]+: change/parent {number} \(IQR {number}-{number}\), change faster in [0-3] of 3", line)

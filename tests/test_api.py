"""The package's public names: ``mpccert.__all__`` lists what it exports.

The namespace is lazy, so what a caller loads depends on what it touched
before; the tests that check that run in fresh interpreters.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mpccert

SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh(code: str) -> str:
    """Standard output of ``code`` run in a fresh interpreter with ``src`` first on the path."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    return proc.stdout


def test_src_loads_only_numpy_and_the_standard_library():
    # SciPy and Hypothesis are installed for the tests, so an import of
    # either from src would pass every other test here.
    code = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import mpccert.cli, mpccert.refchecks
from mpccert.engine import AlgorithmConfig
from mpccert.riccati import LqLadderSolver
from mpccert.sweep import sweep, unit_circle
solver = LqLadderSolver(mpccert.refchecks.reference_instance(), 3)
sweep(solver, unit_circle(8), AlgorithmConfig("alg4", 3, 0.01))
mpccert.refchecks.reference_checks()
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(sorted(loaded - set(sys.stdlib_module_names) - {"numpy", "mpccert"}))
"""
    assert _fresh(code).strip() == "[]"


def test_every_exported_name_resolves_once():
    names = mpccert.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(mpccert, name), f"mpccert.{name} is listed in __all__ but gone"
    namespace: dict = {}
    exec("from mpccert import *", namespace)
    assert set(names) <= set(namespace)


def test_planner_path_loads_only_the_planner():
    out = _fresh(
        "import sys\n"
        "from mpccert import load_plant, LqLadderSolver, LqBellmanSolver, value_drop_grid\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'mpccert')))\n"
    )
    assert out.split() == ["mpccert", "mpccert.errors", "mpccert.model", "mpccert.riccati"]


@pytest.mark.parametrize(
    "load", ["import mpccert.cli", "import importlib; importlib.import_module('mpccert.sweep')"]
)
def test_sweep_stays_the_function_after_its_module_loads(load):
    out = _fresh(
        f"import mpccert, types\n{load}\n"
        "from mpccert import sweep\n"
        "print(mpccert.sweep is sweep, isinstance(sweep, types.FunctionType), sweep.__name__)\n"
    )
    assert out.split() == ["True", "True", "sweep"]


def test_dir_lists_every_exported_name_before_any_load():
    out = _fresh("import mpccert\nprint(set(dir(mpccert)) >= set(mpccert.__all__))\n")
    assert out.split() == ["True"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        mpccert.no_such_name
    with pytest.raises(ImportError):
        exec("from mpccert import no_such_name", {})

"""The names the benchmark tracer wraps must exist in the package.

``perfbench/spans.py`` replaces functions and methods of the ``mpccert``
modules by name, from outside the package.  A rename inside ``src/``
would break the benchmark's traced passes without failing any other
test, so this module loads the tracer (without changing it) and checks
every name it wraps.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from mpccert.engine import AlgorithmConfig, ClosedLoopTrace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(spans):
    assert spans.TARGETS
    for name, module_name, cls_name, attr in spans.TARGETS:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
            assert attr in owner.__dict__, f"{name}: {module_name}.{cls_name}.{attr} is gone"
        else:
            assert callable(getattr(owner, attr, None)), f"{name}: {module_name}.{attr} is gone"


def test_traced_run_entry_point_returns_a_trace(spans, model, solver):
    # The span wrapper around ``mpccert.sweep.run_closed_loop`` reads the
    # trace's iteration count, applied costs, certificates and windows.
    run = importlib.import_module("mpccert.sweep").run_closed_loop
    trace = run(model, solver, np.array([0.0, 1.0]), AlgorithmConfig("alg2", 3, 0.5))
    assert isinstance(trace, ClosedLoopTrace)
    assert trace.iterations == len(trace.windows) > 0
    assert sum(w.closes for w in trace.windows) >= 0
    assert len(trace.applied_costs) > 0 and trace.certificates


def test_recorder_wraps_and_restores(spans):
    cli, engine, sweep = (
        importlib.import_module(f"mpccert.{name}") for name in ("cli", "engine", "sweep")
    )
    before = (sweep.run_closed_loop, engine.update_acceptable, cli.sweep)
    with spans.SpanRecorder() as recorder:
        assert sweep.run_closed_loop is not before[0]
        assert engine.update_acceptable is not before[1]
        assert cli.sweep is not before[2]
    assert (sweep.run_closed_loop, engine.update_acceptable, cli.sweep) == before
    assert "riccati.solve.calls" in recorder.layer_metrics()

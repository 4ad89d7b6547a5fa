"""The bundled reference checks: batched helpers against their one-state form."""

import importlib

import numpy as np

from mpccert.errors import MpcCertError
from mpccert.refchecks import reference_checks, two_step_values


def _two_step_oracle(solver, x, horizon=3):
    """Two-step degrees from one state through scalar ``solve``/``value_of`` calls."""
    sol = solver.solve(x, horizon)
    v_held = solver.value_of(sol.trajectory[2], horizon)
    alpha_held = (sol.value - v_held) / float(sol.stage_costs[0] + sol.stage_costs[1])
    sol2 = solver.solve(sol.trajectory[1], horizon)
    v_replanned = solver.value_of(sol2.trajectory[1], horizon)
    alpha_replanned = (sol.value - v_replanned) / float(sol.stage_costs[0] + sol2.stage_costs[0])
    return v_held, alpha_held, v_replanned, alpha_replanned


def test_two_step_values_batch_matches_one_state_calls(solver, grid):
    batch = two_step_values(solver, grid.points)
    assert all(column.shape == (len(grid),) for column in batch)
    for i, x in enumerate(grid.points):
        single = two_step_values(solver, x)
        assert all(isinstance(v, float) for v in single)
        assert single == _two_step_oracle(solver, x) == tuple(float(column[i]) for column in batch)


def test_reference_checks_run_one_closed_loop_batch(monkeypatch):
    refchecks = importlib.import_module("mpccert.refchecks")
    sweep_module = importlib.import_module("mpccert.sweep")
    calls = {"refchecks": 0, "sweep": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(refchecks, "run_batch", counted("refchecks", refchecks.run_batch))
    monkeypatch.setattr(sweep_module, "run_batch", counted("sweep", sweep_module.run_batch))
    results = reference_checks()
    assert calls == {"refchecks": 1, "sweep": 0}
    failing = [r for r in results if not r.passed]
    assert len(results) == 11 and [r.name for r in failing] == ["grid-min-realized-degree"]
    assert "computed 0.666827" in failing[0].detail
    details = {r.name: r.detail for r in results}
    assert details["zero-threshold-standard-mpc"] == "128/128 single-step schedules, 128/128 converged"
    assert details["startup-failure-set"] == "44 of 128 points below threshold 0.01 at startup"


def test_reference_checks_fall_back_to_sweeps_when_the_batch_fails(monkeypatch):
    # A run error in the mixed batch sends the two threshold experiments
    # through sweeps, which isolate errors per point; with no point
    # actually failing, every result is the same as from the one batch.
    refchecks = importlib.import_module("mpccert.refchecks")
    expected = reference_checks()
    run_batch = refchecks.run_batch

    def failing_mixed_batch(solver, X0, config, **kwargs):
        if len(X0) > refchecks.GRID_POINTS:
            raise MpcCertError("injected")
        return run_batch(solver, X0, config, **kwargs)

    monkeypatch.setattr(refchecks, "run_batch", failing_mixed_batch)
    assert reference_checks() == expected

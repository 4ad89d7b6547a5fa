"""The bundled reference checks: batched helpers against their one-state form."""

import importlib

import numpy as np

from mpccert.engine import _Lockstep
from mpccert.errors import MpcCertError, SolverError
from mpccert.refchecks import GRID_POINTS, reference_checks, two_step_values


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


def _counted_run_batch(monkeypatch):
    """A list that gains one entry, the row count, per ``run_batch`` call made through :mod:`mpccert.sweep`."""
    sweep_module = importlib.import_module("mpccert.sweep")
    run_batch = sweep_module.run_batch
    sizes = []

    def counted(solver, X0, *args, **kwargs):
        sizes.append(len(X0))
        return run_batch(solver, X0, *args, **kwargs)

    monkeypatch.setattr(sweep_module, "run_batch", counted)
    return sizes


def test_reference_checks_run_one_closed_loop_batch(monkeypatch):
    sizes = _counted_run_batch(monkeypatch)
    results = reference_checks()
    assert sizes == [3 * GRID_POINTS]
    assert not hasattr(importlib.import_module("mpccert.refchecks"), "run_batch")
    failing = [r for r in results if not r.passed]
    assert len(results) == 11 and [r.name for r in failing] == ["grid-min-realized-degree"]
    assert "computed 0.666827" in failing[0].detail
    details = {r.name: r.detail for r in results}
    assert details["zero-threshold-standard-mpc"] == "128/128 single-step schedules, 128/128 converged"
    assert details["startup-failure-set"] == "44 of 128 points below threshold 0.01 at startup"


def test_reference_checks_failing_batch_is_bisected(monkeypatch):
    # A run error in the mixed batch splits it, as in a sweep; with no
    # point actually failing, every result is the same as from the one batch.
    sweep_module = importlib.import_module("mpccert.sweep")
    expected = reference_checks()
    run_batch = sweep_module.run_batch

    def failing_mixed_batch(solver, X0, config, **kwargs):
        if len(X0) > GRID_POINTS:
            raise MpcCertError("injected")
        return run_batch(solver, X0, config, **kwargs)

    monkeypatch.setattr(sweep_module, "run_batch", failing_mixed_batch)
    assert reference_checks() == expected


def test_a_failing_point_is_an_error_row_of_each_closed_loop_check(monkeypatch):
    # Every batch that holds the circle's last point, (1, 0), fails; the
    # point becomes one error row per block instead of aborting the bundle.
    clean = {r.name: r for r in reference_checks()}
    run = _Lockstep.run
    failed = []

    def failing_run(self):
        if np.isclose(self.x0, [1.0, 0.0], rtol=0.0, atol=1e-12).all(axis=1).any():
            failed.append(len(self.x0))
            raise SolverError("injected at (1, 0)")
        return run(self)

    monkeypatch.setattr(_Lockstep, "run", failing_run)
    sizes = _counted_run_batch(monkeypatch)
    results = reference_checks()
    # Three error rows, one per block, each isolated by halving.
    assert len(sizes) == 47 and failed.count(1) == 3
    assert [r.name for r in results] == list(clean)
    failing = [r.name for r in results if not r.passed]
    assert failing == ["zero-threshold-standard-mpc", "grid-min-realized-degree"]
    for r in results:
        if r.name == "zero-threshold-standard-mpc":
            assert r.detail == "127/128 single-step schedules, 127/128 converged"
        else:
            assert r == clean[r.name]
    details = {r.name: r.detail for r in results}
    assert details["startup-failure-set"] == "44 of 128 points below threshold 0.01 at startup"
    assert "computed 0.666827" in details["grid-min-realized-degree"]

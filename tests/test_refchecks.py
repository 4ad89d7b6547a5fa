"""The bundled reference checks: batched helpers against their one-state form."""

import importlib
import sys

from mpccert.errors import MpcCertError
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


def test_reference_checks_run_one_closed_loop_batch(engine_calls):
    results = reference_checks()
    assert engine_calls == [3 * GRID_POINTS]
    refchecks = importlib.import_module("mpccert.refchecks")
    assert not hasattr(refchecks, "run_batch") and not hasattr(refchecks, "run_rows")
    failing = [r for r in results if not r.passed]
    assert len(results) == 11 and [r.name for r in failing] == ["grid-min-realized-degree"]
    assert "computed 0.666827" in failing[0].detail
    details = {r.name: r.detail for r in results}
    assert details["zero-threshold-standard-mpc"] == "128/128 single-step schedules, 128/128 converged"
    assert details["startup-failure-set"] == "44 of 128 points below threshold 0.01 at startup"


def test_reference_checks_whole_batch_error_makes_every_closed_loop_row_an_error_row(monkeypatch):
    # An error of the whole mixed batch, after its one engine run, leaves
    # every closed-loop row an error row: in no count, set or minimum.
    expected = reference_checks()
    sizes = []

    def failing_run_rows(solver, X0, *args, **kwargs):
        sizes.append(len(X0))
        raise MpcCertError("injected")

    monkeypatch.setattr(sys.modules["mpccert.sweep"], "run_rows", failing_run_rows)
    results = reference_checks()
    assert sizes == [3 * GRID_POINTS]
    closed_loop = {
        "zero-threshold-standard-mpc": "0/128 single-step schedules, 0/128 converged",
        "startup-failure-set": "0 of 128 points below threshold 0.01 at startup",
        "grid-min-realized-degree": "computed nan, reference 0.52307 within 0.001",
        "warning-set-coincidence": "startup failure set has 0 points, warning set 0; identical",
    }
    for r, clean in zip(results, expected):
        assert r.name == clean.name
        if r.name in closed_loop:
            assert not r.passed and r.detail == closed_loop[r.name]
        else:
            assert r == clean


def test_a_failing_point_is_an_error_row_of_each_closed_loop_check(monkeypatch, engine_calls):
    # The closed-loop runs see the circle with its last point, (1, 0),
    # moved to (1e160, 0), whose value overflows: one error row per block
    # of the one engine run, instead of an aborted bundle.
    refchecks = importlib.import_module("mpccert.refchecks")
    clean = {r.name: r for r in reference_checks()}
    engine_calls.clear()
    run_blocks = refchecks.run_blocks

    def faulty_grid(solver, points, configs):
        points = points.copy()
        points[-1] = [1e160, 0.0]
        return run_blocks(solver, points, configs)

    monkeypatch.setattr(refchecks, "run_blocks", faulty_grid)
    results = reference_checks()
    assert engine_calls == [3 * GRID_POINTS]
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

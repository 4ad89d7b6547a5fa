import filecmp
import importlib

import numpy as np
import pytest

from mpccert.engine import AlgorithmConfig
from mpccert.errors import ConfigError, SolverError
from mpccert.model import LinearQuadraticInstance
from mpccert.riccati import LqLadderSolver
from mpccert.sweep import (
    InitialSet,
    SweepReport,
    _evaluate_point,
    failure_set,
    horizon_comparison,
    parse_initial_set,
    sweep,
    unit_circle,
    value_drop_grid,
    write_horizon_csv,
    write_sweep_csv,
)

# Startup indices (1-based) whose first-window one-step degree sits
# below 0.01 on the 128-point circle with a three-step horizon: two
# symmetric arcs.
ARC_INDICES = tuple(range(5, 27)) + tuple(range(69, 91))


def _cfg(variant, alpha_bar, horizon=3, **kw):
    return AlgorithmConfig(variant=variant, horizon=horizon, alpha_bar=alpha_bar, **kw)


def test_unit_circle_layout():
    grid = unit_circle(128)
    assert grid.name == "unit-circle:128"
    assert grid.points.shape == (128, 2)
    radii = np.linalg.norm(grid.points, axis=1)
    assert np.allclose(radii, 1.0, atol=1e-15)
    k = 32
    angle = 2.0 * np.pi * k / 128.0
    assert np.allclose(grid.points[k - 1], [np.cos(angle), np.sin(angle)], atol=1e-15)
    assert np.allclose(grid.points[-1], [1.0, 0.0], atol=1e-12)


def test_parse_initial_set():
    grid = parse_initial_set("unit-circle:16")
    assert grid.points.shape == (16, 2)
    for bad in ("circle:16", "unit-circle:0", "unit-circle:x", "unit-circle"):
        with pytest.raises(ConfigError):
            parse_initial_set(bad)


def test_sweep_records_are_ordered_and_indexed(model, solver):
    grid = unit_circle(8)
    report = sweep(model, solver, grid, _cfg("alg1", 0.01))
    assert [r.index for r in report.records] == list(range(1, 9))
    for rec, x0 in zip(report.records, grid.points):
        assert rec.x0 == tuple(x0)
        assert rec.error is None
    agg = report.aggregates()
    assert agg["points"] == 8
    assert agg["errors"] == 0


def test_batched_sweep_matches_one_at_a_time(model, solver, grid, tmp_path):
    # A sweep runs its whole set as one lockstep batch; running every
    # point on its own (a one-row batch each) must give the same bytes.
    config = _cfg("alg3", 0.01, forced_m=1)
    batched = sweep(model, solver, grid, config)
    one_at_a_time = SweepReport(
        set_name=grid.name,
        config=config,
        records=tuple(
            _evaluate_point(model, solver, config, k, x0)
            for k, x0 in enumerate(grid.points, start=1)
        ),
    )
    a = tmp_path / "batched.csv"
    b = tmp_path / "one_at_a_time.csv"
    write_sweep_csv(batched, a)
    write_sweep_csv(one_at_a_time, b)
    assert filecmp.cmp(a, b, shallow=False)
    assert batched.records == one_at_a_time.records


def test_startup_failure_arcs(model, solver, grid):
    report = sweep(model, solver, grid, _cfg("alg1", 0.01))
    assert report.failure_indices() == ARC_INDICES
    assert len(ARC_INDICES) == 44
    # All runs still converge: a longer prefix certifies wherever the
    # single step cannot.
    assert report.statuses() == {"converged": 128}


def test_longer_horizon_clears_the_arcs(lq, grid):
    solver = LqLadderSolver(lq, 4)
    report = sweep(solver.model, solver, grid, _cfg("alg1", 0.01, horizon=4))
    assert report.failure_indices() == ()


@pytest.mark.parametrize(
    "horizon,expected_warned",
    [(2, 80), (3, 44), (4, 0)],
)
def test_forced_watchdog_warning_counts(lq, grid, horizon, expected_warned):
    solver = LqLadderSolver(lq, horizon)
    config = _cfg("alg3", 0.01, horizon=horizon, forced_m=1)
    report = sweep(solver.model, solver, grid, config)
    assert len(report.warned_indices()) == expected_warned
    assert report.warned_indices() == report.failure_indices()


def test_warning_set_equals_adaptive_failure_set(model, solver, grid):
    adaptive = sweep(model, solver, grid, _cfg("alg1", 0.01))
    watchdog = sweep(model, solver, grid, _cfg("alg3", 0.01, forced_m=1))
    fa, fb, same = failure_set(adaptive, watchdog)
    assert same
    assert fa == fb == ARC_INDICES


def test_failure_sets_can_differ(lq, model, solver, grid):
    small = unit_circle(16)
    a = sweep(model, solver, small, _cfg("alg1", 0.01))
    solver4 = LqLadderSolver(lq, 4)
    b = sweep(solver4.model, solver4, small, _cfg("alg1", 0.01, horizon=4))
    fa, fb, same = failure_set(a, b)
    assert not same
    assert fb == ()
    assert fa != ()


def test_horizon_comparison_rows(lq, grid, tmp_path):
    rows = horizon_comparison(lq, grid, (2, 3, 5), alpha_bar=0.01)
    expected = [
        (2, -2.2400881673236372, 0.26346140408863206),
        (3, 0.002678286627097865, 0.6668265032310869),
        (5, 0.8324430827224137, 0.9703001613741773),
    ]
    assert [r[0] for r in rows] == [2, 3, 5]
    for row, exp in zip(rows, expected):
        assert row[1] == pytest.approx(exp[1], rel=1e-9)
        assert row[2] == pytest.approx(exp[2], rel=1e-9)
    out = tmp_path / "horizons.csv"
    write_horizon_csv(rows, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "N,alpha_prop1_min,alpha_cor3_min"
    assert len(lines) == 4


def test_horizon_comparison_validates_input(lq, grid):
    with pytest.raises(ConfigError):
        horizon_comparison(lq, grid, (1, 3))
    with pytest.raises(ConfigError):
        horizon_comparison(lq, grid, ())


def test_value_drop_sign_pattern(solver):
    # Single-step commitment lets the three-step value rise on part of
    # the plane; two committed steps never do.
    axis, drops1 = value_drop_grid(solver, 3, 1, extent=1.5, n=41)
    _, drops2 = value_drop_grid(solver, 3, 2, extent=1.5, n=41)
    assert axis.shape == (41,)
    assert axis[0] == -1.5 and axis[-1] == 1.5
    assert drops1.shape == (41, 41)
    assert int(np.sum(drops1 < 0.0)) == 638
    assert int(np.sum(drops2 < 0.0)) == 0
    assert int(np.sum(drops2 == 0.0)) == 1  # the origin only
    positive = drops2[drops2 > 0.0]
    assert float(np.min(positive)) == pytest.approx(0.0128382, abs=1e-6)


def test_value_drop_grid_validates_m(solver):
    with pytest.raises(ConfigError):
        value_drop_grid(solver, 3, 0)
    with pytest.raises(ConfigError):
        value_drop_grid(solver, 3, 3)


def test_value_drop_grid_rejects_short_horizon(solver):
    for horizon in (0, 1):
        with pytest.raises(ConfigError, match="horizon >= 2"):
            value_drop_grid(solver, horizon, 1)


def test_value_drop_grid_rejects_non_planar_plant():
    lq3 = LinearQuadraticInstance(
        A=1.1 * np.eye(3), B=np.ones((3, 1)), Q=np.eye(3), R=np.eye(1)
    )
    with pytest.raises(ConfigError, match="2-state plant"):
        value_drop_grid(LqLadderSolver(lq3, 3), 3, 1)


def test_sweep_csv_layout(model, solver, tmp_path):
    report = sweep(model, solver, unit_circle(4), _cfg("alg1", 0.01))
    path = tmp_path / "points.csv"
    write_sweep_csv(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,x1,x2,alpha_min_1step,alpha_min_mstep,alpha_cor3,warning,status"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "1"
    assert first[-1] == "converged"
    assert float(first[2]) == pytest.approx(1.0, abs=1e-12)


class _FaultySolver(LqLadderSolver):
    """Raises for one marker state so error capture can be exercised.

    Faults on the batched plan entry point, so a batch that holds the
    marker fails as a whole and a plan from any other state succeeds.
    """

    def plans(self, X, horizon):
        X = np.asarray(X, dtype=float)
        if np.any((np.abs(X[:, 0] - 1.0) < 1e-12) & (np.abs(X[:, 1]) < 1e-12)):
            raise SolverError("marker state rejected")
        return super().plans(X, horizon)


def test_sweep_captures_per_point_errors(lq):
    solver = _FaultySolver(lq, 3)
    grid = unit_circle(4)  # point 4 is (1, 0)
    report = sweep(solver.model, solver, grid, _cfg("alg1", 0.01))
    assert report.error_indices() == (4,)
    bad = report.records[3]
    assert bad.status == "error"
    assert "marker state rejected" in bad.error
    assert np.isnan(bad.alpha_cor3)
    good = report.records[0]
    assert good.error is None
    assert report.aggregates()["errors"] == 1


def test_sweep_isolates_an_error_in_the_middle_of_the_set(lq):
    # Negating the 16-point circle puts the marker (1, 0) at index 8.
    # The failing batch re-runs point by point: the error stays on its
    # own point and every other record equals the one a clean solver
    # gives.
    grid = InitialSet(name="negated-circle:16", points=-unit_circle(16).points)
    assert np.allclose(grid.points[7], [1.0, 0.0], rtol=0.0, atol=1e-12)
    config = _cfg("alg3", 0.01)
    solver = _FaultySolver(lq, 3)
    report = sweep(solver.model, solver, grid, config)
    clean_solver = LqLadderSolver(lq, 3)
    clean = sweep(clean_solver.model, clean_solver, grid, config)
    assert report.error_indices() == (8,)
    assert report.records[7].status == "error"
    assert "marker state rejected" in report.records[7].error
    assert clean.error_indices() == ()
    for k, (rec, ref) in enumerate(zip(report.records, clean.records), start=1):
        if k != 8:
            assert rec == ref
    assert report.aggregates()["errors"] == 1


def test_failing_batch_is_bisected(lq, monkeypatch):
    # One marker in 128 points: the failing batch splits in halves down
    # to the marker, so the sweep costs about two batch runs per halving,
    # not one run per point, and every record is the one-at-a-time record.
    # The package re-exports the function ``sweep`` under the module's name.
    sweep_module = importlib.import_module("mpccert.sweep")
    calls = {"batch": 0, "single": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(sweep_module, "run_batch", counted("batch", sweep_module.run_batch))
    monkeypatch.setattr(
        sweep_module, "run_closed_loop", counted("single", sweep_module.run_closed_loop)
    )
    grid = unit_circle(128)  # point 128 is (1, 0)
    config = _cfg("alg1", 0.01)
    solver = _FaultySolver(lq, 3)
    report = sweep(solver.model, solver, grid, config)
    assert calls["batch"] + calls["single"] <= 2 * int(np.ceil(np.log2(len(grid)))) + 1
    assert report.error_indices() == (128,)
    one_at_a_time = [
        _evaluate_point(solver.model, solver, config, k, x0)
        for k, x0 in enumerate(grid.points, start=1)
    ]
    assert list(report.records[:-1]) == one_at_a_time[:-1]
    bad, ref = report.records[-1], one_at_a_time[-1]
    assert (bad.index, bad.x0, bad.status, bad.error) == (ref.index, ref.x0, ref.status, ref.error)
    assert "marker state rejected" in bad.error

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


def test_sweep_records_are_ordered_and_indexed(solver):
    grid = unit_circle(8)
    report = sweep(solver, grid, _cfg("alg1", 0.01))
    assert [r.index for r in report.records] == list(range(1, 9))
    for rec, x0 in zip(report.records, grid.points):
        assert rec.x0 == tuple(x0)
        assert rec.error is None
    agg = report.aggregates()
    assert agg["points"] == 8
    assert agg["errors"] == 0


def test_batched_sweep_matches_one_at_a_time(solver, grid, tmp_path):
    # A sweep runs its whole set as one lockstep batch; running every
    # point on its own (a one-row batch each) must give the same bytes.
    config = _cfg("alg3", 0.01, forced_m=1)
    batched = sweep(solver, grid, config)
    one_at_a_time = SweepReport(
        set_name=grid.name,
        config=config,
        records=tuple(
            _evaluate_point(solver, config, k, x0)
            for k, x0 in enumerate(grid.points, start=1)
        ),
    )
    a = tmp_path / "batched.csv"
    b = tmp_path / "one_at_a_time.csv"
    write_sweep_csv(batched, a)
    write_sweep_csv(one_at_a_time, b)
    assert filecmp.cmp(a, b, shallow=False)
    assert batched.records == one_at_a_time.records


def test_startup_failure_arcs(solver, grid):
    report = sweep(solver, grid, _cfg("alg1", 0.01))
    assert report.failure_indices() == ARC_INDICES
    assert len(ARC_INDICES) == 44
    # All runs still converge: a longer prefix certifies wherever the
    # single step cannot.
    assert report.statuses() == {"converged": 128}


def test_longer_horizon_clears_the_arcs(lq, grid):
    solver = LqLadderSolver(lq, 4)
    report = sweep(solver, grid, _cfg("alg1", 0.01, horizon=4))
    assert report.failure_indices() == ()


@pytest.mark.parametrize(
    "horizon,expected_warned",
    [(2, 80), (3, 44), (4, 0)],
)
def test_forced_watchdog_warning_counts(lq, grid, horizon, expected_warned):
    solver = LqLadderSolver(lq, horizon)
    config = _cfg("alg3", 0.01, horizon=horizon, forced_m=1)
    report = sweep(solver, grid, config)
    assert len(report.warned_indices()) == expected_warned
    assert report.warned_indices() == report.failure_indices()


def test_warning_set_equals_adaptive_failure_indices(solver, grid):
    adaptive = sweep(solver, grid, _cfg("alg1", 0.01))
    watchdog = sweep(solver, grid, _cfg("alg3", 0.01, forced_m=1))
    assert adaptive.failure_indices() == watchdog.failure_indices() == ARC_INDICES


def test_failure_indices_can_differ(lq, solver, grid):
    small = unit_circle(16)
    a = sweep(solver, small, _cfg("alg1", 0.01))
    solver4 = LqLadderSolver(lq, 4)
    b = sweep(solver4, small, _cfg("alg1", 0.01, horizon=4))
    assert b.failure_indices() == ()
    assert a.failure_indices() != ()


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


def _horizon_table_oracle(lq, initial_set, horizons, alpha_bar=0.01, solver_class=LqLadderSolver):
    """The per-horizon loop horizon_comparison replaced: one solver and two sweeps per N."""
    rows = []
    for n in horizons:
        solver = solver_class(lq, n)
        apriori = sweep(solver, initial_set, _cfg("alg1", 0.0, horizon=n))
        posteriori = sweep(solver, initial_set, _cfg("alg3", alpha_bar, horizon=n, forced_m=1))
        col_a = float(np.nanmin([r.min_mstep_alpha for r in apriori.records]))
        rows.append((n, col_a, posteriori.alpha_cor3_min()))
    return rows


def _counting(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return calls


def test_horizon_comparison_matches_per_horizon_sweeps(lq, monkeypatch):
    # Every (horizon, configuration, point) row runs in one lockstep batch,
    # and the table is the one the per-horizon sweeps give, bit for bit.
    grid = unit_circle(32)
    horizons = (2, 3, 4, 5, 10, 20)
    oracle = _horizon_table_oracle(lq, grid, horizons)
    calls = _counting(monkeypatch, importlib.import_module("mpccert.sweep"), ("run_batch", "run_closed_loop"))
    assert horizon_comparison(lq, grid, horizons) == oracle
    assert calls == {"run_batch": 1, "run_closed_loop": 0}
    assert horizon_comparison(lq, grid, (20, 2, 5), alpha_bar=0.3) == _horizon_table_oracle(
        lq, grid, (20, 2, 5), alpha_bar=0.3
    )


def test_horizon_comparison_isolates_failing_rows(lq, monkeypatch):
    # The marker (1, 0) is the last point of the circle, so each of the six
    # blocks of the one batch holds a failing row.  Halving runs each of
    # them on its own, and the table equals the per-horizon sweeps on the
    # same faulty solver, which leave that point out of both minima.
    sweep_module = importlib.import_module("mpccert.sweep")
    monkeypatch.setattr(sweep_module, "LqLadderSolver", _FaultySolver)
    grid = unit_circle(16)
    oracle = _horizon_table_oracle(lq, grid, (2, 3, 10), solver_class=_FaultySolver)
    calls = _counting(monkeypatch, sweep_module, ("run_batch", "run_closed_loop"))
    assert horizon_comparison(lq, grid, (2, 3, 10)) == oracle
    assert calls["run_closed_loop"] >= 6


def test_horizon_comparison_validates_input(lq, grid):
    with pytest.raises(ConfigError):
        horizon_comparison(lq, grid, (1, 3))
    with pytest.raises(ConfigError):
        horizon_comparison(lq, grid, ())


@pytest.mark.parametrize(
    "points", (unit_circle(8).points, np.zeros((4, 1, 2)), np.zeros(3)), ids=("2-state", "3-d", "1-d")
)
def test_a_set_of_another_dimension_is_a_configuration_error(points, monkeypatch):
    # The whole set is wrong, so no point runs: neither experiment
    # reaches the batch, which would record one error per point.
    grid = InitialSet(name="wrong", points=points)
    sweep_module = importlib.import_module("mpccert.sweep")
    calls = _counting(monkeypatch, sweep_module, ("run_batch", "run_closed_loop"))
    lq = LinearQuadraticInstance(A=[[1.2]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ConfigError, match=r"the plant needs \(B, 1\)"):
        sweep(LqLadderSolver(lq, 3), grid, _cfg("alg1", 0.5))
    with pytest.raises(ConfigError, match=r"the plant needs \(B, 1\)"):
        horizon_comparison(lq, grid, (2, 3))
    assert calls == {"run_batch": 0, "run_closed_loop": 0}
    # A set of the plant's dimension runs.
    line = InitialSet(name="line", points=np.array([[1.0], [-0.5]]))
    assert sweep(LqLadderSolver(lq, 3), line, _cfg("alg1", 0.5)).error_indices() == ()


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


def test_sweep_csv_layout(solver, tmp_path):
    report = sweep(solver, unit_circle(4), _cfg("alg1", 0.01))
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

    Faults in the plan step, which ``plans`` and the engine's plan walks
    both go through, so a batch that holds the marker fails as a whole
    and a plan from any other state succeeds.
    """

    def plan_step(self, X, horizon, k):
        X = np.asarray(X, dtype=float)
        if np.any((np.abs(X[:, 0] - 1.0) < 1e-12) & (np.abs(X[:, 1]) < 1e-12)):
            raise SolverError("marker state rejected")
        return super().plan_step(X, horizon, k)


def _assert_nan_statistics(report):
    agg = report.aggregates()
    for key in ("alpha_cor3_min", "alpha_cor3_max", "alpha_cor3_mean", "alpha_1step_min", "alpha_mstep_min"):
        assert np.isnan(agg[key]), key
    assert np.isnan(report.alpha_cor3_min())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_all_error_sweep_statistics_are_nan_without_warnings(lq):
    # Every point is the marker, so every record is an error: the CLI's
    # exit-3 path, which still prints the aggregates.
    grid = InitialSet(name="marker:3", points=np.tile([1.0, 0.0], (3, 1)))
    report = sweep(_FaultySolver(lq, 3), grid, _cfg("alg3", 0.01))
    assert report.error_indices() == (1, 2, 3)
    _assert_nan_statistics(report)
    assert report.aggregates()["errors"] == 3


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_statistics_at_the_equilibrium_are_nan_without_warnings(lq, solver):
    # Runs from the equilibrium stop before their first window, so every
    # statistic of every point is NaN.
    grid = InitialSet(name="origin:2", points=np.zeros((2, 2)))
    report = sweep(solver, grid, _cfg("alg1", 0.01))
    assert report.error_indices() == () and report.statuses() == {"converged": 2}
    _assert_nan_statistics(report)
    rows = horizon_comparison(lq, grid, (2, 3))
    assert [n for n, _, _ in rows] == [2, 3]
    assert all(np.isnan(a) and np.isnan(b) for _, a, b in rows)


def test_sweep_captures_per_point_errors(lq):
    solver = _FaultySolver(lq, 3)
    grid = unit_circle(4)  # point 4 is (1, 0)
    report = sweep(solver, grid, _cfg("alg1", 0.01))
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
    report = sweep(solver, grid, config)
    clean_solver = LqLadderSolver(lq, 3)
    clean = sweep(clean_solver, grid, config)
    assert report.error_indices() == (8,)
    assert report.records[7].status == "error"
    assert "marker state rejected" in report.records[7].error
    assert clean.error_indices() == ()
    for k, (rec, ref) in enumerate(zip(report.records, clean.records), start=1):
        if k != 8:
            assert rec == ref
    assert report.aggregates()["errors"] == 1


def test_sweep_records_a_non_finite_point_as_an_error(lq):
    # A NaN initial state is a configuration error of its own point only.
    points = unit_circle(16).points.copy()
    points[5] = [np.nan, 1.0]
    config = _cfg("alg4", 0.5)
    report = sweep(LqLadderSolver(lq, 3), InitialSet(name="nan:16", points=points), config)
    clean = sweep(LqLadderSolver(lq, 3), unit_circle(16), config)
    assert report.error_indices() == (6,)
    assert "initial states must be finite" in report.records[5].error
    assert report.records[:5] + report.records[6:] == clean.records[:5] + clean.records[6:]


def test_failing_batch_is_bisected(lq, monkeypatch):
    # One marker in 128 points: the failing batch splits in halves down
    # to the marker, so the sweep costs about two batch runs per halving,
    # not one run per point, and every record is the one-at-a-time record.
    # The package re-exports the function ``sweep`` under the module's name.
    sweep_module = importlib.import_module("mpccert.sweep")
    calls = _counting(monkeypatch, sweep_module, ("run_batch", "run_closed_loop"))
    grid = unit_circle(128)  # point 128 is (1, 0)
    config = _cfg("alg1", 0.01)
    solver = _FaultySolver(lq, 3)
    report = sweep(solver, grid, config)
    assert calls["run_batch"] + calls["run_closed_loop"] <= 2 * int(np.ceil(np.log2(len(grid)))) + 1
    assert report.error_indices() == (128,)
    one_at_a_time = [
        _evaluate_point(solver, config, k, x0)
        for k, x0 in enumerate(grid.points, start=1)
    ]
    assert list(report.records[:-1]) == one_at_a_time[:-1]
    bad, ref = report.records[-1], one_at_a_time[-1]
    assert (bad.index, bad.x0, bad.status, bad.error) == (ref.index, ref.x0, ref.status, ref.error)
    assert "marker state rejected" in bad.error

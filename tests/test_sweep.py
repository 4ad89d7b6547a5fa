import dataclasses
import filecmp
import importlib

import numpy as np
import pytest

from mpccert.engine import AlgorithmConfig, BatchRun, run_closed_loop
from mpccert.errors import ConfigError, SolverError
from mpccert.model import LinearQuadraticInstance
from mpccert.riccati import LqLadderSolver
from mpccert.sweep import (
    _SWEEP_COLUMNS,
    InitialSet,
    SweepReport,
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


def _one_at_a_time(solver, grid, config):
    """A report of ``grid`` whose rows are the runs of sweeps of each of its points on its own."""
    runs = [sweep(solver, InitialSet(grid.name, x0[None]), config).runs for x0 in grid.points]
    names = [f.name for f in dataclasses.fields(BatchRun) if isinstance(getattr(runs[0], f.name), np.ndarray)]
    rows = BatchRun(
        status=sum((run.status for run in runs), ()),
        errors=sum((run.errors or (None,) for run in runs), ()),
        **{name: np.concatenate([getattr(run, name) for run in runs]) for name in names},
    )
    return SweepReport(grid.name, config, grid.points, rows)


def _rows(report, rows=None):
    """The statuses, errors, points and statistic columns of a report's ``rows`` (all by default).

    Numbers are kept as bytes, so that two reports compare equal exactly
    when every bit agrees, NaN statistics included.
    """
    runs = report.runs
    rows = np.arange(len(report.points)) if rows is None else np.asarray(rows)
    errors = runs.errors or (None,) * len(runs.status)
    columns = [report.points] + [getattr(runs, f.name) for f in dataclasses.fields(BatchRun)]
    numbers = [column[rows].tobytes() for column in columns if isinstance(column, np.ndarray)]
    return [runs.status[i] for i in rows], [errors[i] for i in rows], numbers


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
    # Row k - 1 of every column belongs to point k of the set.
    assert np.array_equal(report.points, grid.points)
    assert len(report.runs.status) == len(report.runs.alpha_cor3) == 8
    assert report.runs.errors is None and report.error_indices() == ()
    agg = report.aggregates()
    assert agg["points"] == 8
    assert agg["errors"] == 0


def test_reports_compare_by_identity(solver):
    # Reports and batch runs hold array columns; == is identity, not a
    # ValueError from comparing arrays.
    grid = unit_circle(4)
    first, second = (sweep(solver, grid, _cfg("alg1", 0.01)) for _ in range(2))
    assert (first == second) is False and (first.runs == second.runs) is False
    assert first == first and first.runs == first.runs


def test_array_records_compare_by_identity(lq, solver):
    # Plants, initial sets, plans, traces and their windows hold arrays
    # too; == is identity for each, and a plant can be a set member.
    config = _cfg("alg1", 0.5)
    x0 = np.array([0.0, 1.0])
    traces = [run_closed_loop(solver, x0, config) for _ in range(2)]
    pairs = [
        [LinearQuadraticInstance(lq.A, lq.B, lq.Q, lq.R) for _ in range(2)],
        [unit_circle(4) for _ in range(2)],
        [solver.solve(x0, 3) for _ in range(2)],
        traces,
        [trace.windows[0] for trace in traces],
    ]
    for first, second in pairs:
        assert (first == second) is False and (first != second) is True
        assert first == first
    assert len({*pairs[0], pairs[0][0]}) == 2


def test_batched_sweep_matches_one_at_a_time(solver, grid, tmp_path):
    # A sweep runs its whole set as one lockstep batch; running every
    # point on its own (a one-row batch each) must give the same bytes.
    config = _cfg("alg3", 0.01, forced_m=1)
    batched = sweep(solver, grid, config)
    one_at_a_time = _one_at_a_time(solver, grid, config)
    a = tmp_path / "batched.csv"
    b = tmp_path / "one_at_a_time.csv"
    write_sweep_csv(batched, a)
    write_sweep_csv(one_at_a_time, b)
    assert filecmp.cmp(a, b, shallow=False)
    assert _rows(batched) == _rows(one_at_a_time)


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


def _horizon_table_oracle(lq, initial_set, horizons, alpha_bar=0.01):
    """The per-horizon loop horizon_comparison replaced: one solver and two sweeps per N."""
    rows = []
    for n in horizons:
        solver = LqLadderSolver(lq, n)
        apriori = sweep(solver, initial_set, _cfg("alg1", 0.0, horizon=n))
        posteriori = sweep(solver, initial_set, _cfg("alg3", alpha_bar, horizon=n, forced_m=1))
        col_a = float(np.nanmin(apriori.runs.min_window_alpha))
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


def _with_point(initial_set, index, point, name="faulty"):
    """``initial_set`` with its point ``index`` replaced by ``point``."""
    points = initial_set.points.copy()
    points[index] = point
    return InitialSet(name=name, points=points)


def test_horizon_comparison_matches_per_horizon_sweeps(lq, monkeypatch):
    # Every (horizon, configuration, point) row runs in one lockstep batch,
    # and the table is the one the per-horizon sweeps give, bit for bit.
    grid = unit_circle(32)
    horizons = (2, 3, 4, 5, 10, 20)
    oracle = _horizon_table_oracle(lq, grid, horizons)
    calls = _counting(monkeypatch, importlib.import_module("mpccert.sweep"), ("run_rows", "run_closed_loop"))
    assert horizon_comparison(lq, grid, horizons) == oracle
    assert calls == {"run_rows": 1, "run_closed_loop": 0}
    assert horizon_comparison(lq, grid, (20, 2, 5), alpha_bar=0.3) == _horizon_table_oracle(
        lq, grid, (20, 2, 5), alpha_bar=0.3
    )


def test_horizon_comparison_isolates_failing_rows(lq, engine_calls):
    # The value of (1e160, 0) overflows at every horizon, so each of the six
    # blocks of the one run holds an error row.  The table equals the
    # per-horizon sweeps of the same set, and the table of the set without
    # that point: error rows stay out of both minima.
    grid = _with_point(unit_circle(16), 15, [1e160, 0.0])
    oracle = _horizon_table_oracle(lq, grid, (2, 3, 10))
    engine_calls.clear()
    assert horizon_comparison(lq, grid, (2, 3, 10)) == oracle
    assert engine_calls == [6 * 16]
    assert oracle == _horizon_table_oracle(lq, InitialSet(name="clean", points=grid.points[:15]), (2, 3, 10))


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
    calls = _counting(monkeypatch, sweep_module, ("run_rows", "run_closed_loop"))
    lq = LinearQuadraticInstance(A=[[1.2]], B=[[1.0]], Q=[[1.0]], R=[[1.0]])
    with pytest.raises(ConfigError, match=r"the plant needs \(B, 1\)"):
        sweep(LqLadderSolver(lq, 3), grid, _cfg("alg1", 0.5))
    with pytest.raises(ConfigError, match=r"the plant needs \(B, 1\)"):
        horizon_comparison(lq, grid, (2, 3))
    assert calls == {"run_rows": 0, "run_closed_loop": 0}
    # A set of the plant's dimension runs.
    line = InitialSet(name="line", points=np.array([[1.0], [-0.5]]))
    assert sweep(LqLadderSolver(lq, 3), line, _cfg("alg1", 0.5)).error_indices() == ()


def test_value_drop_sign_pattern(solver):
    # Single-step commitment lets the three-step value rise on part of
    # the plane; two committed steps never do.
    axis, drops1 = value_drop_grid(solver, 3, 1, n=41)
    _, drops2 = value_drop_grid(solver, 3, 2, n=41)
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


@pytest.mark.parametrize("n", (1, 3))
def test_sweep_csv_has_a_column_per_state_coordinate(n, tmp_path):
    # A Jordan block driven through its last state: controllable at every n.
    lq = LinearQuadraticInstance(A=1.2 * np.eye(n) + np.eye(n, k=1), B=np.eye(n)[:, -1:], Q=np.eye(n), R=np.eye(1))
    points = np.linspace(-1.0, 1.0, 2 * n).reshape(2, n)
    report = sweep(LqLadderSolver(lq, 3), InitialSet(name=f"{n}-state", points=points), _cfg("alg1", 0.01))
    path = tmp_path / "points.csv"
    write_sweep_csv(report, path)
    lines = path.read_text().splitlines()
    xs = ",".join(f"x{j}" for j in range(1, n + 1))
    assert lines[0] == f"k,{xs},alpha_min_1step,alpha_min_mstep,alpha_cor3,warning,status"
    assert [[float(v) for v in line.split(",")[1 : n + 1]] for line in lines[1:]] == points.tolist()
    assert [line.split(",")[-1] for line in lines[1:]] == list(report.runs.status)


def _format_sweep_csv(report) -> str:
    """The sweep CSV as ``str.format`` rendered it, one row at a time: the oracle of ``write_sweep_csv``."""
    n, runs = report.points.shape[1], report.runs
    row = "{:d}," + "{:.17g}," * n + "{:.17g},{:.17g},{:.17g},{:d},{}"
    columns = (runs.min_onestep_alpha, runs.min_window_alpha, runs.alpha_cor3, (runs.warning_count > 0).astype(int))
    rows = zip(report.points.tolist(), *(column.tolist() for column in columns), runs.status)
    lines = [",".join(("k", *(f"x{j}" for j in range(1, n + 1)), *_SWEEP_COLUMNS))] + [
        row.format(k, *x0, *stats) for k, (x0, *stats) in enumerate(rows, start=1)
    ]
    return "\n".join(lines) + "\n"


def test_sweep_csv_bytes_match_str_format(solver, tmp_path):
    # 3-coordinate points and statistics at every special value: NaN, both
    # infinities, both zeros, subnormals and 17-digit floats, with warned
    # rows (counts 1 and 7) and error rows.
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, 0.1, 1 / 3, -1e300, 0.6666666666666666]
    rows = len(special)
    stats = [np.array(special[k:] + special[:k]) for k in (0, 3, 7)]
    warnings = np.array([0, 1, 0, 7, 0, 0, 2, 0, 0, 0])
    status = ("converged", "warning-issued", "error", "max-iterations", "error") + ("exit-strategy-failed",) * 5
    errors = tuple("boom" if s == "error" else None for s in status)
    zero = np.zeros(rows, dtype=int)
    runs = BatchRun(status, stats[0], stats[1], stats[2], stats[0], zero, warnings, zero, zero, errors=errors)
    points = np.array([special, special[::-1], special[2:] + special[:2]]).T
    report = SweepReport("special", _cfg("alg3", 0.5), points, runs)
    path = tmp_path / "points.csv"
    write_sweep_csv(report, path)
    assert path.read_bytes() == _format_sweep_csv(report).encode()
    assert "nan" in path.read_text() and ",-0," in path.read_text() and ",inf," in path.read_text()
    # A report of real runs, and one of no points.
    real = sweep(solver, unit_circle(8), _cfg("alg2", 0.6))
    empty = SweepReport("empty", _cfg("alg1", 0.0), np.zeros((0, 2)), real.runs.select(slice(0)))
    for report in (real, empty):
        write_sweep_csv(report, path)
        assert path.read_bytes() == _format_sweep_csv(report).encode()


class _FaultySolver(LqLadderSolver):
    """Raises for one marker state, an error of the whole batch.

    Faults in the plan step, which ``plans`` and the engine's plan walks
    both go through, so a batch that holds the marker fails as a whole
    and a plan from any other state succeeds.
    """

    def plan_step(self, X, horizon, k, out):
        X = np.asarray(X, dtype=float)
        if np.any((np.abs(X[0] - 1.0) < 1e-12) & (np.abs(X[1]) < 1e-12)):
            raise SolverError("marker state rejected")
        return super().plan_step(X, horizon, k, out)


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


def test_sweep_captures_per_point_errors(solver):
    # The value of (1e160, 0) overflows after its first plan: an error row
    # of NaN degrees and zero counts, though it ran one iteration.
    report = sweep(solver, _with_point(unit_circle(4), 3, [1e160, 0.0]), _cfg("alg1", 0.01))
    assert report.error_indices() == (4,)
    runs = report.runs
    assert runs.status[3] == "error"
    assert runs.errors[3] == f"the value of initial state {np.array([1e160, 0.0])} is not finite"
    for column in (runs.startup_onestep_alpha, runs.min_onestep_alpha, runs.min_window_alpha, runs.alpha_cor3):
        assert np.isnan(column[3])
    assert [int(c[3]) for c in (runs.exit_count, runs.warning_count, runs.intervals, runs.applied_steps)] == [0] * 4
    assert runs.errors[0] is None
    assert report.aggregates()["errors"] == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_records_an_initial_value_overflow_as_an_error_row(lq):
    # x0' P_3 x0 overflows at 1e160 but not at 1e150: only the first is
    # an error row, with no NumPy warning, and the other rows run as they
    # do without it.
    points = np.array([[0.0, 1.0], [1e160, 0.0], [1e150, 0.0]])
    solver, config = LqLadderSolver(lq, 3), _cfg("alg3", 0.5)
    report = sweep(solver, InitialSet(name="overflow", points=points), config)
    assert report.error_indices() == (2,) and report.statuses() == {"converged": 2, "error": 1}
    assert "is not finite" in report.runs.errors[1]
    clean = sweep(solver, InitialSet(name="clean", points=points[[0, 2]]), config)
    assert report.runs.alpha_cor3[[0, 2]].tolist() == clean.runs.alpha_cor3.tolist()


def test_sweep_isolates_an_error_in_the_middle_of_the_set(solver, engine_calls):
    # Point 8 of the 16-point circle moves to (1e160, 0), whose value
    # overflows.  The one run keeps the error on its own point, and every
    # other row equals the one the clean set gives.
    clean_grid = unit_circle(16)
    grid = _with_point(clean_grid, 7, [1e160, 0.0])
    config = _cfg("alg3", 0.01)
    report = sweep(solver, grid, config)
    assert engine_calls == [16]
    clean = sweep(solver, clean_grid, config)
    assert report.error_indices() == (8,)
    assert report.runs.status[7] == "error"
    assert report.runs.errors[7].endswith("is not finite")
    assert clean.error_indices() == ()
    others = [i for i in range(16) if i != 7]
    assert _rows(report, others) == _rows(clean, others)
    assert report.aggregates()["errors"] == 1


def test_sweep_csv_of_a_failing_point(solver, tmp_path):
    # Point 8 of the 16-point circle moves to (NaN, 1).  Its line keeps
    # its state and writes NaN degrees, no warning and the status
    # ``error``; every other line is the clean sweep's line.
    grid = unit_circle(16)
    config = _cfg("alg3", 0.01)
    faulty, clean = tmp_path / "faulty.csv", tmp_path / "clean.csv"
    write_sweep_csv(sweep(solver, _with_point(grid, 7, [np.nan, 1.0]), config), faulty)
    write_sweep_csv(sweep(solver, grid, config), clean)
    got, want = faulty.read_text().splitlines(), clean.read_text().splitlines()
    assert len(got) == len(want) == 17
    assert got[8] == "8,nan,1,nan,nan,nan,0,error"
    assert got[:8] + got[9:] == want[:8] + want[9:]


def test_sweep_records_a_non_finite_point_as_an_error(lq):
    # A NaN initial state is a configuration error of its own point only.
    points = unit_circle(16).points.copy()
    points[5] = [np.nan, 1.0]
    config = _cfg("alg4", 0.5)
    report = sweep(LqLadderSolver(lq, 3), InitialSet(name="nan:16", points=points), config)
    clean = sweep(LqLadderSolver(lq, 3), unit_circle(16), config)
    assert report.error_indices() == (6,)
    assert "initial states must be finite" in report.runs.errors[5]
    others = [i for i in range(16) if i != 5]
    assert _rows(report, others) == _rows(clean, others)


def test_an_error_of_the_whole_batch_makes_every_row_an_error_row(lq, monkeypatch):
    # One marker in 128 points fails the batch as a whole, so after one
    # engine run every row is an error row with the marker's text.
    sweep_module = importlib.import_module("mpccert.sweep")
    calls = _counting(monkeypatch, sweep_module, ("run_rows", "run_closed_loop"))
    grid = unit_circle(128)  # point 128 is (1, 0)
    report = sweep(_FaultySolver(lq, 3), grid, _cfg("alg1", 0.01))
    assert calls == {"run_rows": 1, "run_closed_loop": 0}
    assert report.error_indices() == tuple(range(1, 129)) and report.statuses() == {"error": 128}
    assert report.runs.errors == ("marker state rejected",) * 128
    _assert_nan_statistics(report)
    assert not report.runs.warning_count.any() and not report.runs.applied_steps.any()

import filecmp
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from mpccert.cli import main
from mpccert.engine import AlgorithmConfig, BatchRun, run_batch
from mpccert.errors import ConfigError
from mpccert.model import load_plant
from mpccert.refchecks import reference_instance
from mpccert.riccati import LqLadderSolver
from mpccert.sweep import InitialSet, horizon_comparison, parse_initial_set, sweep, unit_circle

PLANT = str(Path(__file__).resolve().parent.parent / "plants" / "spiral2d.txt")
# Stands for a 1-state plant file that test_config_errors_exit_2 writes.
SCALAR_PLANT = "<1-state plant>"


def _run_args(out, variant="alg4", alpha_bar="0.5", extra=()):
    return [
        "run",
        "--plant",
        PLANT,
        "--variant",
        variant,
        "--horizon",
        "3",
        "--alpha-bar",
        alpha_bar,
        "--x0",
        "0,1",
        "--out",
        str(out),
        *extra,
    ]


def test_riccati_prints_and_writes_table(tmp_path, capsys):
    rc = main(["riccati", "--plant", PLANT, "--horizon", "3", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "P_3" in out
    assert "5.10999474394" in out
    lines = (tmp_path / "riccati.csv").read_text().splitlines()
    assert lines[0] == "j,p11,p12,p21,p22"
    assert lines[1] == "1,1,0,0,1"
    assert lines[3].startswith("3,4.0811725067385449,")


def test_run_converged_writes_outputs(tmp_path, capsys):
    rc = main(_run_args(tmp_path, extra=["--no-timestamp"]))
    assert rc == 0
    out = capsys.readouterr().out
    assert "status = converged" in out
    summary = (tmp_path / "summary.txt").read_text().splitlines()
    assert not summary[0].startswith("timestamp")
    assert "status = converged" in summary
    assert "intervals = 38" in summary
    certs = (tmp_path / "certificates.csv").read_text().splitlines()
    assert certs[0] == "n,sigma_n,m_n,v_before,v_after,cost_sum,alpha,rho,s_n"
    assert len(certs) == 39


def test_run_summary_carries_timestamp_by_default(tmp_path):
    rc = main(_run_args(tmp_path))
    assert rc == 0
    first = (tmp_path / "summary.txt").read_text().splitlines()[0]
    assert first.startswith("timestamp = ")


def test_run_exit_code_flags_failed_fallback(tmp_path):
    rc = main(_run_args(tmp_path, variant="alg1"))
    assert rc == 4
    assert "status = exit-strategy-failed" in (tmp_path / "summary.txt").read_text()


def test_run_forced_single_step(tmp_path):
    rc = main(
        _run_args(
            tmp_path,
            variant="alg3",
            alpha_bar="0.01",
            extra=["--forced-m", "1", "--no-timestamp"],
        )
    )
    assert rc == 0
    summary = (tmp_path / "summary.txt").read_text()
    assert "intervals = 38" in summary
    assert "warnings = 0" in summary


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--plant", "/does/not/exist.txt", "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--x0", "0,1"],
        ["run", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "2.0", "--x0", "0,1"],
        ["run", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--x0", "0,1,2"],
        ["run", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--x0", "zero,one"],
        ["sweep", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--set", "circle:8"],
        ["sweep", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--set", "unit-circle:8", "--workers", "0"],
        ["horizon-table", "--plant", PLANT, "--set", "unit-circle:8", "--horizons", "2,3", "--alpha-bar", "0.01", "--workers", "0"],
        ["run", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--x0", "nan,1"],
        # A 2-state set on a 1-state plant.
        ["sweep", "--plant", SCALAR_PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--set", "unit-circle:8"],
        ["horizon-table", "--plant", SCALAR_PLANT, "--set", "unit-circle:8", "--horizons", "2,3", "--alpha-bar", "0.01"],
        ["run", "--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.5", "--x0", "0,1", "--forced-m", "2,x"],
        ["horizon-table", "--plant", PLANT, "--set", "unit-circle:8", "--horizons", "2,x", "--alpha-bar", "0.01"],
    ],
)
def test_config_errors_exit_2(argv, capsys, tmp_path):
    plant = tmp_path / "scalar.txt"
    plant.write_text("state_dim 1\ncontrol_dim 1\nA\n1.2\nB\n1\nQ\n1\nR\n1\n")
    assert main([str(plant) if arg == SCALAR_PLANT else arg for arg in argv]) == 2
    captured = capsys.readouterr()
    assert captured.err.count("error:") == 1 and not captured.out


def test_missing_required_flag_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--plant", PLANT, "--variant", "alg1"])
    assert exc.value.code == 2


def test_sweep_outputs_are_worker_invariant(tmp_path):
    out1 = tmp_path / "w1"
    out2 = tmp_path / "w2"
    for out, workers in ((out1, "1"), (out2, "4")):
        rc = main(
            [
                "sweep",
                "--plant",
                PLANT,
                "--variant",
                "alg1",
                "--horizon",
                "3",
                "--alpha-bar",
                "0.01",
                "--set",
                "unit-circle:8",
                "--workers",
                workers,
                "--out",
                str(out),
                "--no-timestamp",
            ]
        )
        assert rc == 0
    assert filecmp.cmp(out1 / "sweep_points.csv", out2 / "sweep_points.csv", shallow=False)
    assert filecmp.cmp(out1 / "summary.txt", out2 / "summary.txt", shallow=False)
    lines = (out1 / "sweep_points.csv").read_text().splitlines()
    assert len(lines) == 9
    assert "failure_indices = 1,5" in (out1 / "summary.txt").read_text()


@pytest.mark.parametrize("count,code", ((1, 3), (2, 0)))
def test_sweep_exits_3_only_when_every_point_fails(count, code, monkeypatch, capsys):
    # The last point of unit-circle:k, (1, 0), moves to (1e160, 0), whose
    # value overflows: the one point of unit-circle:1 fails, and one of the
    # two of unit-circle:2.
    def overflowing_last(text):
        initial_set = parse_initial_set(text)
        initial_set.points[-1] *= 1e160
        return initial_set

    monkeypatch.setattr("mpccert.cli.parse_initial_set", overflowing_last)
    args = ["--plant", PLANT, "--variant", "alg1", "--horizon", "3", "--alpha-bar", "0.01"]
    assert main(["sweep", *args, "--set", f"unit-circle:{count}"]) == code
    assert "errors = 1\n" in capsys.readouterr().out


def test_horizon_table_matches_library(tmp_path, capsys):
    rc = main(
        [
            "horizon-table",
            "--plant",
            PLANT,
            "--set",
            "unit-circle:8",
            "--horizons",
            "2,3",
            "--alpha-bar",
            "0.01",
            "--workers",
            "2",
            "--out",
            str(tmp_path),
            "--no-timestamp",
        ]
    )
    assert rc == 0
    capsys.readouterr()
    lines = (tmp_path / "horizon_table.csv").read_text().splitlines()
    assert lines[0] == "N,alpha_prop1_min,alpha_cor3_min"
    rows = horizon_comparison(reference_instance(), unit_circle(8), (2, 3), alpha_bar=0.01)
    for line, row in zip(lines[1:], rows):
        n, a, b = line.split(",")
        assert int(n) == row[0]
        assert float(a) == pytest.approx(row[1], rel=1e-12)
        assert float(b) == pytest.approx(row[2], rel=1e-12)


def test_reproduce_paper_reports_the_known_mismatch(tmp_path, capsys):
    rc = main(["reproduce-paper", "--workers", "4", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    # One recorded figure cannot be reproduced; the command says so and
    # signals it through the exit code instead of papering over it.
    assert rc == 4
    assert "[FAIL] grid-min-realized-degree" in out
    assert "10 of 11 reference checks passed" in out
    report = (tmp_path / "reference_checks.txt").read_text()
    assert report == out


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "mpccert.cli", "riccati", "--plant", PLANT, "--horizon", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "P_2" in proc.stdout


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ("riccati", "run"))
def test_ladder_overflow_exits_3(command, tmp_path, capsys):
    # The bundled plant with A[0, 0] = 1e200: P_2 overflows, reported
    # with a message and no NumPy warning.
    plant = tmp_path / "overflow.txt"
    plant.write_text(Path(PLANT).read_text().replace("\n1 1.1\n", "\n1e200 1.1\n"))
    plant = str(plant)
    argv = ["riccati", "--plant", plant, "--horizon", "3"]
    if command == "run":
        argv = _run_args(tmp_path, "alg1")
        argv[argv.index("--plant") + 1] = plant
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["solver error: value recursion overflows at ladder step 2: P_2 is not finite"]
    assert not captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("x0,code", (("1e160,0", 2), ("1e150,0", 0)))
def test_initial_value_overflow_exits_2(x0, code, tmp_path, capsys):
    # x0' P_3 x0 overflows at 1e160 but not at 1e150, which converges; the
    # overflow is reported with a message and no NumPy warning.
    argv = _run_args(tmp_path, "alg3")
    argv[argv.index("--x0") + 1] = x0
    if code:
        assert main(argv) == code
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the value of initial state [1.e+160") and line.endswith("] is not finite")
        assert not captured.out
    else:
        assert main(argv) == code
        assert "status = converged" in capsys.readouterr().out


# Plants on which a state passes the value check x0' P_3 x0 and still
# overflows, as edits of the bundled plant file and that state: with
# Q = 1e-20 I the square norm x0' x0 overflows at 1e160; with A = 10 I and
# R = 1e10 the first plan's end values overflow at 1e152, where x0' x0
# and x0' P_3 x0 are finite.
OVERFLOWING = {
    "tiny-q": ({"Q\n1 0\n0 1\n": "Q\n1e-20 0\n0 1e-20\n"}, [1e160, 0.0]),
    "growing": ({"A\n1 1.1\n-1.1 1\n": "A\n10 0\n0 10\n", "R\n1\n": "R\n1e10\n"}, [1e152, 0.0]),
}

# States from which a run on the same plants passes every check of its
# first iteration and overflows later, under alg1 at N = 3 and alpha_bar
# 0.5: with Q = 1e-20 I the run from (1, 0) diverges and its value
# overflows after about 950 of its 1000 iterations; with A = 10 I and
# R = 1e10 the value from (1e150, 0) overflows on the third iteration.
DIVERGING = {"tiny-q": [1.0, 0.0], "growing": [1e150, 0.0]}


def _overflowing_plant(tmp_path, name) -> str:
    text = Path(PLANT).read_text()
    for old, new in OVERFLOWING[name][0].items():
        assert old in text
        text = text.replace(old, new)
    plant = tmp_path / f"{name}.txt"
    plant.write_text(text)
    return str(plant)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", OVERFLOWING)
def test_overflowing_state_with_a_finite_value_exits_2(name, tmp_path, capsys):
    argv = _run_args(tmp_path / "out", "alg3")
    argv[argv.index("--plant") + 1] = _overflowing_plant(tmp_path, name)
    argv[argv.index("--x0") + 1] = ",".join(map(str, OVERFLOWING[name][1]))
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line == f"error: the value of initial state {np.array(OVERFLOWING[name][1])} is not finite"
    assert not captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", OVERFLOWING)
def test_sweep_turns_an_overflowing_state_into_an_error_row(name, tmp_path):
    # The other rows run as they do without it; the cap keeps their
    # growing states finite on these plants.
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, name)), 3)
    config = AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.5, max_iterations=20)
    points = np.array([[1.0, 0.0], OVERFLOWING[name][1], [0.0, 1.0]])
    report = sweep(solver, InitialSet(name="overflow", points=points), config)
    assert report.error_indices() == (2,)
    assert report.runs.errors[1].endswith("is not finite")
    clean = sweep(solver, InitialSet(name="clean", points=points[[0, 2]]), config)
    assert report.runs.alpha_cor3[[0, 2]].tolist() == clean.runs.alpha_cor3.tolist()
    assert report.runs.status[::2] == clean.runs.status


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", DIVERGING)
def test_run_that_overflows_mid_run_exits_2(name, tmp_path, capsys):
    argv = _run_args(tmp_path / "out", "alg1")
    argv[argv.index("--plant") + 1] = _overflowing_plant(tmp_path, name)
    argv[argv.index("--x0") + 1] = ",".join(map(str, DIVERGING[name]))
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line == f"error: the run from initial state {np.array(DIVERGING[name])} overflows"
    assert not captured.out


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", DIVERGING)
def test_run_batch_with_traces_raises_on_a_run_that_overflows(name, tmp_path):
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, name)), 3)
    config = AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5)
    message = f"the run from initial state {np.array(DIVERGING[name])} overflows"
    with pytest.raises(ConfigError) as excinfo:
        run_batch(solver, np.array([DIVERGING[name]]), config, traces=True)
    assert str(excinfo.value) == message


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_sweep_turns_a_run_that_overflows_mid_run_into_an_error_row(tmp_path):
    # The cap keeps the growing states of the other rows finite.
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, "growing")), 3)
    config = AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5, max_iterations=20)
    points = np.array([[1.0, 0.0], DIVERGING["growing"], [0.0, 1.0]])
    report = sweep(solver, InitialSet(name="overflow", points=points), config)
    assert report.error_indices() == (2,)
    assert report.runs.errors[1].endswith("overflows")
    clean = sweep(solver, InitialSet(name="clean", points=points[[0, 2]]), config)
    assert report.runs.status[::2] == clean.runs.status
    for field in fields(BatchRun):
        column = getattr(clean.runs, field.name)
        if isinstance(column, np.ndarray):
            assert getattr(report.runs, field.name)[::2].tobytes() == column.tobytes(), field.name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sweep_with_every_kind_of_row_fault_is_one_engine_run(tmp_path, engine_calls):
    # On the growing plant: a point that is not finite, one whose first plan
    # overflows, one whose run overflows later, and one that fails the
    # first two checks, which gives the first one's text.  The sweep is one
    # engine run, and each clean row has the clean sweep's bits.
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, "growing")), 3)
    config = AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5, max_iterations=20)
    grid = unit_circle(8)
    faults = {1: [np.nan, 1.0], 3: OVERFLOWING["growing"][1], 4: DIVERGING["growing"], 6: [np.inf, 1e152]}
    points = grid.points.copy()
    points[list(faults)] = list(faults.values())
    report = sweep(solver, InitialSet(name="faulty", points=points), config)
    assert engine_calls == [8]
    assert report.error_indices() == (2, 4, 5, 7)
    texts = ("initial states must be finite, got {}", "the value of initial state {} is not finite")
    texts += ("the run from initial state {} overflows", texts[0])
    assert [report.runs.errors[i] for i in faults] == [t.format(points[i]) for t, i in zip(texts, faults)]
    clean, others = sweep(solver, grid, config), [i for i in range(8) if i not in faults]
    assert [report.runs.status[i] for i in others] == [clean.runs.status[i] for i in others]
    for field in fields(BatchRun):
        column = getattr(clean.runs, field.name)
        if isinstance(column, np.ndarray):
            assert getattr(report.runs, field.name)[others].tobytes() == column[others].tobytes(), field.name


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_sweep_whose_every_point_diverges_is_one_engine_run(tmp_path, engine_calls, iterations):
    # Every point of the 128-point circle diverges on the growing plant
    # under the default cap: 128 error rows from one engine run, which
    # stops at the first power-of-two iteration after the overflow (the
    # 256th, about 100 after it), not at the cap of 1000.
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, "growing")), 3)
    report = sweep(solver, unit_circle(128), AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5))
    assert engine_calls == [128]
    assert len(iterations) <= 257
    assert report.statuses() == {"error": 128}
    assert all(error.endswith("overflows") for error in report.runs.errors)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_run_that_diverges_stops_at_the_next_power_of_two_iteration(tmp_path, iterations):
    # From (1, 0) on the growing plant the run overflows after about 150
    # iterations and stops at iteration 256, with the text of the check at
    # the end of a run.
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, "growing")), 3)
    with pytest.raises(ConfigError) as excinfo:
        run_batch(solver, np.array([[1.0, 0.0]]), AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5))
    assert str(excinfo.value) == f"the run from initial state {np.array([1.0, 0.0])} overflows"
    assert len(iterations) <= 257


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_run_batch_raises_the_error_of_its_first_failed_row(tmp_path):
    # Of the two failed rows, the first overflows late in its run and the
    # second on its first plan: the first one's error is raised, in input
    # order, not the one found first.
    solver = LqLadderSolver(load_plant(_overflowing_plant(tmp_path, "growing")), 3)
    config = AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5, max_iterations=20)
    X = np.array([[1.0, 0.0], DIVERGING["growing"], OVERFLOWING["growing"][1]])
    with pytest.raises(ConfigError) as excinfo:
        run_batch(solver, X, config, traces=True)
    assert str(excinfo.value) == f"the run from initial state {X[1]} overflows"

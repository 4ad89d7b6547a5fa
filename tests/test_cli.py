import filecmp
import subprocess
import sys
from pathlib import Path

import pytest

from mpccert.cli import main
from mpccert.refchecks import reference_instance
from mpccert.sweep import horizon_comparison, unit_circle

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
    # The last point of unit-circle:k is the faulty solver's marker (1, 0):
    # the one point of unit-circle:1 fails, and one of the two of unit-circle:2.
    from test_sweep import _FaultySolver

    monkeypatch.setattr("mpccert.cli.LqLadderSolver", _FaultySolver)
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


@pytest.mark.parametrize("command", ("riccati", "run"))
def test_ladder_overflow_exits_3(command, tmp_path, capsys):
    # The bundled plant with A[0, 0] = 1e200: P_2 overflows.
    plant = tmp_path / "overflow.txt"
    plant.write_text(Path(PLANT).read_text().replace("\n1 1.1\n", "\n1e200 1.1\n"))
    plant = str(plant)
    argv = ["riccati", "--plant", plant, "--horizon", "3"]
    if command == "run":
        argv = _run_args(tmp_path, "alg1")
        argv[argv.index("--plant") + 1] = plant
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["solver error: value recursion overflows at ladder step 2: P_2 is not finite"]
    assert not captured.out


@pytest.mark.parametrize("x0,code", (("1e160,0", 2), ("1e150,0", 0)))
def test_initial_value_overflow_exits_2(x0, code, tmp_path, capsys):
    # x0' P_3 x0 overflows at 1e160 but not at 1e150, which converges.
    argv = _run_args(tmp_path, "alg3")
    argv[argv.index("--x0") + 1] = x0
    if code:
        with pytest.warns(RuntimeWarning, match="overflow"):
            assert main(argv) == code
        captured = capsys.readouterr()
        (line,) = captured.err.splitlines()
        assert line.startswith("error: the value of initial state [1.e+160") and line.endswith("] is not finite")
        assert not captured.out
    else:
        assert main(argv) == code
        assert "status = converged" in capsys.readouterr().out

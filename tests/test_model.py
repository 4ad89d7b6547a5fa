from pathlib import Path

import numpy as np
import pytest

from mpccert.errors import ConfigError, PlantFormatError
from mpccert.model import LinearQuadraticInstance, load_plant


def test_step_applies_linear_dynamics(lq):
    # A @ (0,1) = (1.1, 1); A @ (1,0) + B = (1, -1.1) + (0, 1)
    assert np.allclose(lq.dynamics(np.array([0.0, 1.0]), np.array([0.0])), [1.1, 1.0])
    assert np.allclose(lq.dynamics(np.array([1.0, 0.0]), np.array([1.0])), [1.0, -0.1])


def test_stage_cost_is_quadratic(lq):
    x = np.array([0.5, -2.0])
    u = np.array([3.0])
    assert lq.stage_cost(x, u) == pytest.approx(0.25 + 4.0 + 9.0)


def test_lq_validation_rejects_bad_weights():
    a = np.eye(2)
    b = np.array([[0.0], [1.0]])
    with pytest.raises(ConfigError):
        LinearQuadraticInstance(A=a, B=b, Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1))
    with pytest.raises(ConfigError):
        LinearQuadraticInstance(A=a, B=b, Q=np.eye(2), R=np.zeros((1, 1)))
    with pytest.raises(ConfigError):
        LinearQuadraticInstance(A=a, B=np.zeros((3, 1)), Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ConfigError):
        LinearQuadraticInstance(A=a, B=b, Q=np.array([[-1.0, 0.0], [0.0, 1.0]]), R=np.eye(1))
    with pytest.raises(ConfigError, match=r"A must be square, got shape \(2, 3\)"):
        LinearQuadraticInstance(A=np.ones((2, 3)), B=b, Q=np.eye(2), R=np.eye(1))
    with pytest.raises(ConfigError, match=r"Q must have shape \(2, 2\), got \(3, 3\)"):
        LinearQuadraticInstance(A=a, B=b, Q=np.eye(3), R=np.eye(1))
    with pytest.raises(ConfigError, match=r"R must have shape \(1, 1\), got \(2, 2\)"):
        LinearQuadraticInstance(A=a, B=b, Q=np.eye(2), R=np.eye(2))


@pytest.mark.parametrize(
    "A, B, R",
    [
        (np.eye(2), np.zeros((2, 0)), np.zeros((0, 0))),
        (np.zeros((0, 0)), np.zeros((0, 1)), np.eye(1)),
    ],
    ids=["no-control", "no-state"],
)
def test_lq_validation_rejects_zero_size_plants(A, B, R):
    n = A.shape[0]
    with pytest.raises(ConfigError, match="state_dim and control_dim must be positive"):
        LinearQuadraticInstance(A=A, B=B, Q=np.eye(n), R=R)


@pytest.mark.parametrize("name", ["A", "B", "Q", "R"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_lq_validation_rejects_non_finite_matrices(name, bad):
    mats = {"A": np.eye(2), "B": np.array([[0.0], [1.0]]), "Q": np.eye(2), "R": np.eye(1)}
    mats[name][-1, -1] = bad
    with pytest.raises(ConfigError, match=f"{name} must have finite entries"):
        LinearQuadraticInstance(**mats)


def test_load_plant_roundtrip(lq, tmp_path):
    path = tmp_path / "plant.txt"
    path.write_text(
        "# comment\n"
        "state_dim 2\n"
        "control_dim 1\n"
        "A\n1 1.1\n-1.1 1\n"
        "B\n0\n1\n"
        "Q\n1 0\n0 1\n"
        "R\n1\n"
    )
    loaded = load_plant(path)
    assert np.array_equal(loaded.A, lq.A)
    assert np.array_equal(loaded.B, lq.B)
    assert np.array_equal(loaded.Q, lq.Q)
    assert np.array_equal(loaded.R, lq.R)


def test_load_shipped_plant_file(lq):
    plant = Path(__file__).resolve().parent.parent / "plants" / "spiral2d.txt"
    loaded = load_plant(plant)
    assert np.array_equal(loaded.A, lq.A)
    assert np.array_equal(loaded.B, lq.B)


@pytest.mark.parametrize(
    "content, line, fragment",
    [
        ("state_dim 2\ncontrol_dim 1\nA\n1 x\n", 4, "invalid number"),
        ("state_dim 2\ncontrol_dim 1\nA\n1 2\n3\n", 5, "entries"),
        ("state_dim 2\nstate_dim 2\n", 2, "duplicate"),
        ("bogus 1\n", 1, "unexpected"),
        ("state_dim two\n", 1, "invalid integer"),
        ("state_dim 2\ncontrol_dim 1\nA\nA\n", 4, "duplicate"),
        ("state_dim 2\ncontrol_dim 1\nA\n1 nan\n", 4, "non-finite"),
        ("state_dim 2\ncontrol_dim 1\nA\n1 0\n0 1\nB\n0\n-inf\n", 8, "non-finite"),
        ("state_dim 2 3\n", 1, "expected 'state_dim <int>'"),
        ("state_dim 2\ncontrol_dim 1\nA 1\n", 3, "section header 'A' takes no values on its line"),
    ],
)
def test_load_plant_reports_line_numbers(tmp_path, content, line, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content)
    with pytest.raises(PlantFormatError) as err:
        load_plant(path)
    assert f"line {line}" in str(err.value)
    assert fragment in str(err.value)


def test_load_plant_missing_and_misshapen_sections(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("state_dim 2\ncontrol_dim 1\nA\n1 0\n0 1\nB\n0\n1\nQ\n1 0\n0 1\n")
    with pytest.raises(PlantFormatError) as err:
        load_plant(path)
    assert "missing section R" in str(err.value)

    path.write_text(
        "state_dim 2\ncontrol_dim 1\nA\n1 0\n0 1\n1 1\nB\n0\n1\nQ\n1 0\n0 1\nR\n1\n"
    )
    with pytest.raises(PlantFormatError) as err:
        load_plant(path)
    assert "shape" in str(err.value)

    path.write_text("control_dim 1\nA\n1 0\n0 1\nB\n0\n1\nQ\n1 0\n0 1\nR\n1\n")
    with pytest.raises(PlantFormatError, match="missing state_dim"):
        load_plant(path)

    path.write_text(
        "state_dim 2\ncontrol_dim 1\nA\n1 0\n0 1\nB\n0\n1\nQ\n1 0\n0 1\nR\n1\nequilibrium_state\n0 0 0\n"
    )
    with pytest.raises(PlantFormatError, match="section equilibrium_state must have 2 entries"):
        load_plant(path)


def test_load_plant_missing_file(tmp_path):
    with pytest.raises(PlantFormatError):
        load_plant(tmp_path / "nope.txt")


def test_load_plant_rejects_nonzero_equilibrium(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "state_dim 2\ncontrol_dim 1\nA\n1 0\n0 1\nB\n0\n1\nQ\n1 0\n0 1\nR\n1\n"
        "equilibrium_state\n1 0\n"
    )
    with pytest.raises(PlantFormatError) as err:
        load_plant(path)
    assert "equilibrium_state" in str(err.value)

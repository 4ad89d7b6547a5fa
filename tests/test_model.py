from pathlib import Path

import numpy as np
import pytest

from mpccert.errors import AdmissibilityError, ConfigError, PlantFormatError
from mpccert.model import (
    LinearQuadraticInstance,
    SystemModel,
    load_plant,
    step,
    trajectory_cost,
)


def test_step_applies_linear_dynamics(model):
    # A @ (0,1) = (1.1, 1); A @ (1,0) + B = (1, -1.1) + (0, 1)
    assert np.allclose(step(model, [0.0, 1.0], [0.0]), [1.1, 1.0])
    assert np.allclose(step(model, [1.0, 0.0], [1.0]), [1.0, -0.1])


def test_step_rejects_wrong_shapes(model):
    with pytest.raises(ConfigError):
        step(model, [1.0, 0.0, 0.0], [0.0])
    with pytest.raises(ConfigError):
        step(model, [1.0, 0.0], [0.0, 0.0])


def test_stage_cost_is_quadratic(lq):
    x = np.array([0.5, -2.0])
    u = np.array([3.0])
    assert lq.stage_cost(x, u) == pytest.approx(0.25 + 4.0 + 9.0)
    assert lq.min_stage_cost(x) == pytest.approx(4.25)


def test_trajectory_cost_prefix_additivity(model):
    rng = np.random.default_rng(7)
    for _ in range(20):
        x0 = rng.uniform(-2.0, 2.0, size=2)
        controls = rng.uniform(-1.0, 1.0, size=(6, 1))
        total, states = trajectory_cost(model, x0, controls)
        head, states_head = trajectory_cost(model, x0, controls[:4])
        tail, _ = trajectory_cost(model, states_head[-1], controls[4:])
        assert states.shape == (7, 2)
        assert abs(total - (head + tail)) <= 1e-12 * max(1.0, total)


def test_equilibrium_must_be_fixed_point():
    with pytest.raises(ConfigError):
        SystemModel(
            state_dim=1,
            control_dim=1,
            dynamics=lambda x, u: x + 1.0,
            stage_cost=lambda x, u: float(x @ x),
            equilibrium_state=np.zeros(1),
            equilibrium_control=np.zeros(1),
        )


def test_equilibrium_must_have_zero_cost():
    with pytest.raises(ConfigError):
        SystemModel(
            state_dim=1,
            control_dim=1,
            dynamics=lambda x, u: x,
            stage_cost=lambda x, u: float(x @ x) + 1.0,
            equilibrium_state=np.zeros(1),
            equilibrium_control=np.zeros(1),
        )


def test_admissibility_predicates_are_enforced():
    box = SystemModel(
        state_dim=1,
        control_dim=1,
        dynamics=lambda x, u: x + u,
        stage_cost=lambda x, u: float(x @ x + u @ u),
        equilibrium_state=np.zeros(1),
        equilibrium_control=np.zeros(1),
        state_admissible=lambda x: bool(np.all(np.abs(x) <= 2.0)),
        control_admissible=lambda u: bool(np.all(np.abs(u) <= 1.0)),
    )
    assert np.allclose(step(box, [1.0], [0.5]), [1.5])
    with pytest.raises(AdmissibilityError) as err:
        step(box, [3.0], [0.5])
    assert "3." in str(err.value)
    with pytest.raises(AdmissibilityError):
        step(box, [1.0], [1.5])


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

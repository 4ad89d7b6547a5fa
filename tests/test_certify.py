import numpy as np
import pytest

from mpccert.certify import (
    Certificate,
    SlackAccumulator,
    alpha_m_step,
    alpha_m_steps,
    certificates_to_csv,
    update_acceptable,
)
from mpccert.errors import ConfigError


def test_alpha_m_step_basic():
    assert alpha_m_step(10.0, 4.0, 3.0) == pytest.approx(2.0)
    assert alpha_m_step(5.0, 5.0, 0.0) == 1.0
    with pytest.raises(ConfigError, match="got -1.0"):
        alpha_m_step(5.0, 4.0, -1.0)


def test_degree_rule_takes_integer_costs():
    # Integer arrays take the float rule: a zero cost certifies 1.
    assert alpha_m_steps(np.array([1]), np.array([2])).tolist() == [0.5]
    assert alpha_m_steps(np.array([1]), np.array([0])).tolist() == [1.0]
    assert alpha_m_step(3, 1, 0) == 1.0


def test_alpha_m_steps_matches_scalar_rule():
    v_before = 5.1
    v_after = np.array([4.0, 5.1, -0.3, 5.1])
    costs = np.array([3.0, 0.0, 0.7, 2.0])
    # The rule by hand, one stretch at a time: alpha_m_step is built on alpha_m_steps.
    expected = [(v_before - float(va)) / float(c) if c else 1.0 for va, c in zip(v_after, costs)]
    assert alpha_m_steps(v_before - v_after, costs).tolist() == expected
    with pytest.raises(ConfigError):
        alpha_m_steps(np.array([1.0, 1.0]), np.array([1.0, -1.0]))


def test_two_step_degrees_at_reference_states(solver):
    # The quotient of value drop to paid cost after two planned steps.
    for x, expected in (([0.0, 1.0], 0.514376631), ([1.0, 0.0], 0.747027227)):
        sol = solver.solve(np.array(x), 3)
        v2 = solver.value_of(sol.trajectory[2], 3)
        cost = float(sol.stage_costs[0] + sol.stage_costs[1])
        assert alpha_m_step(sol.value, v2, cost) == pytest.approx(expected, abs=1e-8)


def test_rho_identity_with_alpha():
    rng = np.random.default_rng(3)
    for _ in range(200):
        v0, drop, cost = rng.uniform(0.5, 10.0, size=3)
        alpha_bar = rng.uniform(0.0, 1.0)
        cert = Certificate.build(0, 0, 1, v0, v0 - drop, cost, alpha_bar)
        assert cert.rho == pytest.approx(cost * (cert.alpha - alpha_bar), rel=1e-12)
    with pytest.raises(ConfigError):
        Certificate.build(0, 0, 1, 1.0, 0.5, -0.1, 0.0)


def test_certificate_build_consistency():
    cert = Certificate.build(
        n=2, sigma=5, m=3, v_before=9.0, v_after=4.0, cost_sum=4.0, alpha_bar=0.25
    )
    assert cert.alpha == pytest.approx(1.25)
    assert cert.rho == pytest.approx(5.0 - 1.0)


def test_slack_accumulator_history():
    acc = SlackAccumulator()
    assert acc.total == 0.0
    acc.add(0.5)
    acc.add(-0.2)
    acc.add(0.1)
    assert acc.total == pytest.approx(0.4)
    assert acc.values == pytest.approx([0.5, 0.3, 0.4])


def test_update_acceptable_threshold(solver):
    # Re-planning after one of two steps from (0,1): the replacement
    # certifies 0.5136..., so it passes at 0.5 and fails at 0.52.
    x = np.array([0.0, 1.0])
    sol = solver.solve(x, 3)
    sol2 = solver.solve(sol.trajectory[1], 3)
    end_value = solver.value_of(sol2.trajectory[1], 3)
    assert update_acceptable(sol, sol2, j=1, m=2, alpha_bar=0.5, end_value=end_value)
    assert not update_acceptable(sol, sol2, j=1, m=2, alpha_bar=0.52, end_value=end_value)


def test_update_acceptable_validates_offsets(solver):
    x = np.array([0.0, 1.0])
    sol = solver.solve(x, 3)
    sol2 = solver.solve(sol.trajectory[1], 3)
    with pytest.raises(ConfigError):
        update_acceptable(sol, sol2, j=0, m=2, alpha_bar=0.5, end_value=1.0)
    with pytest.raises(ConfigError):
        update_acceptable(sol, sol2, j=2, m=2, alpha_bar=0.5, end_value=1.0)
    with pytest.raises(ConfigError):
        update_acceptable(sol, sol2, j=1, m=6, alpha_bar=0.5, end_value=1.0)


def test_accepted_updates_preserve_window_inequality(solver):
    # Whenever the budget check accepts a replacement, the realized
    # two-step window still satisfies the descent inequality at the
    # same threshold.
    rng = np.random.default_rng(17)
    alpha_bar = 0.4
    accepted = 0
    for _ in range(200):
        x = rng.uniform(-2.0, 2.0, size=2)
        sol = solver.solve(x, 3)
        sol2 = solver.solve(sol.trajectory[1], 3)
        end_value = solver.value_of(sol2.trajectory[1], 3)
        if update_acceptable(sol, sol2, j=1, m=2, alpha_bar=alpha_bar, end_value=end_value):
            accepted += 1
            paid = float(sol.stage_costs[0] + sol2.stage_costs[0])
            assert sol.value - end_value >= alpha_bar * paid - 1e-10
    assert accepted > 100


def test_certificates_to_csv_format(tmp_path):
    certs = [
        Certificate.build(0, 0, 1, 5.0, 4.0, 2.0, 0.25),
        Certificate.build(1, 1, 2, 4.0, 1.0, 3.0, 0.25),
    ]
    acc = SlackAccumulator()
    for c in certs:
        acc.add(c.rho)
    path = tmp_path / "certs.csv"
    certificates_to_csv(certs, acc.values, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "n,sigma_n,m_n,v_before,v_after,cost_sum,alpha,rho,s_n"
    assert lines[1].startswith("0,0,1,5,4,2,0.5,0.5,")
    assert len(lines) == 3
    with pytest.raises(ConfigError):
        certificates_to_csv(certs, [0.0], path)

import numpy as np
import pytest

from mpccert.errors import ConfigError
from mpccert.riccati import (
    LqBellmanSolver,
    LqLadderSolver,
    lq_solve,
    riccati_fixed_point,
    riccati_ladder,
    solve,
)

# Hand-checked second rung: P_2 = Q + A'A - (A'B)(B'B + R)^{-1}(B'A)
# with A'A = 2.21 I, A'B = (-1.1, 1)', B'B + R = 2.
P2 = np.array([[2.605, 0.55], [0.55, 2.71]])
# Next rungs frozen from an independent recomputation of the recursion.
P3 = np.array([[4.081172506739, 1.941173854447], [1.941173854447, 5.109994743935]])
P4 = np.array([[4.777466063348, 2.824212669683], [2.824212669683, 6.727271546881]])
# Limit of the recursion, frozen from iterating until the update stalls.
P_INF = np.array([[5.098399378801, 3.210349332439], [3.210349332439, 7.406837722921]])


def test_ladder_matches_frozen_rungs(lq):
    ladder = riccati_ladder(lq, 4)
    assert np.allclose(ladder.matrix(1), np.eye(2), atol=1e-15)
    assert np.allclose(ladder.matrix(2), P2, atol=1e-12)
    assert np.allclose(ladder.matrix(3), P3, atol=1e-9)
    assert np.allclose(ladder.matrix(4), P4, atol=1e-9)
    assert np.array_equal(ladder.matrix(0), np.zeros((2, 2)))


def test_ladder_symmetry_psd_monotone(lq):
    ladder = riccati_ladder(lq, 20)
    previous = np.zeros((2, 2))
    for j in range(1, 21):
        p = ladder.matrix(j)
        assert np.array_equal(p, p.T)
        eigs = np.linalg.eigvalsh(p)
        assert eigs.min() >= -1e-12
        # The value grows with the horizon: P_{j} - P_{j-1} is PSD.
        assert np.linalg.eigvalsh(p - previous).min() >= -1e-10
        previous = p


def test_ladder_index_bounds(lq):
    ladder = riccati_ladder(lq, 3)
    with pytest.raises(ConfigError):
        ladder.matrix(4)
    with pytest.raises(ConfigError):
        ladder.matrix(-1)
    ladder.extend(5)
    assert ladder.matrix(5).shape == (2, 2)


def test_fixed_point_matches_frozen_limit(lq):
    p_inf = riccati_fixed_point(lq)
    assert np.allclose(p_inf, P_INF, atol=1e-6)
    ladder = riccati_ladder(lq, 40)
    assert np.allclose(ladder.matrix(40), p_inf, atol=1e-9)


def test_values_at_reference_states(solver):
    # (0,1) picks out P_3[1,1]; (1,0) picks out P_3[0,0].
    assert solver.value_of([0.0, 1.0], 3) == pytest.approx(5.109994743935, abs=1e-9)
    assert solver.value_of([1.0, 0.0], 3) == pytest.approx(4.081172506739, abs=1e-9)


def test_solution_shapes_and_value_consistency(solver):
    sol = solver.solve(np.array([0.4, -1.2]), 5)
    assert sol.horizon == 5
    assert sol.controls.shape == (5, 1)
    assert sol.trajectory.shape == (6, 2)
    assert sol.stage_costs.shape == (5,)
    assert sol.tail_values.shape == (5,)
    assert sol.value == pytest.approx(solver.value_of(sol.trajectory[0], 5), rel=1e-12)
    # The last planned step applies zero control under the descending law.
    assert sol.controls[-1] == pytest.approx(0.0, abs=0.0)


def test_descending_law_first_control(solver):
    sol = solver.solve(np.array([0.0, 1.0]), 3)
    assert sol.controls[0, 0] == pytest.approx(-1.185808873, abs=1e-8)
    assert np.allclose(sol.trajectory[1], [1.1, -0.185808873], atol=1e-8)


def test_tail_values_match_fresh_solves(solver, bellman):
    rng = np.random.default_rng(11)
    for s in (solver, bellman):
        for _ in range(100):
            x = rng.uniform(-2.0, 2.0, size=2)
            n = int(rng.integers(2, 6))
            sol = s.solve(x, n)
            for k in range(n):
                fresh = s.solve(sol.trajectory[k], n - k).value
                assert sol.tail_values[k] == pytest.approx(fresh, rel=1e-9, abs=1e-12)


def test_value_satisfies_one_step_recursion(solver):
    # value_of(x, N) = min_u [stage cost + value_of(f(x, u), N - 1)], with
    # the minimiser available in closed form from the ladder gain.
    lq = solver.lq
    rng = np.random.default_rng(23)
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=2)
        n = int(rng.integers(2, 7))
        u_star = -solver.ladder.gain(n - 1) @ x
        best = lq.stage_cost(x, u_star) + solver.value_of(lq.dynamics(x, u_star), n - 1)
        assert solver.value_of(x, n) == pytest.approx(best, rel=1e-9)
        for _ in range(5):
            u = rng.uniform(-3.0, 3.0, size=1)
            attempt = lq.stage_cost(x, u) + solver.value_of(lq.dynamics(x, u), n - 1)
            assert attempt >= best - 1e-9


def test_value_monotone_in_horizon(solver):
    rng = np.random.default_rng(31)
    for _ in range(50):
        x = rng.uniform(-2.0, 2.0, size=2)
        for n in range(1, 10):
            assert solver.value_of(x, n + 1) >= solver.value_of(x, n) - 1e-12


def _brute_force_two_step(lq, x, span=4.0, points=41, rounds=7):
    # Grid search over (u0, u1) with repeated refinement around the best cell.
    centre = np.zeros(2)
    width = span
    best = (np.inf, centre)
    for _ in range(rounds):
        axis0 = np.linspace(centre[0] - width, centre[0] + width, points)
        axis1 = np.linspace(centre[1] - width, centre[1] + width, points)
        for u0 in axis0:
            for u1 in axis1:
                x1 = lq.dynamics(x, np.array([u0]))
                cost = (
                    lq.stage_cost(x, np.array([u0]))
                    + lq.stage_cost(x1, np.array([u1]))
                )
                if cost < best[0]:
                    best = (cost, np.array([u0, u1]))
        centre = best[1]
        width = 2.0 * (2.0 * width / (points - 1))
    return best


def test_bellman_controls_match_brute_force(lq, bellman):
    for x in (np.array([0.7, -1.3]), np.array([-1.0, 0.4]), np.array([0.0, 1.0])):
        cost, controls = _brute_force_two_step(lq, x)
        sol = bellman.solve(x, 2)
        assert np.allclose(sol.controls.ravel(), controls, atol=1e-4)
        assert cost == pytest.approx(sol.value, abs=1e-8)
        # The brute-force minimum is the quadratic form of the second rung.
        assert cost == pytest.approx(float(x @ P2 @ x), abs=1e-8)


def test_bellman_plan_attains_value_descending_plan_does_not(solver, bellman):
    x = np.array([0.0, 1.0])
    opt = bellman.solve(x, 3)
    assert opt.realized_cost == pytest.approx(opt.value, rel=1e-12)
    plan = solver.solve(x, 3)
    assert plan.realized_cost > plan.value + 0.1
    assert not np.allclose(plan.controls, opt.controls, atol=1e-3)


def test_one_step_optimality_gap(solver, bellman):
    # l(x, u_0) + value_of(x_1, N-1) - value_of(x, N) vanishes for the
    # dynamic-programming law and is strictly positive for the
    # descending-gain law at these states (frozen figures).
    for s, x, expected in (
        (bellman, np.array([0.0, 1.0]), 0.0),
        (solver, np.array([0.0, 1.0]), 0.316931784),
        (solver, np.array([1.0, 0.0]), 0.010418882),
    ):
        sol = s.solve(x, 3)
        gap = float(sol.stage_costs[0]) + s.value_of(sol.trajectory[1], 2) - sol.value
        assert gap == pytest.approx(expected, abs=1e-8)


def test_lq_solve_dispatch(lq):
    x = np.array([0.3, 0.8])
    assert lq_solve(lq, x, 3, law="ladder").controls[0, 0] != pytest.approx(
        lq_solve(lq, x, 3, law="bellman").controls[0, 0]
    )
    with pytest.raises(ConfigError):
        lq_solve(lq, x, 3, law="newton")


def test_solve_alias_and_horizon_validation(solver):
    x = np.array([0.3, 0.8])
    assert solve(solver, x, 4).value == pytest.approx(solver.value_of(x, 4))
    with pytest.raises(ConfigError):
        solver.solve(x, 0)
    with pytest.raises(ConfigError):
        solver.value_of(x, -1)


def test_state_shape_validation(solver):
    for bad in (np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ConfigError, match="state must have shape"):
            solver.value_of(bad, 3)
        with pytest.raises(ConfigError, match="state must have shape"):
            solver.solve(bad, 3)
    for bad in (np.zeros(2), np.zeros((4, 3))):
        with pytest.raises(ConfigError, match=r"state must have shape \(B, 2\)"):
            solver.values_of(bad, 3)
        with pytest.raises(ConfigError, match=r"state must have shape \(B, 2\)"):
            solver.rollout(bad, 3, 1)


def test_rollout_step_bounds(solver):
    X = np.array([[0.3, 0.8]])
    assert np.array_equal(solver.rollout(X, 3, 0), X)
    with pytest.raises(ConfigError):
        solver.rollout(X, 3, 4)
    with pytest.raises(ConfigError):
        solver.rollout(X, 3, -1)
    with pytest.raises(ConfigError):
        solver.rollout(X, 0, 0)

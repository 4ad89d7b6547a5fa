import gc
import os
import platform
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from mpccert.errors import ConfigError, SolverError
from mpccert.model import LinearQuadraticInstance
from mpccert.refchecks import reference_instance
from mpccert.riccati import (
    LqBellmanSolver,
    LqLadderSolver,
    RiccatiLadder,
    riccati_fixed_point,
    value_drop_grid,
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
    ladder = RiccatiLadder(lq, 4)
    assert np.allclose(ladder.matrix(1), np.eye(2), atol=1e-15)
    assert np.allclose(ladder.matrix(2), P2, atol=1e-12)
    assert np.allclose(ladder.matrix(3), P3, atol=1e-9)
    assert np.allclose(ladder.matrix(4), P4, atol=1e-9)
    assert np.array_equal(ladder.matrix(0), np.zeros((2, 2)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_ladder_overflow_raises_naming_the_step(lq):
    A = lq.A.copy()
    A[0, 0] = 1e200
    plant = LinearQuadraticInstance(A, lq.B, lq.Q, lq.R)
    with pytest.raises(SolverError, match="ladder step 2: P_2"):
        RiccatiLadder(plant, 3)
    ladder = RiccatiLadder(plant, 1)
    with pytest.raises(SolverError, match="ladder step 2"):
        ladder.extend(5)
    assert ladder.horizon == 1


def test_ladder_symmetry_psd_monotone(lq):
    ladder = RiccatiLadder(lq, 20)
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
    with pytest.raises(ConfigError, match="horizon must be at least 1, got 0"):
        RiccatiLadder(lq, 0)
    ladder = RiccatiLadder(lq, 3)
    for j in (-1, 4):
        with pytest.raises(ConfigError):
            ladder.matrix(j)
        with pytest.raises(ConfigError):
            ladder.gain(j)
    ladder.extend(5)
    assert ladder.matrix(5).shape == (2, 2)
    assert ladder.gain(5).shape == (1, 2)


def test_solvers_of_a_plant_share_its_ladder(monkeypatch):
    # The first solver builds the plant's ladder to N = 10; later solvers
    # of either law at N <= 10 append no rung.  Each keeps a step-kernel
    # table of its own, over the rungs of its own horizon.
    lq, X = reference_instance(), np.array([[0.3, 0.8], [-1.0, 0.2]])
    first = LqLadderSolver(lq, 10)
    table = first.value_table(10)
    appended = []
    append = RiccatiLadder._append
    monkeypatch.setattr(RiccatiLadder, "_append", lambda ladder, P: (appended.append(P), append(ladder, P)))
    for law, horizon in ((LqBellmanSolver, 10), (LqLadderSolver, 3), (LqBellmanSolver, 1), (LqLadderSolver, 10)):
        solver = law(lq, horizon)
        assert solver.ladder is first.ladder
        solver.plans(X, horizon)
        assert solver.value_table(horizon).shape[-1] == horizon + 1
        value_drop_grid(solver, 10, 3, n=5)
    assert appended == [] and first.value_table(10) is table
    assert first.ladder is not LqLadderSolver(reference_instance(), 10).ladder


def test_an_overflowing_plant_raises_the_same_error_on_every_solver(lq):
    # The rung that overflows is never kept, so every solver that needs it
    # raises the same text, and solvers that stop short of it still work.
    A = lq.A.copy()
    A[0, 0] = 1e200
    plant = LinearQuadraticInstance(A, lq.B, lq.Q, lq.R)
    texts = []
    for law, horizon in ((LqLadderSolver, 3), (LqBellmanSolver, 3), (LqLadderSolver, 2), (LqBellmanSolver, 5)):
        with pytest.raises(SolverError) as info:
            law(plant, horizon)
        texts.append(str(info.value))
    assert texts == ["value recursion overflows at ladder step 2: P_2 is not finite"] * 4
    X = np.array([[0.0, 1.0], [0.0, -0.5]])
    short = LqBellmanSolver(plant, 1).plans(X, 1)
    fresh = LqBellmanSolver(LinearQuadraticInstance(A, lq.B, lq.Q, lq.R), 1).plans(X, 1)
    for name in ("controls", "trajectory", "stage_costs", "value", "tail_values"):
        assert getattr(short, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_a_plant_and_its_ladder_are_freed_together():
    # The plant keeps its ladder, and the ladder keeps only the plant's
    # matrices, so nothing keeps a plant alive once its callers drop it.
    lq = reference_instance()
    LqLadderSolver(lq, 5).plans(np.array([[0.3, 0.8]]), 5)
    plant, ladder = weakref.ref(lq), weakref.ref(lq._ladder)
    del lq
    gc.collect()
    assert plant() is None and ladder() is None


def test_fixed_point_reports_a_recursion_that_never_settles():
    # A = I and B = 0: P_{j+1} = P_j + Q grows without bound.
    plant = LinearQuadraticInstance(np.eye(2), np.zeros((2, 1)), np.eye(2), np.eye(1))
    with pytest.raises(SolverError, match="did not settle in 10000 steps"):
        riccati_fixed_point(plant)


def test_fixed_point_matches_frozen_limit(lq):
    p_inf = riccati_fixed_point(lq)
    assert np.allclose(p_inf, P_INF, atol=1e-6)
    ladder = RiccatiLadder(lq, 40)
    assert np.allclose(ladder.matrix(40), p_inf, atol=1e-9)


# (state_dim, control_dim) of the in-test plants, two plants each.
SHAPES = ((1, 1), (2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2))


def _plant(n, c, seed):
    # A random plant whose open loop is unstable (spectral radius 1.2).
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 1.2 / np.max(np.abs(np.linalg.eigvals(A)))
    B = rng.normal(size=(n, c))
    M = rng.normal(size=(n, n))
    Q = M @ M.T + 0.5 * np.eye(n)
    M = rng.normal(size=(c, c))
    R = M @ M.T + np.eye(c)
    return LinearQuadraticInstance(A=A, B=B, Q=0.5 * (Q + Q.T), R=0.5 * (R + R.T))


def _plants():
    return [_plant(n, c, 100 * n + 10 * c + k) for n, c in SHAPES for k in range(2)]


def _textbook_ladder(lq, horizon):
    # P_{j+1} = Q + A'P_j A - A'P_j B (R + B'P_j B)^{-1} B'P_j A from P_0 = 0,
    # with K_j = (R + B'P_j B)^{-1} B'P_j A, through an explicit inverse.
    A, B, Q, R = lq.A, lq.B, lq.Q, lq.R
    P = np.zeros_like(Q)
    rungs, gains = [], []
    for _ in range(horizon + 1):
        G = np.linalg.inv(R + B.T @ P @ B)
        rungs.append(P)
        gains.append(G @ B.T @ P @ A)
        P = Q + A.T @ P @ A - A.T @ P @ B @ G @ B.T @ P @ A
    return rungs, gains


def _rel(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(b)), np.finfo(float).tiny)


def test_ladder_matches_textbook_recursion():
    for lq in _plants():
        ladder = RiccatiLadder(lq, 20)
        rungs, gains = _textbook_ladder(lq, 20)
        for j in range(21):
            assert _rel(ladder.matrix(j), rungs[j]) <= 1e-12
            assert _rel(ladder.gain(j), gains[j]) <= 1e-12
        assert not np.any(ladder.gain(0))


def test_grown_ladder_equals_one_built_at_once(lq):
    for plant in [lq] + _plants():
        grown = RiccatiLadder(plant, 1)
        for horizon in (3, 10, 20):
            grown.extend(horizon)
        built = RiccatiLadder(plant, 20)
        assert grown.horizon == built.horizon == 20
        for j in range(21):
            assert np.array_equal(grown.matrix(j), built.matrix(j))
            assert np.array_equal(grown.gain(j), built.gain(j))


def test_fixed_point_matches_scipy_dare(lq):
    linalg = pytest.importorskip("scipy.linalg")
    for plant in [lq] + _plants():
        expected = linalg.solve_discrete_are(plant.A, plant.B, plant.Q, plant.R)
        assert _rel(riccati_fixed_point(plant), expected) <= 1e-12


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


def test_the_two_laws_differ(lq):
    x = np.array([0.3, 0.8])
    assert LqLadderSolver(lq, 3).solve(x, 3).controls[0, 0] != pytest.approx(
        LqBellmanSolver(lq, 3).solve(x, 3).controls[0, 0]
    )


def test_solve_alias_and_horizon_validation(solver):
    # ``solve`` is the one-row case of ``plans``.
    x = np.array([0.3, 0.8])
    sol = solver.solve(x, 4)
    plan = solver.plans(x[None], 4)
    assert np.array_equal(sol.controls, plan.controls[0])
    assert np.array_equal(sol.trajectory, plan.trajectory[0])
    assert sol.value == plan.value[0] == pytest.approx(solver.value_of(x, 4))
    with pytest.raises(ConfigError):
        solver.solve(x, 0)
    with pytest.raises(ConfigError, match="at least 1, got 0"):
        solver.plans(x[None], 0)
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


_ROW = np.array([[0.3, 0.8]])


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda s: s.plans(_ROW, 2.5), "horizon"),
        (lambda s: RiccatiLadder(s.lq, 2.5), "horizon"),
        (lambda s: s.rollout(_ROW, 2.5, 1), "horizon"),
        (lambda s: value_drop_grid(s, 3, 1.5), "m"),
        (lambda s: value_drop_grid(s, 3, 1, n=2.5), "n"),
        (lambda s: value_drop_grid(s, 3, 1, n=-1), "n"),
        (lambda s: RiccatiLadder(s.lq, 2).extend(2.5), "horizon"),
        (lambda s: s.ladder.matrix(2.5), "ladder index"),
        (lambda s: s.ladder.gain(2.5), "ladder index"),
        (lambda s: s.ladder.matrix(-1), "ladder index"),
    ],
    ids=("plans", "ladder", "rollout", "grid-m", "grid-n", "grid-negative-n", "extend", "matrix", "gain", "matrix-negative"),
)
def test_horizons_and_counts_are_nonnegative_integers(solver, call, name):
    # Rounding would plan 2 steps for 2.5 but build 3 rungs for it.
    with pytest.raises(ConfigError, match=f"^{name} must be a nonnegative integer"):
        call(solver)


@pytest.mark.parametrize("n", (1, 64, 65, 101))
@pytest.mark.parametrize("horizon", (2, 3, 10))
@pytest.mark.parametrize("law", (LqLadderSolver, LqBellmanSolver), ids=lambda cls: cls.__name__)
def test_value_drop_grid_blocks_match_the_plan_path(lq, law, horizon, n):
    # The grid runs in blocks of whole rows of at most 4,096 states: n = 1
    # is one state, 64 one full block, 65 one block and a short one, 101
    # three blocks.  Every entry keeps the bits of the plan path.
    solver = law(lq, 2)
    axis = np.linspace(-1.5, 1.5, n)
    states = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    plans, before = solver.plans(states, horizon), solver.values_of(states, horizon)
    for m in range(1, horizon):
        grid_axis, drops = value_drop_grid(solver, horizon, m, n=n)
        want = before - solver.values_of(plans.trajectory[:, m], horizon)
        assert grid_axis.tobytes() == axis.tobytes()
        assert drops.shape == (n, n) and drops.tobytes() == want.tobytes(), m


_GRID_PASSES = """
import resource, statistics
from mpccert.refchecks import reference_instance
from mpccert.riccati import LqLadderSolver, value_drop_grid

lq, faults = reference_instance(), []
for _ in range(40):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for horizon, m in ((3, 1), (3, 2), (10, 1)):
        value_drop_grid(LqLadderSolver(lq, horizon), horizon, m)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(statistics.median(faults[10:]))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="MALLOC_MMAP_THRESHOLD_ is a glibc setting")
def test_drop_grid_passes_stay_off_fresh_heap_pages():
    # With its mmap threshold set, glibc never raises it, so each array
    # over 128 KiB is a fresh mapping: a pass through whole-grid (10,201, 2)
    # arrays took about 2,100 minor faults.  The grid's column blocks keep
    # every temporary at 32 KiB, inside the heap glibc keeps between passes.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "MALLOC_MMAP_THRESHOLD_": "131072"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _GRID_PASSES], env=env, capture_output=True, text=True, check=True)
    assert float(proc.stdout) <= 32

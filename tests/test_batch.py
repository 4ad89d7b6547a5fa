"""Batched planner and engine entry points against the single-state path.

Every comparison is exact (``==``): the certificate chain's contiguity
``v_after == v_before`` needs one value function, whichever path
evaluated it, and a sweep's records must not depend on which points
share its batch.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpccert.certify import row_sums
from mpccert.engine import AlgorithmConfig, run_batch, run_closed_loop
from mpccert.riccati import LqBellmanSolver, LqLadderSolver
from mpccert.sweep import unit_circle, value_drop_grid

LAWS = (LqLadderSolver, LqBellmanSolver)
HORIZONS = (2, 3, 10, 20)
# 0 puts a row at the origin; the others span tiny, unit and large states.
SCALES = (0.0, 1e-9, 1.0, 1e3)

_rows = st.tuples(
    st.sampled_from(SCALES),
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1.0, 1.0, allow_nan=False),
)
batches = st.lists(_rows, min_size=1, max_size=16).map(
    lambda rows: np.array([[s * a, s * b] for s, a, b in rows])
)


@pytest.fixture(scope="module")
def planners(lq):
    return {cls: cls(lq, 2) for cls in LAWS}


@pytest.mark.parametrize("horizon", HORIZONS)
@pytest.mark.parametrize("law", LAWS, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(X=batches)
@example(X=np.zeros((1, 2)))
@example(X=np.array([[1e-9, -2e-9], [1e3, 7e2], [0.0, 1.0]]))
def test_batch_matches_single_state(planners, law, horizon, X):
    s = planners[law]
    plans = [s.solve(x, horizon) for x in X]
    assert s.values_of(X, horizon).tolist() == [s.value_of(x, horizon) for x in X]
    for m in range(horizon + 1):
        assert s.rollout(X, horizon, m).tolist() == [p.trajectory[m].tolist() for p in plans]
    for x, plan in zip(X, plans):
        assert plan.value == s.value_of(x, horizon)
        for k in range(horizon):
            assert plan.tail_values[k] == s.value_of(plan.trajectory[k], horizon - k)


def _drop_grid_oracle(solver, horizon, m, extent=1.5, n=101):
    """The one-plan-per-state double loop that value_drop_grid replaced."""
    axis = np.linspace(-extent, extent, n)
    drops = np.empty((n, n))
    for i, x1 in enumerate(axis):
        for j, x2 in enumerate(axis):
            sol = solver.solve(np.array([x1, x2]), horizon)
            drops[i, j] = sol.value - solver.value_of(sol.trajectory[m], horizon)
    return axis, drops


@pytest.mark.parametrize("horizon,m", [(3, 1), (3, 2), (10, 1)])
@pytest.mark.parametrize("law", LAWS, ids=lambda cls: cls.__name__)
def test_value_drop_grid_matches_oracle(lq, law, horizon, m):
    axis, drops = value_drop_grid(law(lq, horizon), horizon, m, n=41)
    oracle_axis, oracle = _drop_grid_oracle(law(lq, horizon), horizon, m, n=41)
    assert np.array_equal(axis, oracle_axis)
    assert np.array_equal(drops, oracle)


@pytest.mark.parametrize("law", LAWS, ids=lambda cls: cls.__name__)
def test_plan_cache_is_keyed_per_horizon(lq, law):
    # One solver whose ladder grows between requests must plan exactly
    # like a fresh solver at each horizon, before and after the growth.
    x = np.array([0.4, -1.1])
    X = np.array([[0.4, -1.1], [-2.0, 0.5]])
    reused = law(lq, 2)
    for horizon in (3, 10, 3):
        plan = reused.solve(x, horizon)
        fresh_solver = law(lq, horizon)
        fresh = fresh_solver.solve(x, horizon)
        for name in ("controls", "trajectory", "stage_costs", "tail_values"):
            assert np.array_equal(getattr(plan, name), getattr(fresh, name))
        assert plan.value == fresh.value
        assert np.array_equal(
            reused.rollout(X, horizon, horizon - 1), fresh_solver.rollout(X, horizon, horizon - 1)
        )


# --- lockstep engine ---------------------------------------------------------


@settings(max_examples=50, deadline=None)
@given(
    spans=st.lists(st.tuples(st.integers(0, 10), st.integers(0, 30)), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_sums_match_one_row_sums(spans, seed):
    # Rows of mixed lengths, several beyond the 8 terms where np.sum
    # turns pairwise: each must come out as the 1-D sum of its slice.
    a = np.random.default_rng(seed).uniform(0.0, 1e3, size=(len(spans), 40))
    start = np.array([s for s, _ in spans])
    length = np.array([n for _, n in spans])
    sums = row_sums(a, length, start=start)
    assert sums.tolist() == [np.sum(a[i, s : s + n]) for i, (s, n) in enumerate(spans)]

# Each configuration reaches a path the others may miss: exit fallback,
# slack cover, watchdog warnings, mid-stretch re-plans, forced lengths
# (an int and a sequence), windows longer than 8 steps, horizon
# shrinking and the iteration cap.
ENGINE_CONFIGS = (
    AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.01),
    AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.6),
    AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.5, max_iterations=5),
    AlgorithmConfig(variant="alg2", horizon=3, alpha_bar=0.5),
    AlgorithmConfig(variant="alg2", horizon=4, alpha_bar=0.3, forced_m=2),
    AlgorithmConfig(variant="alg2", horizon=20, alpha_bar=0.3, forced_m=15),
    AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.01, forced_m=1),
    AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.6),
    AlgorithmConfig(variant="alg3", horizon=5, alpha_bar=0.01, shrink_schedule={2: 4, 5: 3}),
    AlgorithmConfig(variant="alg4", horizon=3, alpha_bar=0.5),
    AlgorithmConfig(variant="alg4", horizon=5, alpha_bar=0.01, forced_m=[2, 1]),
    AlgorithmConfig(variant="alg4", horizon=5, alpha_bar=0.3, shrink_schedule={1: 3}),
)
CIRCLE = unit_circle(16).points
_point = st.tuples(st.sampled_from(("circle", "origin", "scaled")), st.integers(0, 15)).map(
    lambda p: {"circle": CIRCLE[p[1]], "origin": np.zeros(2), "scaled": 1e3 * CIRCLE[p[1]]}[p[0]]
)


_MIXED = np.vstack([1e3 * CIRCLE[::5], CIRCLE, np.zeros((1, 2))])


@st.composite
def initial_sets(draw):
    """A set of initial states and an order to run them in."""
    points = draw(st.lists(_point, min_size=1, max_size=6))
    order = draw(st.permutations(range(len(points))))
    return np.array(points), np.array(order)


def _same_float(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def _assert_same_run(a, b):
    """Two traces of the same run, compared bit for bit."""
    assert a.status == b.status
    assert a.schedule.times == b.schedule.times
    assert a.states.shape == b.states.shape and np.array_equal(a.states, b.states)
    assert a.applied_controls.shape == b.applied_controls.shape
    assert np.array_equal(a.applied_controls, b.applied_controls)
    assert np.array_equal(a.applied_costs, b.applied_costs)
    assert a.certificates == b.certificates
    assert a.slack.values == b.slack.values and a.slack.total == b.slack.total
    assert (a.exit_count, a.warning_count) == (b.exit_count, b.warning_count)
    assert len(a.windows) == len(b.windows)
    for wa, wb in zip(a.windows, b.windows):
        for name in ("index", "time", "horizon", "v_start", "committed_m", "forced",
                     "exit_event", "warning_event", "closes", "v_end", "cost"):
            assert getattr(wa, name) == getattr(wb, name), name
        assert np.array_equal(wa.probe_alphas, wb.probe_alphas)
        assert np.array_equal(wa.probe_rhos, wb.probe_rhos)
    for key, value in a.summary().items():
        assert _same_float(value, b.summary()[key]) if isinstance(value, float) else value == b.summary()[key]


@pytest.fixture(scope="module")
def engine_solver(lq):
    return LqLadderSolver(lq, 2)


@settings(max_examples=50, deadline=None)
@given(config=st.sampled_from(ENGINE_CONFIGS), case=initial_sets())
@example(
    config=AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.01, forced_m=1),
    case=(np.array([np.zeros(2), CIRCLE[4], 1e3 * CIRCLE[9]]), np.array([2, 0, 1])),
)
# Whole sets whose rows differ in slack, warnings, re-plans and horizons.
@example(
    config=AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.6),
    case=(_MIXED, np.arange(len(_MIXED))[::-1]),
)
@example(
    config=AlgorithmConfig(variant="alg4", horizon=3, alpha_bar=0.5),
    case=(_MIXED, np.arange(len(_MIXED))),
)
@example(
    config=AlgorithmConfig(variant="alg4", horizon=5, alpha_bar=0.3, shrink_schedule={1: 3}),
    case=(_MIXED, np.arange(len(_MIXED))[::-1]),
)
def test_batch_run_matches_one_row_runs(engine_solver, config, case):
    points, order = case
    s = engine_solver
    batch = run_batch(s.model, s, points[order], config, traces=True)
    for row, i in enumerate(order):
        single = run_closed_loop(s.model, s, points[i], config)
        _assert_same_run(batch.traces[row], single)
        assert batch.status[row] == single.status
        for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3"):
            assert _same_float(getattr(batch, name)[row], getattr(single, name)), name
        assert batch.warning_count[row] == single.warning_count
        assert batch.exit_count[row] == single.exit_count
    # Statistics without traces are the same numbers.
    bare = run_batch(s.model, s, points[order], config)
    assert bare.traces is None and bare.status == batch.status
    for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3"):
        assert np.array_equal(getattr(bare, name), getattr(batch, name), equal_nan=True)


def test_origin_row_converges_at_once(engine_solver):
    s = engine_solver
    config = AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.01, forced_m=1)
    batch = run_batch(s.model, s, np.array([CIRCLE[3], np.zeros(2)]), config, traces=True)
    origin = batch.traces[1]
    assert origin.status == "converged"
    assert origin.certificates == () and origin.schedule.times == (0,)
    assert np.isnan(batch.alpha_cor3[1]) and np.isnan(origin.alpha_cor3)
    assert batch.traces[0].certificates


@settings(max_examples=25, deadline=None)
@given(config=st.sampled_from(ENGINE_CONFIGS), x0=_point)
def test_sign_flip_keeps_schedules_and_alphas(engine_solver, config, x0):
    # The loop is linear and the costs quadratic; IEEE negation is exact,
    # so -x0 takes the same decisions with the same numbers.
    s = engine_solver
    a = run_closed_loop(s.model, s, x0, config)
    b = run_closed_loop(s.model, s, -x0, config)
    assert a.status == b.status
    assert a.schedule.times == b.schedule.times
    assert np.array_equal(a.states, -b.states)
    assert [c.alpha for c in a.certificates] == [c.alpha for c in b.certificates]
    assert a.slack.values == b.slack.values
    for wa, wb in zip(a.windows, b.windows):
        assert np.array_equal(wa.probe_alphas, wb.probe_alphas)
        assert wa.committed_m == wb.committed_m
    for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3"):
        assert _same_float(getattr(a, name), getattr(b, name)), name

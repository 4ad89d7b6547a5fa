"""Batched planner entry points against the single-state path.

Every comparison is exact (``==``): the certificate chain's contiguity
``v_after == v_before`` needs one value function, whichever path
evaluated it.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpccert.riccati import LqBellmanSolver, LqLadderSolver
from mpccert.sweep import value_drop_grid

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

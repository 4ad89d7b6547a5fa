"""The row kernel of ``mpccert.model`` against one-row calls and a float oracle.

``matvec``, ``row_dot`` and ``quad_form`` run on whole arrays with
elementwise ufuncs and add their terms left to right.  Every check here
is bitwise (the bytes of the results, so ``-0.0`` and ``0.0`` differ):
a row's result must not depend on the array, stack or strided view that
holds it, and must equal plain Python float arithmetic in the documented
order.  The plan layer's fused step kernel (``plan_step``, through
``PlanWalk``) must give each row the bits of the plant's own calls on
that row alone.  The plants are in-test, with one, two and three states.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mpccert.model import LinearQuadraticInstance, matvec, quad_form, row_dot
from mpccert.riccati import LqBellmanSolver, LqLadderSolver, PlanWalk

PLANTS = {
    1: LinearQuadraticInstance(A=[[1.3]], B=[[0.7]], Q=[[0.9]], R=[[0.35]]),
    2: LinearQuadraticInstance(
        A=[[1.0, 1.1], [-1.1, 1.0]],
        B=[[0.0], [1.0]],
        Q=[[1.0, 0.3], [0.3, 0.7]],
        R=[[0.1]],
    ),
    3: LinearQuadraticInstance(
        A=[[0.9, 0.31, -0.2], [0.0, 1.07, 0.45], [0.13, -0.6, 0.99]],
        B=[[1.0, 0.0], [0.3, 0.7], [0.0, 1.1]],
        Q=[[1.0, 0.2, -0.1], [0.2, 0.8, 0.05], [-0.1, 0.05, 0.6]],
        R=[[0.5, 0.1], [0.1, 0.3]],
    ),
}
LAWS = (LqLadderSolver, LqBellmanSolver)

# Entries over many magnitudes, so the rounding of every term matters.
_entries = st.one_of(
    st.floats(-1.0, 1.0, allow_nan=False),
    st.floats(-1e3, 1e3, allow_nan=False),
    st.sampled_from((0.0, -0.0, 1e-9, -3e-7)),
)


def _bits(a) -> bytes:
    return np.asarray(a, dtype=float).tobytes()


def _rows(a: np.ndarray):
    """Every row of ``a`` as its own contiguous 1-D array, with its index."""
    for idx in np.ndindex(a.shape[:-1]):
        yield idx, np.array(a[idx])


def _dot_oracle(x: list[float], y: list[float]) -> float:
    """``x' y`` in Python floats, the products added left to right."""
    acc = x[0] * y[0]
    for a, b in zip(x[1:], y[1:]):
        acc = acc + a * b
    return acc


def _matvec_oracle(M: np.ndarray, x: np.ndarray) -> list[float]:
    return [_dot_oracle(row, x.tolist()) for row in M.tolist()]


def _quad_oracle(P: np.ndarray, x: np.ndarray) -> float:
    """``x' P x``: every ``y_i`` left to right, then ``sum x_i y_i`` left to right."""
    return _dot_oracle(x.tolist(), _matvec_oracle(P, x))


@st.composite
def plant_and_arrays(draw):
    """A plant, a ``(B, N + 1, n)`` state array and a ``(B, N, c)`` control array."""
    n = draw(st.sampled_from(sorted(PLANTS)))
    lq = PLANTS[n]
    b, horizon = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    X = draw(arrays(np.float64, (b, horizon + 1, n), elements=_entries))
    U = draw(arrays(np.float64, (b, horizon, lq.control_dim), elements=_entries))
    return lq, X, U


@settings(max_examples=60, deadline=None)
@given(case=plant_and_arrays())
def test_rows_match_one_row_calls(case):
    lq, X, U = case
    # A contiguous (B, n) block, a strided (B, n) column of the stack,
    # the whole (B, N + 1, n) stack and a strided (B, N, n) view of it.
    for states in (np.ascontiguousarray(X[:, 0]), X[:, -1], X, X[:, 1:]):
        q = quad_form(lq.Q, states)
        assert q.shape == states.shape[:-1]
        for idx, x in _rows(states):
            assert _bits(q[idx]) == _bits(quad_form(lq.Q, x))
    states = X[:, :-1]
    nxt = lq.dynamics(states, U)
    costs = lq.stage_cost(states, U)
    assert nxt.shape == states.shape and costs.shape == states.shape[:-1]
    for idx, x in _rows(states):
        u = np.array(U[idx])
        assert _bits(nxt[idx]) == _bits(lq.dynamics(x, u))
        assert _bits(costs[idx]) == _bits(lq.stage_cost(x, u))
    # A stack of one matrix per step, as the plan's tail values use it.
    stack = np.stack([lq.Q * (k + 1.5) for k in range(states.shape[1])])
    q = quad_form(stack, states)
    for (b, k), x in _rows(states):
        assert _bits(q[b, k]) == _bits(quad_form(stack[k], x))


@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from((1, 2, 3)),
    rows=st.integers(1, 6),
    data=st.data(),
)
def test_kernel_matches_python_float_oracle(n, rows, data):
    P = data.draw(arrays(np.float64, (n, n), elements=_entries))
    M = data.draw(arrays(np.float64, (data.draw(st.integers(1, 3)), n), elements=_entries))
    X = data.draw(arrays(np.float64, (rows, n), elements=_entries))
    q, y, d = quad_form(P, X), matvec(M, X), row_dot(X, X[::-1])
    for i, x in enumerate(X):
        assert _bits(q[i]) == _bits(_quad_oracle(P, x))
        assert _bits(y[i]) == _bits(_matvec_oracle(M, x))
        assert _bits(d[i]) == _bits(_dot_oracle(x.tolist(), X[rows - 1 - i].tolist()))
    # A single vector goes through the same arithmetic.
    assert _bits(quad_form(P, X[0])) == _bits(_quad_oracle(P, X[0]))


@pytest.mark.parametrize("n", sorted(PLANTS))
@pytest.mark.parametrize("law", LAWS, ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_plan_steps_are_plant_steps(n, law, data):
    lq = PLANTS[n]
    horizon = data.draw(st.sampled_from((2, 3, 5)))
    X = data.draw(arrays(np.float64, (data.draw(st.integers(1, 6)), n), elements=_entries))
    solver = law(lq, 1)
    plan = solver.plans(X, horizon)
    assert plan.trajectory.shape == (len(X), horizon + 1, n)
    assert _bits(plan.trajectory[:, 0]) == _bits(X)
    for k in range(horizon):
        x, u = plan.trajectory[:, k], plan.controls[:, k]
        assert _bits(plan.trajectory[:, k + 1]) == _bits(lq.dynamics(x, u))
        assert _bits(u) == _bits(matvec(-solver.ladder.gain(solver._gain_index(horizon, k)), x))
    ends = solver.rollout(X, horizon, horizon)
    for i, x in enumerate(X):
        one = solver.solve(x, horizon)
        for name in ("controls", "trajectory", "stage_costs", "tail_values"):
            assert _bits(getattr(plan, name)[i]) == _bits(getattr(one, name)), name
        assert _bits(ends[i]) == _bits(one.trajectory[-1])


@pytest.mark.parametrize("n", sorted(PLANTS))
@pytest.mark.parametrize("law", LAWS, ids=lambda cls: cls.__name__)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_walk_steps_match_lone_row_calls(n, law, data):
    # The fused step kernel against the plant's own calls on each row
    # alone: a one-horizon walk on buffers with spare rows (filled with
    # NaN, so a read of a slot no step wrote shows), and a walk whose rows
    # sit at mixed horizons and stop at their own lengths.
    lq, c = PLANTS[n], PLANTS[n].control_dim
    rows, spare = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 3))
    X = data.draw(arrays(np.float64, (rows, n), elements=_entries))
    solver = law(lq, 1)
    one = data.draw(st.sampled_from((2, 3, 5)))
    mixed = np.array(data.draw(st.lists(st.sampled_from((2, 3, 5)), min_size=rows, max_size=rows)))
    lengths = np.array([data.draw(st.integers(1, N)) for N in mixed])
    buffers = tuple(np.full_like(b, np.nan) for b in PlanWalk.allocate(rows + spare, one, n, c))
    for horizon, walk, steps in (
        (np.full(rows, one), PlanWalk(solver, X, one, one, buffers=buffers), np.full(rows, one)),
        (mixed, PlanWalk(solver, X, mixed, int(mixed.max())), lengths),
    ):
        walk.advance_to(steps)
        for i, (N, walked) in enumerate(zip(horizon.tolist(), steps.tolist())):
            walked = walked if len(set(horizon.tolist())) > 1 else walk.steps
            P = solver.ladder.matrix(N)
            assert _bits(walk.trajectory[i, 0]) == _bits(X[i])
            for k in range(walked):
                x, u = np.array(walk.trajectory[i, k]), np.array(walk.controls[i, k])
                x_next = np.array(walk.trajectory[i, k + 1])
                gain = solver.ladder.gain(solver._gain_index(N, k))
                assert _bits(u) == _bits(matvec(-gain, x))
                assert _bits(x_next) == _bits(lq.dynamics(x, u))
                assert _bits(walk.stage_costs[i, k]) == _bits(lq.stage_cost(x, u))
                assert _bits(walk.ends[i, k]) == _bits(quad_form(P, x_next))
            costs = np.array(walk.stage_costs[i, :walked])
            assert _bits(walk.prefix_costs[i, :walked]) == _bits(np.cumsum(costs))

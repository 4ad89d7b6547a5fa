"""Batched planner and engine entry points against the single-state path.

Every comparison is exact (``==``): the certificate chain's contiguity
``v_after == v_before`` needs one value function, whichever path
evaluated it, and a sweep's rows must not depend on which points
share its batch.
"""

import dataclasses
import importlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mpccert.certify import np_sums, row_sums
from mpccert.engine import _BLOCKS, VARIANTS, AlgorithmConfig, BatchRun, _Lockstep, run_batch, run_closed_loop
from mpccert.errors import ConfigError
from mpccert.model import LinearQuadraticInstance
from mpccert.riccati import LqBellmanSolver, LqLadderSolver, PlanWalk
from mpccert.sweep import horizon_comparison, unit_circle, value_drop_grid

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


@pytest.mark.parametrize("law", LAWS, ids=lambda cls: cls.__name__)
@settings(max_examples=30, deadline=None)
@given(X=batches, data=st.data())
def test_per_row_horizons_match_own_horizon_calls(planners, law, X, data):
    # A walk over rows of mixed horizons gives each row, step by step, the
    # bits of a plan at its own horizon.  Every row walks as far as the
    # longest of the lengths; a row stepped past its horizon holds zero.
    s = planners[law]
    horizon = np.array(data.draw(st.lists(st.sampled_from(HORIZONS), min_size=len(X), max_size=len(X))))
    lengths = np.array([data.draw(st.integers(1, n)) for n in horizon])
    walk = PlanWalk(s, X, horizon, int(horizon.max()))
    walk.advance_to(lengths)
    assert walk.steps == lengths.max()
    assert walk.value.tolist() == s.values_of(X, horizon).tolist()
    for i, n in enumerate(horizon.tolist()):
        own = s.solve(X[i], n)
        walked = min(walk.steps, n)
        assert walk.value[i] == own.value == s.value_of(X[i], n)
        assert walk.trajectory[i, : walked + 1].tolist() == own.trajectory[: walked + 1].tolist()
        assert walk.controls[i, :walked].tolist() == own.controls[:walked].tolist()
        assert walk.stage_costs[i, :walked].tolist() == own.stage_costs[:walked].tolist()
        assert walk.prefix_costs[i, :walked].tolist() == np.cumsum(own.stage_costs[:walked]).tolist()
        assert walk.ends[i, :walked].tolist() == [s.value_of(x, n) for x in own.trajectory[1 : walked + 1]]
        for rest in (walk.trajectory[i, n + 1 :], walk.controls[i, n:], walk.stage_costs[i, n:]):
            assert not rest.any()


def test_per_row_horizon_validation(planners):
    s = planners[LqLadderSolver]
    X = np.array([[0.3, -1.2], [2.0, 0.5], [-0.7, 0.1]])
    horizon = np.array([3, 20, 2])
    assert s.values_of(X, horizon).tolist() == [s.value_of(x, n) for x, n in zip(X, horizon)]
    for bad in (np.array([3, 3]), np.array([3.0, 3.0, 3.0]), np.array([[3, 3, 3]])):
        with pytest.raises(ConfigError, match="one integer horizon per row"):
            s.values_of(X, bad)
        with pytest.raises(ConfigError, match="one integer horizon per row"):
            PlanWalk(s, X, bad, 3)
    with pytest.raises(ConfigError):
        s.values_of(X, np.array([3, -1, 2]))
    assert s.values_of(X, np.array([3, 0, 2]))[1] == s.value_of(X[1], 0)
    with pytest.raises(ConfigError, match=r"state must have shape \(B, 2\)"):
        s.values_of(X[:, None], 3)
    for one_per_row in (horizon, np.array([3, 3, 3])):
        with pytest.raises(ConfigError, match="one horizon for all rows"):
            s.plans(X, one_per_row)
    # Unsigned horizons walk as signed ones, the zero stack past each horizon included.
    walks = [PlanWalk(s, X, h, 20) for h in (horizon, horizon.astype(np.uint8))]
    for walk in walks:
        walk.advance_to(20)
    assert walks[0].trajectory.tolist() == walks[1].trajectory.tolist()


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


def test_np_sums_resum_only_rows_of_eight_or_more_terms():
    # Lengths 1-20 from random starts: a row under eight terms keeps its
    # running sum, which has np.sum's bits there; a longer row gets
    # np.sum of its segment.  With a bound under eight nothing is read.
    rng = np.random.default_rng(5)
    a = rng.uniform(0.0, 1e3, size=(20, 40))
    length, start = np.arange(1, 21), rng.integers(0, 20, size=20)
    running = np.array([sum(a[i, s : s + n].tolist(), 0.0) for i, (s, n) in enumerate(zip(start, length))])
    sums = np_sums(running.copy(), 20, a, start, start + length)
    segments = [np.sum(a[i, s : s + n]) for i, (s, n) in enumerate(zip(start, length))]
    assert sums[:7].tolist() == running[:7].tolist() == segments[:7]
    assert sums[7:].tolist() == segments[7:] != running[7:].tolist()
    assert np_sums(running.copy(), 7, a, start, start + length).tolist() == running.tolist()
    # Entry i reads span at[i] of row rows[at[i]]: the same sums from shuffled rows and reversed spans.
    flip, perm = np.arange(19, -1, -1), rng.permutation(20)
    shuffled = np.empty_like(a)
    shuffled[perm] = a
    spans = start[flip], (start + length)[flip]
    assert np_sums(running.copy(), 20, shuffled, *spans, perm[flip], flip).tolist() == sums.tolist()


def test_row_sums_of_one_term_keep_np_sum_signs():
    # np.sum adds the terms to 0.0, so one term of -0.0 sums to 0.0.
    a = np.array([[-0.0, 2.5], [1.0, -0.0]])
    sums = row_sums(a, np.array([1, 1]), start=np.array([0, 1]))
    assert np.signbit(sums).tolist() == [np.signbit(np.sum(a[0, :1])), np.signbit(np.sum(a[1, 1:]))]


# Each configuration reaches a path the others may miss: exit fallback,
# slack cover, watchdog warnings, mid-stretch re-plans, forced lengths
# (an int and a sequence), windows longer than 8 steps, horizon
# shrinking and the iteration cap.  Three run at N = 10: two unforced
# with thresholds so close to 1 that rows settle at prefixes 1, 2 or 3
# (alg1) or at 1 and 2 while others never settle (alg3, with warnings),
# so plan walks stop at different prefixes in one iteration, and one
# whose rows certify prefix 1 but are forced to apply 3 steps without
# re-planning.  The last applies 15-step windows without re-planning, so
# mixed batches apply 15 columns beside re-planning rows whose windows
# differ in length.
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
    AlgorithmConfig(variant="alg1", horizon=10, alpha_bar=0.99995),
    AlgorithmConfig(variant="alg3", horizon=10, alpha_bar=0.99999),
    AlgorithmConfig(variant="alg3", horizon=10, alpha_bar=0.3, forced_m=[3, 1]),
    AlgorithmConfig(variant="alg3", horizon=20, alpha_bar=0.3, forced_m=15),
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


def _config_of(config, i: int) -> AlgorithmConfig:
    """Point ``i``'s configuration: ``config`` itself, or the ``i``-th of a cycled list."""
    return config if isinstance(config, AlgorithmConfig) else config[i % len(config)]


# One configuration for the whole batch, or one per point drawn from the
# list, so that a batch mixes horizons, shrinks, forced lengths, variants
# and iteration caps.
configs = st.one_of(
    st.sampled_from(ENGINE_CONFIGS),
    st.lists(st.sampled_from(ENGINE_CONFIGS), min_size=1, max_size=6),
)


@settings(max_examples=50, deadline=None)
@given(config=configs, case=initial_sets())
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
# Every configuration in one batch, each on points at several scales.
@example(config=ENGINE_CONFIGS, case=(_MIXED, np.arange(len(_MIXED))))
@example(config=ENGINE_CONFIGS[::-1], case=(_MIXED, np.arange(len(_MIXED))[::-1]))
def test_batch_run_matches_one_row_runs(engine_solver, config, case):
    points, order = case
    s = engine_solver
    shared = isinstance(config, AlgorithmConfig)
    row_config = config if shared else [_config_of(config, i) for i in order]
    batch = run_batch(s, points[order], row_config, traces=True)
    for row, i in enumerate(order):
        own = _config_of(config, i)
        single = run_closed_loop(s, points[i], own)
        _assert_same_run(batch.traces[row], single)
        assert batch.traces[row].config is own
        assert batch.status[row] == single.status
        for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3"):
            assert _same_float(getattr(batch, name)[row], getattr(single, name)), name
        assert batch.warning_count[row] == single.warning_count
        assert batch.exit_count[row] == single.exit_count
        assert batch.intervals[row] == single.summary()["intervals"]
        assert batch.applied_steps[row] == single.summary()["applied_steps"]
    # Statistics without traces are the same numbers.  Only these runs
    # stop their plan walks at the first settled prefix.
    bare = run_batch(s, points[order], row_config)
    assert bare.traces is None and bare.status == batch.status
    for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3",
                 "intervals", "applied_steps", "exit_count", "warning_count"):
        assert np.array_equal(getattr(bare, name), getattr(batch, name), equal_nan=True)


# One row of each variant, together covering forced lengths (an int and
# a sequence), a shrink schedule and an iteration cap.
_EVERY_KIND = (ENGINE_CONFIGS[2], ENGINE_CONFIGS[4], ENGINE_CONFIGS[8], ENGINE_CONFIGS[10])


@settings(max_examples=25, deadline=None)
@given(extra=st.lists(st.sampled_from(ENGINE_CONFIGS), max_size=4), points=st.lists(_point, min_size=1, max_size=3))
def test_traces_come_from_the_untraced_run(engine_solver, extra, points):
    # A traced run decides as an untraced one and builds its traces from
    # logs of that run: its columns are the untraced run's, and each
    # window's closes and prefix degrees read back consistently.
    configs = [cfg for cfg in _EVERY_KIND + tuple(extra) for _ in points]
    X = np.array(points * (len(configs) // len(points)))
    traced = run_batch(engine_solver, X, configs, traces=True)
    bare = run_batch(engine_solver, X, configs)
    assert bare.status == traced.status
    for f in dataclasses.fields(BatchRun):
        if isinstance(getattr(bare, f.name), np.ndarray):
            assert np.array_equal(getattr(bare, f.name), getattr(traced, f.name), equal_nan=True), f.name
    for trace, intervals in zip(traced.traces, traced.intervals):
        times = np.array(trace.schedule.times)
        for w in trace.windows:
            assert w.closes == np.count_nonzero((times > w.time) & (times < w.time + w.committed_m))
            assert len(w.probe_alphas) == len(w.probe_rhos) == w.horizon - 1
        # Every interval closes at a re-plan, at the next window or when the run stops.
        assert intervals == sum(w.closes for w in trace.windows) + len(trace.windows)


def test_batch_config_validation(engine_solver):
    config = ENGINE_CONFIGS[0]
    with pytest.raises(ConfigError, match="one AlgorithmConfig per initial state, got 2 items for 3"):
        run_batch(engine_solver, CIRCLE[:3], [config, config])
    with pytest.raises(ConfigError, match="one AlgorithmConfig per initial state"):
        run_batch(engine_solver, CIRCLE[:2], [config, "alg1"])
    with pytest.raises(ConfigError, match=r"initial states must have shape \(B, 2\), got \(2, 3\)"):
        run_batch(engine_solver, np.zeros((2, 3)), config)
    for bad in (np.nan, np.inf, -np.inf):
        X = CIRCLE[:3].copy()
        X[1, 0] = bad
        with pytest.raises(ConfigError, match="initial states must be finite"):
            run_batch(engine_solver, X, config)


def test_select_keeps_a_slice_of_rows(engine_solver):
    batch = run_batch(engine_solver, CIRCLE[:6], ENGINE_CONFIGS[:6], traces=True)
    part = batch.select(slice(2, 5))
    assert part.status == batch.status[2:5] and part.traces == batch.traces[2:5]
    for name in ("startup_onestep_alpha", "min_window_alpha", "alpha_cor3", "warning_count", "intervals"):
        assert np.array_equal(getattr(part, name), getattr(batch, name)[2:5])
    assert run_batch(engine_solver, CIRCLE[:6], ENGINE_CONFIGS[0]).select(slice(1)).traces is None


def test_origin_row_converges_at_once(engine_solver):
    s = engine_solver
    config = AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.01, forced_m=1)
    batch = run_batch(s, np.array([CIRCLE[3], np.zeros(2)]), config, traces=True)
    origin = batch.traces[1]
    assert origin.status == "converged"
    assert origin.certificates == () and origin.schedule.times == (0,)
    assert np.isnan(batch.alpha_cor3[1]) and np.isnan(origin.alpha_cor3)
    assert batch.traces[0].certificates


def test_rows_retiring_at_every_iteration_match_one_row_runs(engine_solver):
    # Capped row k stops at iteration k + 1, so the running rows are
    # compacted at every iteration while rows that converge on their own,
    # scaled rows and the origin (gone before iteration 0) run alongside.
    # Every configuration but 4, 5, 12 and 15, which may converge within
    # 21 iterations, runs at least 26 from these points.
    s = engine_solver
    long_runs = [cfg for k, cfg in enumerate(ENGINE_CONFIGS) if k not in (4, 5, 12, 15)]
    capped = [
        (dataclasses.replace(long_runs[k % len(long_runs)], max_iterations=k + 1),
         (1e3 if k % 2 else 1.0) * CIRCLE[k % 16])
        for k in range(20)
    ]
    free = [(ENGINE_CONFIGS[k], (1e3 if k % 3 else 1.0) * CIRCLE[(5 * k) % 16]) for k in (0, 4, 5, 7, 9, 10)]
    rows = capped + free + [(ENGINE_CONFIGS[4], np.zeros(2))]
    configs = [cfg for cfg, _ in rows]
    points = np.array([x for _, x in rows])
    batch = run_batch(s, points, configs, traces=True)
    assert [len(batch.traces[k].windows) for k in range(len(capped))] == list(range(1, len(capped) + 1))
    assert batch.traces[-1].status == "converged" and not batch.traces[-1].windows
    for row, (cfg, x0) in enumerate(rows):
        single = run_closed_loop(s, x0, cfg)
        _assert_same_run(batch.traces[row], single)
        assert batch.traces[row].config is cfg
        for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3"):
            assert _same_float(getattr(batch, name)[row], getattr(single, name)), name
        assert batch.intervals[row] == single.summary()["intervals"]
        assert batch.applied_steps[row] == single.summary()["applied_steps"]


def _assert_rows_match_one_row_runs(solver, points, configs, traces=False):
    """Every column of the batch of ``points``, and its traces when asked for, against each row's own batch."""
    batch = run_batch(solver, points, configs, traces=traces)
    for row, (x0, cfg) in enumerate(zip(points, configs)):
        own = run_batch(solver, x0[None], cfg, traces=traces)
        assert batch.status[row] == own.status[0]
        for f in dataclasses.fields(BatchRun):
            if isinstance(getattr(own, f.name), np.ndarray):
                assert _same_float(getattr(batch, f.name)[row], getattr(own, f.name)[0]), f.name
        if traces:
            _assert_same_run(batch.traces[row], own.traces[0])
    return batch


def test_rows_stopping_at_many_iterations_match_one_row_runs(engine_solver):
    # Caps 3, 7 and 1000 on configurations that run past 7 iterations,
    # rows that converge on their own, and a row at rest before its first
    # plan: rows stop at many iterations, and alpha_cor3, summed from the
    # cost log after the run, keeps each row's own bits.
    configs, points = [], []
    for k, cap in enumerate((3, 7, 1000) * 4):
        configs.append(dataclasses.replace(ENGINE_CONFIGS[(3 * k) % len(ENGINE_CONFIGS)], max_iterations=cap))
        points.append((1e3 if k % 2 else 1.0) * CIRCLE[(5 * k) % 16])
    configs.append(ENGINE_CONFIGS[1])
    points.append(np.zeros(2))
    batch = _assert_rows_match_one_row_runs(engine_solver, np.array(points), configs)
    assert len(set(batch.applied_steps.tolist())) >= 8
    assert "max-iterations" in batch.status and batch.status[-1] == "converged" and np.isnan(batch.alpha_cor3[-1])


# The 3-state plant of tools/cli_outputs.sh and its three initial states,
# on which alg2 and alg4 reject some re-plans of forced two-step windows.
_REJECTING = LinearQuadraticInstance(
    np.array([[0.62, -0.62, -0.56], [-1.21, -1.52, -1.78], [0.57, 1.28, 0.5]]),
    np.array([[0.29], [0.29], [-0.13]]),
    np.array([[2.8, -1.42, -1.92], [-1.42, 1.63, -0.06], [-1.92, -0.06, 6.22]]),
    np.array([[0.66]]),
)
_REJECTING_X0 = np.array([[0.39, 0.99, 1.04], [-0.78, -1.98, -2.08], [-0.7, -1.18, -1.06]])


@pytest.mark.parametrize("variant", ("alg2", "alg4"))
def test_replans_accepted_and_rejected_in_one_call_match_one_row_runs(monkeypatch, variant):
    # Some re-plan calls accept every row (the write-back reads slices),
    # others accept some rows and reject the rest (it gathers them).
    engine = importlib.import_module("mpccert.engine")
    replan, calls = engine._Lockstep._replan, []

    def spying_replan(state, rows, *args):
        replan(state, rows, *args)
        # An accepted re-plan opens an interval at the current time.
        calls.append((np.count_nonzero(state.sigma[rows] == state.t[rows]), len(rows)))

    monkeypatch.setattr(engine._Lockstep, "_replan", spying_replan)
    points = np.vstack([_REJECTING_X0, np.eye(3)])
    config = AlgorithmConfig(variant=variant, horizon=3, alpha_bar=0.6, forced_m=2, max_iterations=30)
    _assert_rows_match_one_row_runs(LqLadderSolver(_REJECTING, 3), points, [config] * len(points), traces=True)
    assert any(0 < accepted < rows for accepted, rows in calls)
    assert any(accepted == rows for accepted, rows in calls)


def test_cost_log_growing_while_rows_retire_matches_one_row_runs(engine_solver):
    # 15-step windows at N = 20: the cost log doubles from 16 columns to
    # 32, 64 and 128 while capped rows retire after 1 to 6 iterations.
    configs, points = [], []
    for k in range(12):
        cap = 1 + k % 6 if k < 10 else 1000
        configs.append(dataclasses.replace(ENGINE_CONFIGS[5 if k % 2 else 15], max_iterations=cap))
        points.append((1.0, 1e3, 1e30)[k % 3] * CIRCLE[k])
    batch = _assert_rows_match_one_row_runs(engine_solver, np.array(points), configs, traces=True)
    assert batch.applied_steps.max() > 64


def test_block_fields_stay_views_of_their_blocks(engine_solver, monkeypatch):
    # Each _BLOCKS field is a row of its dtype's block and is written in
    # place; a field rebound to a fresh array would be left out of the next
    # compaction.  The walk buffers are never compacted: every walk runs
    # on the first rows of the arrays allocated for the run.  The rows run
    # at three horizons and retire at different iterations; one is granted
    # a shrink and an alg4 row re-plans.
    allocate, allocated = PlanWalk.allocate, []

    def recorded_allocate(*shape):
        allocated.append(allocate(*shape))
        return allocated[-1]

    monkeypatch.setattr(PlanWalk, "allocate", staticmethod(recorded_allocate))
    configs = [
        AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.01, max_iterations=2),
        AlgorithmConfig(variant="alg3", horizon=5, alpha_bar=0.01, shrink_schedule={5: 3}),
        AlgorithmConfig(variant="alg4", horizon=5, alpha_bar=0.01, forced_m=[2, 1]),
        AlgorithmConfig(variant="alg2", horizon=10, alpha_bar=0.3, forced_m=3, max_iterations=6),
    ]
    points = np.array([CIRCLE[3], [0.0, 1.0], CIRCLE[7], 1e3 * CIRCLE[1]])
    state = _Lockstep(engine_solver, points, configs, keep_traces=True)
    iterate, running = state._iterate, []

    def checked(iteration):
        iterate(iteration)
        running.append(len(state.ids))
        for block, (_, names) in zip(state.blocks, _BLOCKS):
            for name in names:
                assert np.shares_memory(getattr(state, name), block), name
        assert all(a is b for a, b in zip(state.walk_buffers, allocated[0]))
        for array, buffer in zip((state.walk.trajectory, state.walk.controls, state.walk.ends), allocated[0]):
            assert np.shares_memory(array, buffer)

    monkeypatch.setattr(state, "_iterate", checked)
    state.run()
    traces = state.outcome().traces
    assert len(set(running)) >= 3
    assert traces[1].windows[-1].horizon == 3
    assert sum(w.closes for w in traces[2].windows) > 0


def _nan_walks(monkeypatch):
    """Fill every walk buffer with NaN when it is allocated and whenever a walk restarts on it."""
    allocate, restart = PlanWalk.allocate, PlanWalk.restart

    def nan_allocate(*shape):
        return tuple(np.full_like(buffer, np.nan) for buffer in allocate(*shape))

    def nan_restart(walk, X, value=None):
        for buffer in (walk.trajectory, walk.controls, walk.stage_costs, walk.ends, walk.prefix_costs):
            buffer.fill(np.nan)
        restart(walk, X, value)

    monkeypatch.setattr(PlanWalk, "allocate", staticmethod(nan_allocate))
    monkeypatch.setattr(PlanWalk, "restart", nan_restart)


# Per variant: forced lengths 2,1 at N = 3 and 15 at N = 20 (alg2/alg4
# re-plan inside both windows), two shrinks granted mid-run, and caps
# that retire rows at iterations 2 to 11, at horizons 3 to 6.
_LEAK_ROWS = [
    row
    for k, v in enumerate(VARIANTS)
    for row in (
        (AlgorithmConfig(v, 3, 0.01, forced_m=(2, 1)), CIRCLE[k]),
        (AlgorithmConfig(v, 20, 0.01, forced_m=15), CIRCLE[k + 4]),
        (AlgorithmConfig(v, 5, 0.01, shrink_schedule={2: 4, 5: 3}), 1e3 * CIRCLE[k + 8]),
        (AlgorithmConfig(v, 3 + k, 0.6, max_iterations=2 + 3 * k), CIRCLE[k + 12]),
    )
]


@pytest.mark.parametrize("traces", (False, True), ids=("bare", "traced"))
def test_reused_walk_buffers_and_rules_leak_nothing(engine_solver, monkeypatch, traces):
    # A run walks every iteration on the same buffers and keeps each row's
    # decision rule until rows retire, a shrink is due or a forced
    # length moves.  With every buffer NaN at allocation and at each
    # restart, a read of a column no walk of this iteration wrote, or of a
    # row the buffers or rule kept after it retired, changes the bits.
    # Runs cover one mixed batch of all rows and one batch per row's
    # configuration, where every row steps.
    s = engine_solver
    configs = [cfg for cfg, _ in _LEAK_ROWS]
    points = np.array([x for _, x in _LEAK_ROWS])
    batches = [(configs, points)] + [(cfg, np.array([x, -2.0 * x, CIRCLE[3]])) for cfg, x in _LEAK_ROWS]
    clean = [run_batch(s, X, cfg, traces=traces) for cfg, X in batches]
    _nan_walks(monkeypatch)
    for (cfg, X), want in zip(batches, clean):
        got = run_batch(s, X, cfg, traces=traces)
        assert got.status == want.status
        for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3",
                     "intervals", "applied_steps", "exit_count", "warning_count"):
            assert np.array_equal(getattr(got, name), getattr(want, name), equal_nan=True), name
        for a, b in zip(got.traces or (), want.traces or ()):
            _assert_same_run(a, b)
    if traces:
        runs = clean[0].traces
        assert {tuple(dict.fromkeys(w.horizon for w in run.windows)) for run in runs[2::4]} == {(5, 4, 3)}
        assert all(sum(w.closes for w in run.windows) for run in runs[1::4] if run.config.variant in ("alg2", "alg4"))
        assert [len(run.windows) for run in runs[3::4]] == [2, 5, 8, 11]
        assert {run.status for run in runs[3::4]} == {"max-iterations"}


class _CountingSolver(LqLadderSolver):
    """Counts plan steps walked (one per step, the calls of the step primitive) and the rows they step."""

    steps = rows = 0

    def plan_step(self, X, horizon, k, out):
        self.steps += 1
        self.rows += X.shape[-1]
        return super().plan_step(X, horizon, k, out)


def test_walk_stops_at_the_first_settled_prefix(lq):
    # At N = 20 every row certifies its first prefix at threshold 0, so
    # each iteration walks one step of the plan, traced or not.  Windows
    # record every prefix: a traced run rebuilds them after the run with
    # one walk of N - 1 = 19 steps over all its windows, never the last.
    config = AlgorithmConfig(variant="alg1", horizon=20, alpha_bar=0.0)
    bare_solver, traced_solver = _CountingSolver(lq, 20), _CountingSolver(lq, 20)
    bare = run_batch(bare_solver, CIRCLE, config)
    traced = run_batch(traced_solver, CIRCLE, config, traces=True)
    windows = [w for trace in traced.traces for w in trace.windows]
    assert all(w.committed_m == 1 and len(w.probe_alphas) == len(w.probe_rhos) == 19 for w in windows)
    iterations = max(len(trace.windows) for trace in traced.traces)
    assert bare_solver.steps == iterations and traced_solver.steps == iterations + 19
    assert np.array_equal(bare.min_window_alpha, traced.min_window_alpha)


@pytest.mark.parametrize(
    "config",
    (
        AlgorithmConfig(variant="alg2", horizon=3, alpha_bar=0.5),
        AlgorithmConfig(variant="alg4", horizon=3, alpha_bar=0.5),
        AlgorithmConfig(variant="alg2", horizon=20, alpha_bar=0.01, forced_m=15),
        AlgorithmConfig(variant="alg4", horizon=20, alpha_bar=0.01, forced_m=15),
    ),
    ids=("alg2-N3", "alg4-N3", "alg2-N20-m15", "alg4-N20-m15"),
)
def test_replans_walk_only_the_tails_left(lq, monkeypatch, config):
    # A row committing m steps re-plans before each of its steps 2..m,
    # and each re-plan walks the m - j steps left after step j: m - 1
    # re-plans of m (m - 1) / 2 row steps per window, none for one-step
    # windows.  Every window here has equal tails, so no walk steps a row
    # past its own.  The probe walk and the re-plan walks each allocate
    # their buffers once per run; a traced run allocates one more set
    # after it, one row per window, for the rebuilt prefix degrees.
    engine = importlib.import_module("mpccert.engine")
    replan, allocate = engine._Lockstep._replan, PlanWalk.allocate
    tried, walked, allocations = [], [], []

    def counting_replan(state, rows, *args):
        before = state.solver.rows
        replan(state, rows, *args)
        tried.append(len(rows))
        walked.append(state.solver.rows - before)

    def counting_allocate(*shape):
        allocations.append(shape)
        return allocate(*shape)

    monkeypatch.setattr(engine._Lockstep, "_replan", counting_replan)
    monkeypatch.setattr(PlanWalk, "allocate", staticmethod(counting_allocate))
    for traces in (True, False):
        for log in (tried, walked, allocations):
            log.clear()
        batch = run_batch(_CountingSolver(lq, 2), CIRCLE, config, traces=traces)
        assert len(allocations) - traces <= 2
        if traces:
            m = np.array([w.committed_m for trace in batch.traces for w in trace.windows])
            assert allocations[-1][0] == len(m)
            assert (m > 1).any()
            assert sum(tried) == np.sum(m - 1) and sum(walked) == np.sum(m * (m - 1) // 2)
            counts = sum(tried), sum(walked)
        else:
            assert (sum(tried), sum(walked)) == counts


def test_horizon_table_walks_only_the_prefixes_it_reads(lq, monkeypatch):
    # The table's one batch builds 1,434 plan steps when every iteration
    # builds whole plans; at N = 2, 4, 5, 10 and 20 every row settles at
    # its first prefix, at N = 3 most do.
    solvers = []

    def counting_solver(*args):
        solvers.append(_CountingSolver(*args))
        return solvers[-1]

    monkeypatch.setattr(importlib.import_module("mpccert.sweep"), "LqLadderSolver", counting_solver)
    horizon_comparison(lq, unit_circle(128), (2, 3, 4, 5, 10, 20))
    assert len(solvers) == 1 and 0 < solvers[0].steps <= 270


@pytest.mark.parametrize("config", ENGINE_CONFIGS)
def test_configs_are_hashable_values(config):
    copy = dataclasses.replace(config)
    assert copy == config and copy is not config
    assert hash(copy) == hash(config)
    assert len({config, copy}) == 1


def test_config_containers_are_copied(engine_solver):
    forced = [2, 1]
    schedule = {2: 4, 5: 3}
    cfg = AlgorithmConfig(variant="alg4", horizon=5, alpha_bar=0.01, forced_m=forced, shrink_schedule=schedule)
    forced[0] = 7
    schedule[2] = 9
    schedule[0] = 1
    assert [cfg.forced_m_at(i) for i in range(3)] == [2, 1, 1]
    assert dict(cfg.shrink_schedule) == {2: 4, 5: 3}
    same = AlgorithmConfig(variant="alg4", horizon=5, alpha_bar=0.01, forced_m=(2, 1), shrink_schedule={5: 3, 2: 4})
    assert cfg == same and hash(cfg) == hash(same)
    fm = [1]
    one = AlgorithmConfig("alg1", 3, 0.1, forced_m=fm)
    fm[0] = 7
    assert one.forced_m_at(0) == 1
    assert run_closed_loop(engine_solver, CIRCLE[2], one).schedule.times[:3] == (0, 1, 2)


def test_equal_configs_share_a_group(engine_solver):
    # Equal objects run exactly like one shared object, and each row's
    # trace keeps its own object.
    s = engine_solver
    shared = ENGINE_CONFIGS[10]
    copies = [dataclasses.replace(shared) for _ in range(len(_MIXED))]
    one = run_batch(s, _MIXED, shared, traces=True)
    many = run_batch(s, _MIXED, copies, traces=True)
    for row, own in enumerate(copies):
        _assert_same_run(many.traces[row], one.traces[row])
        assert many.traces[row].config is own
    for name in ("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3",
                 "intervals", "applied_steps", "exit_count", "warning_count"):
        assert np.array_equal(getattr(many, name), getattr(one, name), equal_nan=True)


@settings(max_examples=25, deadline=None)
@given(config=st.sampled_from(ENGINE_CONFIGS), x0=_point)
def test_sign_flip_keeps_schedules_and_alphas(engine_solver, config, x0):
    # The loop is linear and the costs quadratic; IEEE negation is exact,
    # so -x0 takes the same decisions with the same numbers.
    s = engine_solver
    a = run_closed_loop(s, x0, config)
    b = run_closed_loop(s, -x0, config)
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


@settings(max_examples=50, deadline=None)
@given(config=st.sampled_from(ENGINE_CONFIGS), x0=_point, k=st.integers(-8, 8))
@example(config=ENGINE_CONFIGS[5], x0=1e3 * CIRCLE[3], k=8)
@example(config=ENGINE_CONFIGS[8], x0=CIRCLE[11], k=-8)
def test_scaling_by_a_power_of_two_scales_values_exactly(engine_solver, config, x0, k):
    # Multiplying by 2**k is exact in binary floating point, every value
    # is a quadratic form and every degree a quotient of two of them.  So
    # the runs from x0 and 2**k x0 take the same decisions on the same
    # degrees while values scale by 4**k, up to where the absolute
    # termination radius ends one run before the other.
    s = engine_solver
    a = run_closed_loop(s, x0, config)
    b = run_closed_loop(s, 2.0**k * x0, config)
    common = max(min(len(a.windows), len(b.windows)) - 1, 0)
    for wa, wb in zip(a.windows[:common], b.windows[:common]):
        assert wa.committed_m == wb.committed_m
        assert np.array_equal(wa.probe_alphas, wb.probe_alphas)
        assert wb.v_start == 4.0**k * wa.v_start

"""The lockstep engine against the scalar loop of ``oracle.py`` on random plants.

Every comparison is exact: the engine documents the order in which it
adds and compares, and the scalar loop follows the same orders one state
and one re-plan at a time, so any difference in a status, a schedule, a
certificate, a slack value or a window is a fault in one of the two.
The pinned plants reject some of their alg2 and alg4 re-plans, a branch
the bundled plant never takes.  Cases also draw horizon-shrink
schedules, and the pinned plants run every variant in one batch.
"""

import dataclasses
import warnings
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle
from oracle import closed_loop

from mpccert.certify import CERT_SLACK
from mpccert.engine import TERMINATION_RADIUS, VARIANTS, AlgorithmConfig, run_batch
from mpccert.model import LinearQuadraticInstance
from mpccert.riccati import LqBellmanSolver, LqLadderSolver, value_drop_grid
from mpccert.sweep import unit_circle

LAWS = (LqLadderSolver, LqBellmanSolver)


def random_plant(seed: int, n: int, c: int) -> tuple[LinearQuadraticInstance, np.ndarray]:
    """A random plant with two-decimal entries and spectral radius about 1.3, and three initial states.

    Gaussian ``(A, B)`` is controllable with probability one, and ``Q``
    and ``R`` are positive definite.  Open-loop growth stays near
    ``1.3 ** 330``, so runs of at most 30 windows of at most 11 steps
    overflow nothing, converging or not.  Every entry is the double
    nearest a two-decimal number, so a plant file with those decimals
    (``tools/cli_outputs.sh`` writes one) loads the same plant.
    """
    rng = np.random.default_rng(seed)
    A, B = rng.normal(size=(n, n)), rng.normal(size=(n, c))
    A *= 1.3 / max(1e-9, np.max(np.abs(np.linalg.eigvals(A))))
    M, G = rng.normal(size=(n, n)), rng.normal(size=(c, c))
    Q, R = np.round(M @ M.T + 0.1 * np.eye(n), 2), np.round(G @ G.T + 0.5 * np.eye(c), 2)
    Q, R = np.triu(Q) + np.triu(Q, 1).T, np.triu(R) + np.triu(R, 1).T
    lq = LinearQuadraticInstance(np.round(A, 2), np.round(B, 2), Q, R)
    x0 = np.round(rng.normal(size=n), 2)
    return lq, np.array([x0, -2.0 * x0, rng.normal(size=n)])


# (seed, n, c, variant, N, alpha_bar, forced_m, shrink_schedule, law).  Each pinned plant
# rejects a re-plan of its first initial state in a run that converges.
# The N = 3 plant rejects under both variants; tools/cli_outputs.sh runs
# it from the command line.  The N = 12 plant rejects so many re-plans in
# a row that the cost paid since the loop was last closed has eight and
# more terms, which np.sum adds pairwise.
PINNED = {
    "alg2-n4-c2": (49, 4, 2, "alg2", 4, 0.6, 2, None, LqLadderSolver),
    "alg2-n3-N3": (66, 3, 1, "alg2", 3, 0.6, 2, None, LqLadderSolver),
    "alg4-n3-N3": (66, 3, 1, "alg4", 3, 0.6, 2, None, LqLadderSolver),
    "alg4-n4": (382, 4, 1, "alg4", 4, 0.6, 2, None, LqLadderSolver),
    "alg2-N12-long": (145, 2, 1, "alg2", 12, 0.9, 11, None, LqLadderSolver),
}

# Shrink requests of converging runs from the first initial state.  A
# request at iteration 0 is always refused: the slack is 0 and the value
# grows with the horizon.  One at iteration 3 finds enough slack banked.
SHRINKS = {
    "refused-at-0": (817, 2, 1, "alg1", 6, 0.9, None, ((0, 3),), LqLadderSolver),
    "granted": (85, 1, 2, "alg4", 6, 0.6, None, ((3, 4),), LqLadderSolver),
}


@st.composite
def cases(draw):
    horizon = draw(st.integers(3, 6))
    steps = st.integers(1, horizon - 1)
    # Forced windows of two or more steps make alg2/alg4 re-plan.
    forced = draw(
        st.one_of(
            st.none(),
            st.integers(2, horizon - 1),
            st.lists(steps, min_size=1, max_size=3).filter(lambda v: max(v) >= 2).map(tuple),
        )
    )
    # Requests at distinct iterations whose targets never grow and leave
    # room for every forced length.
    iterations = sorted(draw(st.lists(st.integers(0, 6), max_size=3, unique=True)))
    lowest = max(np.atleast_1d(forced or 1)) + 1
    targets = draw(st.lists(st.integers(lowest, horizon), min_size=len(iterations), max_size=len(iterations)))
    shrinks = tuple(zip(iterations, sorted(targets, reverse=True))) or None
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 2)),
        draw(st.sampled_from(VARIANTS)),
        horizon,
        draw(st.sampled_from((0.0, 0.01, 0.3, 0.6, 0.9))),
        forced,
        shrinks,
        draw(st.sampled_from(LAWS)),
    )


def _config(case, variant=None) -> AlgorithmConfig:
    """The case's configuration, under ``variant`` when one is given."""
    _, _, _, own, horizon, alpha_bar, forced, shrinks, _ = case
    return AlgorithmConfig(
        variant or own, horizon, alpha_bar, forced_m=forced, shrink_schedule=shrinks, max_iterations=30
    )


def _assert_matches(trace, run) -> None:
    """An engine trace and an oracle run, compared bit for bit."""
    assert trace.status == run.status
    assert trace.schedule.times == tuple(run.times)
    assert np.array_equal(trace.states, run.states)
    assert np.array_equal(trace.applied_costs, run.applied_costs)
    assert [tuple(vars(cert).values()) for cert in trace.certificates] == run.certificates
    assert trace.slack.values == run.slack_values
    assert (trace.exit_count, trace.warning_count) == (run.exit_count, run.warning_count)
    # The chain is contiguous in time and value, and the account is the
    # running sum of the certificates' rho, from 0.0 and bit for bit.
    certificates, times = trace.certificates, trace.schedule.times
    assert [(c.sigma, c.m) for c in certificates] == [(a, b - a) for a, b in zip(times, times[1:])]
    assert all(a.v_after == b.v_before for a, b in zip(certificates, certificates[1:]))
    assert trace.slack.values == list(accumulate((c.rho for c in certificates), initial=0.0))[1:]
    assert len(trace.windows) == len(run.windows)
    for got, want in zip(trace.windows, run.windows):
        for name in ("time", "horizon", "v_start", "committed_m", "forced", "exit_event",
                     "warning_event", "closes", "v_end", "cost"):
            assert getattr(got, name) == getattr(want, name), name
        assert np.array_equal(got.probe_alphas, want.probe_alphas)
        assert np.array_equal(got.probe_rhos, want.probe_rhos)


@settings(max_examples=40, deadline=None)
@given(case=cases())
@example(case=PINNED["alg2-n4-c2"])
@example(case=PINNED["alg2-n3-N3"])
@example(case=PINNED["alg4-n3-N3"])
@example(case=PINNED["alg4-n4"])
@example(case=PINNED["alg2-N12-long"])
@example(case=SHRINKS["refused-at-0"])
@example(case=SHRINKS["granted"])
def test_engine_matches_the_scalar_oracle(case):
    seed, n, c, *_, law = case
    lq, X = random_plant(seed, n, c)
    config = _config(case)
    batch = run_batch(law(lq, 2), X, config, traces=True)
    for trace, x0 in zip(batch.traces, X):
        _assert_matches(trace, closed_loop(law(lq, 2), x0, config))


@pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
def test_pinned_plants_reject_replans(case):
    # Each pinned plant keeps the engine's rejection branch under test:
    # its run converges without a RuntimeWarning and turns down at least
    # one re-plan, which the engine's windows show as fewer closes than
    # re-plans tried.
    seed, n, c, *_, law = case
    lq, X = random_plant(seed, n, c)
    config = _config(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run = closed_loop(law(lq, 2), X[0], config)
        trace = run_batch(law(lq, 2), X[:1], config, traces=True).traces[0]
    assert run.status == trace.status == "converged"
    assert 0 < run.replans_accepted < run.replans_tried
    assert sum(w.closes for w in trace.windows) == run.replans_accepted
    assert sum(w.committed_m - 1 for w in trace.windows) == run.replans_tried


@pytest.mark.parametrize("case", PINNED.values(), ids=PINNED.keys())
def test_mixed_variant_batches_match_the_oracle(case):
    # One batch runs every initial state under all four variants, so each
    # re-plan decides by its own row's rule next to rows of other variants.
    seed, n, c, *_, law = case
    lq, X = random_plant(seed, n, c)
    configs = [_config(case, variant) for variant in VARIANTS for _ in X]
    X = np.concatenate([X] * len(VARIANTS))
    batch = run_batch(law(lq, 2), X, configs, traces=True)
    rejected = 0
    for trace, x0, config in zip(batch.traces, X, configs):
        run = closed_loop(law(lq, 2), x0, config)
        _assert_matches(trace, run)
        rejected += run.replans_tried - run.replans_accepted
    assert rejected > 0


@pytest.mark.parametrize("name", SHRINKS)
def test_pinned_shrink_requests(name):
    # Keeps the two shrink examples above meaningful: one request refused,
    # one granted.
    case = SHRINKS[name]
    seed, n, c, *_, law = case
    lq, X = random_plant(seed, n, c)
    trace = run_batch(law(lq, 2), X[:1], _config(case), traces=True).traces[0]
    [(_, target)] = case[7]
    assert trace.status == "converged"
    assert any(w.horizon == target for w in trace.windows) == (name == "granted")


# Initial states at these multiples of TERMINATION_RADIUS, on both sides of it.
RADII = (0.5, 0.999, 1.001, 2.0, 10.0)


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("plant", ("bundled", 145, 817))
def test_rows_near_the_termination_radius_match_the_oracle(lq, plant, law):
    # The engine runs its stop test only once some row's value is small
    # enough for its state to be at rest, by a bound that must hold at
    # every horizon.  Rows just inside and just outside the radius, at
    # horizons 2 and 10 in one batch, must stop where the scalar loop does;
    # their directions are four on the unit circle and the one in which
    # x' P_10 x is largest.
    if plant != "bundled":
        lq, _ = random_plant(plant, 2, 1)
    top = np.linalg.eigh(law(lq, 10).ladder.matrix(10))[1][:, -1]
    points = [r * TERMINATION_RADIUS * d for r in RADII for d in (*unit_circle(4).points, top)]
    rows = [(x0, AlgorithmConfig(v, N, 0.5, max_iterations=30)) for v in VARIANTS for N in (2, 10) for x0 in points]
    X, configs = np.array([x0 for x0, _ in rows]), [config for _, config in rows]
    batch = run_batch(law(lq, 2), X, configs, traces=True)
    for trace, x0, config in zip(batch.traces, X, configs):
        _assert_matches(trace, closed_loop(law(lq, 2), x0, config))
        assert (trace.iterations == 0) == (np.linalg.norm(x0) < TERMINATION_RADIUS)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    c=st.integers(1, 2),
    horizon=st.sampled_from((2, 3, 5, 10, 20)),
)
def test_bellman_plans_attain_the_value_and_ladder_plans_cost_no_less(seed, n, c, horizon):
    # The dynamic-programming law is optimal, so its plan costs exactly
    # x' P_N x; any other law, the ladder's included, costs at least that.
    # Each law's plans are checked against its own ``value``.  The zero
    # state has value 0 and needs atol=0 to pass on the relative bound.
    lq, x0s = random_plant(seed, n, c)
    X = np.vstack([x0s, np.zeros(n)])
    bellman = LqBellmanSolver(lq, horizon).plans(X, horizon)
    ladder = LqLadderSolver(lq, horizon).plans(X, horizon)
    np.testing.assert_allclose(bellman.stage_costs.sum(axis=1), bellman.value, rtol=1e-10, atol=0)
    assert np.all(ladder.stage_costs.sum(axis=1) >= ladder.value * (1.0 - 1e-10))


SHARED = tuple((law, horizon) for law in LAWS for horizon in (2, 3, 5, 10))


def _same_bits(got, want, name: str) -> None:
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), c=st.integers(1, 2), order=st.permutations(SHARED))
def test_solvers_sharing_a_plant_match_solvers_of_a_fresh_copy(seed, n, c, order):
    # Solvers of one plant share its ladder, which each one may find built
    # past its horizon, or short of it, and extend.  Built in
    # any horizon order under both laws, each gives the bits of the same
    # solver alone on a fresh copy of the plant.
    lq, X = random_plant(seed, n, c)
    for law, horizon in order:
        shared, alone = law(lq, horizon), law(LinearQuadraticInstance(lq.A, lq.B, lq.Q, lq.R), horizon)
        got, want = shared.plans(X, horizon), alone.plans(X, horizon)
        for name in ("controls", "trajectory", "stage_costs", "value", "tail_values"):
            _same_bits(getattr(got, name), getattr(want, name), name)
        per_row = np.array([1, horizon, 2])
        _same_bits(shared.values_of(X, per_row), alone.values_of(X, per_row), "values_of")
        if n == 2:
            for m in (1, horizon - 1):
                _same_bits(value_drop_grid(shared, horizon, m, n=5)[1], value_drop_grid(alone, horizon, m, n=5)[1], "grid")
        config = AlgorithmConfig("alg4", horizon, 0.3, forced_m=max(1, horizon // 2), max_iterations=30)
        got, want = run_batch(shared, X, config), run_batch(alone, X, config)
        assert got.status == want.status
        for f in dataclasses.fields(got):
            if isinstance(getattr(got, f.name), np.ndarray):
                _same_bits(getattr(got, f.name), getattr(want, f.name), f.name)


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.integers(1, 2),
    law=st.sampled_from(LAWS),
    horizon=st.sampled_from((2, 3, 5)),
    n=st.integers(0, 70),
)
@example(seed=66, c=1, law=LqBellmanSolver, horizon=5, n=65)
def test_value_drop_grid_matches_the_plan_path_on_random_plants(seed, c, law, horizon, n):
    # The mirrored upper half of the grid keeps the bits of whole plans
    # from every state of its axis, on plants of either sign structure.
    lq, _ = random_plant(seed, 2, c)
    solver = law(lq, horizon)
    for m in range(1, horizon):
        axis, drops = value_drop_grid(solver, horizon, m, n=n)
        _same_bits(axis, oracle.grid_axis(n), "axis")
        X = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
        ends = solver.plans(X, horizon).trajectory[:, m]
        _same_bits(drops.reshape(-1), solver.values_of(X, horizon) - solver.values_of(ends, horizon), "grid")


def test_oracle_tolerances_are_the_engines():
    # oracle.py writes the engine's two tolerances out instead of importing them.
    assert (oracle.CERT_SLACK, oracle.TERMINATION_RADIUS) == (CERT_SLACK, TERMINATION_RADIUS)

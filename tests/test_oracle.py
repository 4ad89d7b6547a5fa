"""The lockstep engine against the scalar loop of ``oracle.py`` on random plants.

Every comparison is exact: the engine documents the order in which it
adds and compares, and the scalar loop follows the same orders one state
and one re-plan at a time, so any difference in a status, a schedule, a
certificate, a slack value or a window is a fault in one of the two.
The pinned plants reject some of their alg2 and alg4 re-plans, a branch
the bundled plant never takes.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle import closed_loop

from mpccert.engine import VARIANTS, AlgorithmConfig, run_batch
from mpccert.model import LinearQuadraticInstance
from mpccert.riccati import LqBellmanSolver, LqLadderSolver

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


# (seed, n, c, variant, N, alpha_bar, forced_m, law).  Each pinned plant
# rejects a re-plan of its first initial state in a run that converges.
# The N = 3 plant rejects under both variants; tools/cli_outputs.sh runs
# it from the command line.  The N = 12 plant rejects so many re-plans in
# a row that the cost paid since the loop was last closed has eight and
# more terms, which np.sum adds pairwise.
PINNED = {
    "alg2-n4-c2": (49, 4, 2, "alg2", 4, 0.6, 2, LqLadderSolver),
    "alg2-n3-N3": (66, 3, 1, "alg2", 3, 0.6, 2, LqLadderSolver),
    "alg4-n3-N3": (66, 3, 1, "alg4", 3, 0.6, 2, LqLadderSolver),
    "alg4-n4": (382, 4, 1, "alg4", 4, 0.6, 2, LqLadderSolver),
    "alg2-N12-long": (145, 2, 1, "alg2", 12, 0.9, 11, LqLadderSolver),
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
    return (
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 4)),
        draw(st.integers(1, 2)),
        draw(st.sampled_from(VARIANTS)),
        horizon,
        draw(st.sampled_from((0.0, 0.01, 0.3, 0.6, 0.9))),
        forced,
        draw(st.sampled_from(LAWS)),
    )


def _config(case) -> AlgorithmConfig:
    _, _, _, variant, horizon, alpha_bar, forced, _ = case
    return AlgorithmConfig(variant, horizon, alpha_bar, forced_m=forced, max_iterations=30)


def _assert_matches(trace, run) -> None:
    """An engine trace and an oracle run, compared bit for bit."""
    assert trace.status == run.status
    assert trace.schedule.times == tuple(run.times)
    assert np.array_equal(trace.states, run.states)
    assert np.array_equal(trace.applied_costs, run.applied_costs)
    assert [tuple(vars(cert).values()) for cert in trace.certificates] == run.certificates
    assert trace.slack.values == run.slack_values
    assert (trace.exit_count, trace.warning_count) == (run.exit_count, run.warning_count)
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

import numpy as np
import pytest

from mpccert.engine import (
    VARIANTS,
    AlgorithmConfig,
    UpdateSchedule,
    run_batch,
    run_closed_loop,
    shrink_horizon_check,
)
from mpccert.errors import ConfigError
from mpccert.riccati import LqLadderSolver
from mpccert.sweep import unit_circle

X_A = np.array([0.0, 1.0])
X_B = np.array([1.0, 0.0])


def _cfg(variant, alpha_bar, horizon=3, **kw):
    return AlgorithmConfig(variant=variant, horizon=horizon, alpha_bar=alpha_bar, **kw)


# --- configuration validation ------------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        _cfg("alg9", 0.5)
    with pytest.raises(ConfigError):
        _cfg("alg1", 0.5, horizon=1)
    with pytest.raises(ConfigError):
        _cfg("alg1", 1.5)
    with pytest.raises(ConfigError):
        _cfg("alg1", -0.1)
    with pytest.raises(ConfigError, match="alpha_bar must lie in"):
        _cfg("alg1", "0.1")
    with pytest.raises(ConfigError):
        _cfg("alg1", 0.5, forced_m=3)
    with pytest.raises(ConfigError):
        _cfg("alg1", 0.5, forced_m=[1, 0])
    with pytest.raises(ConfigError, match="forced_m sequence must not be empty"):
        _cfg("alg1", 0.5, forced_m=[])
    with pytest.raises(ConfigError):
        _cfg("alg1", 0.5, max_iterations=0)
    assert _cfg("alg1", 0.0).alpha_bar == 0.0
    assert _cfg("alg1", 1.0).alpha_bar == 1.0


def test_config_rejects_non_integral_counts(solver):
    # A fractional horizon would run at its floor while summary() reported
    # the fraction, and a fractional cap would stop at its ceiling.  A
    # fractional forced length or shrink request would be rounded down.
    for kw in (
        {"horizon": 3.5},
        {"horizon": 3.0},
        {"max_iterations": 2.5},
        {"max_iterations": "5"},
        {"forced_m": 1.5},
        {"forced_m": [1.5]},
        {"forced_m": [2.9]},
        {"shrink_schedule": {1.5: 3.9}},
    ):
        with pytest.raises(ConfigError, match="must be an integer"):
            _cfg("alg1", 0.5, **kw)
    numpy_ints = _cfg("alg1", 0.5, horizon=np.int64(3), max_iterations=np.int32(5))
    assert numpy_ints == _cfg("alg1", 0.5, horizon=3, max_iterations=5)
    assert type(numpy_ints.horizon) is int and type(numpy_ints.max_iterations) is int
    counts = _cfg("alg3", 0.5, 5, forced_m=[np.int64(1), 2], shrink_schedule={np.int32(1): np.int64(3)})
    assert counts == _cfg("alg3", 0.5, 5, forced_m=(1, 2), shrink_schedule={1: 3})
    assert [type(v) for v in counts.forced_m + counts.shrink_schedule[0]] == [int] * 4
    assert type(_cfg("alg1", 0.5, forced_m=np.int64(2)).forced_m) is int
    trace = run_closed_loop(solver, X_A, numpy_ints)
    assert trace.summary()["horizon"] == 3 and trace.iterations <= 5


# Each shrink schedule below is rejected when the configuration is built:
# run as it was, it could fail only mid-run, once a request is granted or
# reached, and in a batch that failure would abort every other row.


def test_shrink_schedule_rejects_negative_iteration():
    with pytest.raises(ConfigError, match="iterations >= 0"):
        _cfg("alg3", 0.01, horizon=5, shrink_schedule={-1: 3})


def test_shrink_schedule_rejects_target_below_two():
    with pytest.raises(ConfigError, match=r"targets in \[2, 5\]"):
        _cfg("alg3", 0.01, horizon=5, shrink_schedule={0: 1})


def test_shrink_schedule_rejects_target_above_horizon():
    with pytest.raises(ConfigError, match=r"targets in \[2, 5\]"):
        _cfg("alg3", 0.01, horizon=5, shrink_schedule={0: 9})


def test_shrink_schedule_rejects_forced_m_too_long_for_the_target():
    # forced_m = 3 fits horizon 5 but not the shrunk horizon 3.
    with pytest.raises(ConfigError, match="does not fit the shrunk horizon 3"):
        _cfg("alg3", 0.01, horizon=5, forced_m=3, shrink_schedule={2: 3})
    with pytest.raises(ConfigError, match="does not fit the shrunk horizon 3"):
        _cfg("alg4", 0.01, horizon=5, forced_m=[1, 3], shrink_schedule={2: 4, 6: 3})


def test_shrink_schedule_rejects_growing_targets():
    # Once the shrink to 3 is granted, a request for 4 would be a growth.
    with pytest.raises(ConfigError, match="must not grow"):
        _cfg("alg3", 0.01, horizon=5, shrink_schedule={2: 3, 5: 4})


def test_valid_shrink_schedules_are_accepted():
    _cfg("alg3", 0.01, horizon=5, shrink_schedule={0: 5, 2: 4, 5: 4, 9: 2})
    _cfg("alg4", 0.01, horizon=5, forced_m=[2, 1], shrink_schedule={1: 3})


def test_update_schedule_validation():
    with pytest.raises(ConfigError):
        UpdateSchedule(times=(1, 2))
    with pytest.raises(ConfigError):
        UpdateSchedule(times=(0, 2, 2))
    sched = UpdateSchedule(times=(0, 2, 3, 5))
    assert list(sched.m_values) == [2, 1, 2]


# --- frozen reference runs ---------------------------------------------------


def test_alg1_reference_runs(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg1", 0.5))
    assert trace.status == "exit-strategy-failed"
    assert trace.iterations == 33
    assert trace.exit_count == 3
    assert [w.committed_m for w in trace.windows][:12] == [2, 1, 1, 1, 1, 1, 1, 2, 1, 1, 1, 1]
    assert trace.windows[0].window_alpha == pytest.approx(0.514376631, abs=1e-8)

    trace_b = run_closed_loop(solver, X_B, _cfg("alg1", 0.5))
    assert trace_b.status == "exit-strategy-failed"
    assert trace_b.exit_count == 4
    assert trace_b.windows[0].window_alpha == pytest.approx(0.747027227, abs=1e-8)


def test_alg2_reference_runs(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg2", 0.5))
    assert trace.status == "exit-strategy-failed"
    assert trace.iterations == 32
    assert len(trace.certificates) == 38
    assert trace.exit_count == 2
    assert [w.committed_m for w in trace.windows][:10] == [2, 1, 1, 1, 1, 1, 1, 2, 1, 1]
    assert trace.windows[0].window_alpha == pytest.approx(0.513625463, abs=1e-8)
    assert trace.min_window_alpha == pytest.approx(-0.419938138, abs=1e-8)
    assert trace.certificates[0].alpha == pytest.approx(0.327854988, abs=1e-8)
    assert trace.alpha_cor3 == pytest.approx(0.676922253, abs=1e-8)

    trace_b = run_closed_loop(solver, X_B, _cfg("alg2", 0.5))
    assert trace_b.iterations == 30
    assert len(trace_b.certificates) == 37
    assert [w.committed_m for w in trace_b.windows][:10] == [2, 1, 2, 1, 1, 1, 1, 1, 1, 2]
    assert trace_b.windows[0].window_alpha == pytest.approx(0.773287849, abs=1e-8)
    assert trace_b.alpha_cor3 == pytest.approx(0.795249510, abs=1e-8)


def test_single_step_watchdog_reference_run(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg3", 0.01, forced_m=1))
    assert trace.status == "converged"
    assert trace.iterations == 38
    assert trace.warning_count == 0
    assert trace.alpha_cor3 == pytest.approx(0.676922253, abs=1e-8)
    expected = [
        # (alpha, rho, cost, slack after the interval)
        (0.327854988, 0.764804454, 2.406142684, 0.764804454),
        (0.734481315, 1.466278097, 2.023900502, 2.231082551),
        (0.927510590, 2.185949990, 2.382479303, 4.417032541),
    ]
    for cert, s, row in zip(trace.certificates, trace.slack.values, expected):
        assert cert.m == 1
        assert cert.alpha == pytest.approx(row[0], abs=1e-8)
        assert cert.rho == pytest.approx(row[1], abs=1e-8)
        assert cert.cost_sum == pytest.approx(row[2], abs=1e-8)
        assert s == pytest.approx(row[3], abs=1e-8)


def test_alg4_reference_run(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg4", 0.5))
    assert trace.status == "converged"
    assert trace.warning_count == 0
    assert len(trace.certificates) == 38
    assert all(c.m == 1 for c in trace.certificates)
    assert trace.alpha_cor3 == pytest.approx(0.676922253, abs=1e-8)
    assert trace.slack.total == pytest.approx(1.335562215, abs=1e-8)


def test_forced_window_probe(solver):
    # Forcing two applied steps commits the two-step degree regardless
    # of the threshold.
    trace = run_closed_loop(solver, X_A, _cfg("alg1", 0.9, forced_m=2))
    assert trace.exit_count == 0
    assert trace.windows[0].committed_m == 2
    assert trace.windows[0].window_alpha == pytest.approx(0.514376631, abs=1e-8)


def test_forced_m_sequence_repeats_last_value(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg1", 0.5, forced_m=[2, 1]))
    ms = [w.committed_m for w in trace.windows]
    assert ms[0] == 2
    assert all(m == 1 for m in ms[1:])


def test_forced_watchdog_warns_at_bad_startup(solver, grid):
    # Point 5 of the circle starts with a one-step degree below 0.01;
    # single-step forcing must warn immediately and keep going.
    bad = grid.points[4]
    trace = run_closed_loop(solver, bad, _cfg("alg3", 0.01, forced_m=1))
    assert trace.status == "warning-issued"
    assert trace.windows[0].warning_event
    assert trace.windows[0].committed_m == 1
    # The slack account still books every interval.
    assert len(trace.slack.values) == len(trace.certificates)


def test_natural_warning_and_exit_at_high_threshold(solver, grid):
    # At threshold 0.6, point 9 fails both prefix probes at startup
    # (frozen: alpha_1 = -0.545, alpha_2 = 0.590), so the adaptive
    # variant exits and the watchdog warns, both at the first window.
    x = grid.points[8]
    t1 = run_closed_loop(solver, x, _cfg("alg1", 0.6))
    assert t1.status == "exit-strategy-failed"
    assert t1.windows[0].exit_event
    assert t1.windows[0].committed_m == 1
    t3 = run_closed_loop(solver, x, _cfg("alg3", 0.6))
    assert t3.status == "warning-issued"
    assert t3.windows[0].warning_event
    assert t3.windows[0].committed_m == 1
    assert t3.windows[0].probe_alphas[0] == pytest.approx(-0.545085, abs=1e-5)
    assert t3.windows[0].probe_alphas[1] == pytest.approx(0.590334, abs=1e-5)


def test_slack_can_cover_an_uncertified_window(solver):
    # From (0,1) at threshold 0.5 the third window after the banked
    # surplus fails both probes; the account covers the better prefix,
    # so the watchdog variant commits two steps where the adaptive
    # variant falls back to one.
    t1 = run_closed_loop(solver, X_A, _cfg("alg1", 0.5))
    t3 = run_closed_loop(solver, X_A, _cfg("alg3", 0.5))
    assert t3.status == "converged"
    assert t3.warning_count == 0
    m1 = [w.committed_m for w in t1.windows][:6]
    m3 = [w.committed_m for w in t3.windows][:6]
    assert m1 == [2, 1, 1, 1, 1, 1]
    assert m3 == [2, 1, 1, 2, 1, 1]
    covered = t3.windows[3]
    assert float(np.max(covered.probe_rhos)) < 0.0


# --- structural invariants ---------------------------------------------------


ALL_VARIANTS = ("alg1", "alg2", "alg3", "alg4")


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("alpha_bar", (0.0, 0.01, 0.5))
def test_schedule_soundness_and_replay(solver, variant, alpha_bar):
    trace = run_closed_loop(solver, X_A, _cfg(variant, alpha_bar))
    assert trace.schedule.times[0] == 0
    assert int(np.sum(trace.schedule.m_values)) == len(trace.applied_controls)
    assert np.all(trace.schedule.m_values >= 1)
    assert np.all(trace.schedule.m_values <= trace.config.horizon - 1)
    # The applied controls replayed through the plant, row-wise in one
    # call, give the trace's states and costs bit for bit.
    before, controls = trace.states[:-1], trace.applied_controls
    assert np.array_equal(solver.lq.dynamics(before, controls), trace.states[1:])
    assert np.array_equal(solver.lq.stage_cost(before, controls), trace.applied_costs)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
@pytest.mark.parametrize("alpha_bar", (0.0, 0.01, 0.5))
def test_slack_telescoping(solver, variant, alpha_bar):
    # The banked slack always equals the total value drop minus the
    # threshold-weighted cost, interval by interval.
    for x0 in (X_A, np.array([0.6, -0.8])):
        trace = run_closed_loop(solver, x0, _cfg(variant, alpha_bar))
        v0 = trace.certificates[0].v_before
        paid = 0.0
        for cert, s in zip(trace.certificates, trace.slack.values):
            paid += cert.cost_sum
            expected = v0 - cert.v_after - alpha_bar * paid
            assert s == pytest.approx(expected, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("variant", ALL_VARIANTS)
def test_certificate_chain_is_contiguous(solver, variant):
    trace = run_closed_loop(solver, X_A, _cfg(variant, 0.5))
    assert len(trace.certificates) == len(trace.schedule.times) - 1
    for a, b in zip(trace.certificates, trace.certificates[1:]):
        assert a.v_after == b.v_before
    for cert, sigma, nxt in zip(
        trace.certificates, trace.schedule.times, trace.schedule.times[1:]
    ):
        assert cert.sigma == sigma
        assert cert.m == nxt - sigma


def test_descent_bound_from_any_nonnegative_slack_point(solver):
    # Whenever the account is nonnegative after an interval, the state
    # reached there is certified against the starting value.
    for variant, alpha_bar in (("alg3", 0.5), ("alg4", 0.5), ("alg3", 0.01)):
        trace = run_closed_loop(solver, X_A, _cfg(variant, alpha_bar))
        v0 = trace.certificates[0].v_before
        paid = 0.0
        hit = 0
        for cert, s in zip(trace.certificates, trace.slack.values):
            paid += cert.cost_sum
            if s >= 0.0:
                hit += 1
                assert cert.v_after + alpha_bar * paid <= v0 + 1e-9
        assert hit > 0


def test_performance_bound_when_all_intervals_certify(solver, grid):
    # With every interval's surplus nonnegative, the threshold bounds
    # the whole realized cost against the initial value.
    for x0 in (X_B, grid.points[40], grid.points[100]):
        trace = run_closed_loop(solver, x0, _cfg("alg1", 0.01))
        assert trace.status == "converged"
        assert all(c.rho >= 0.0 for c in trace.certificates)
        assert 0.01 * trace.total_cost <= trace.certificates[0].v_before + 1e-10


def test_monotone_value_decrease_at_certified_windows(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg1", 0.01))
    assert trace.exit_count == 0
    for w in trace.windows:
        assert w.v_end < w.v_start


def test_watchdog_reduces_to_adaptive_when_silent(solver, grid):
    # Exact trace equality whenever the adaptive variant never needs
    # its fallback.
    cases = [(X_A, 0.3), (np.array([0.6, -0.8]), 0.01)]
    rng = np.random.default_rng(43)
    for _ in range(10):
        cases.append((rng.uniform(-1.5, 1.5, size=2), 0.3))
    checked = 0
    for x0, alpha_bar in cases:
        t1 = run_closed_loop(solver, x0, _cfg("alg1", alpha_bar))
        if t1.exit_count:
            continue
        checked += 1
        t3 = run_closed_loop(solver, x0, _cfg("alg3", alpha_bar))
        assert t3.schedule.times == t1.schedule.times
        assert np.array_equal(t3.states, t1.states)
        assert np.array_equal(t3.applied_controls, t1.applied_controls)
        assert t3.certificates == t1.certificates
        assert t3.status == t1.status == "converged"
    assert checked >= 2


def test_determinism(solver):
    a = run_closed_loop(solver, X_A, _cfg("alg4", 0.5))
    b = run_closed_loop(solver, X_A, _cfg("alg4", 0.5))
    assert np.array_equal(a.states, b.states)
    assert a.certificates == b.certificates
    assert a.slack.values == b.slack.values


def test_startup_failures_do_not_exhaust_all_prefixes(solver, grid):
    # At the 0.01 threshold the one-step probe fails on part of the
    # circle, but a longer prefix always certifies: the adaptive
    # variant never takes its fallback there, so the meaningful
    # failure set at this threshold is the startup one-step set.
    startup_failures = 0
    for x0 in grid.points:
        trace = run_closed_loop(solver, x0, _cfg("alg1", 0.01))
        assert trace.exit_count == 0
        assert trace.status == "converged"
        if trace.startup_onestep_alpha < 0.01:
            startup_failures += 1
    assert startup_failures == 44


def test_immediate_convergence_at_equilibrium(solver):
    trace = run_closed_loop(solver, np.zeros(2), _cfg("alg2", 0.5))
    assert trace.status == "converged"
    assert trace.certificates == ()
    assert trace.schedule.times == (0,)
    assert trace.states.shape == (1, 2)
    assert np.isnan(trace.alpha_cor3)


def test_max_iterations_and_status_precedence(solver):
    capped = run_closed_loop(solver, X_A, _cfg("alg3", 0.5, max_iterations=5))
    assert capped.status == "max-iterations"
    assert capped.iterations == 5
    # A flagged fallback overrides the base status.
    flagged = run_closed_loop(solver, X_A, _cfg("alg1", 0.5, max_iterations=5))
    assert flagged.exit_count > 0
    assert flagged.status == "exit-strategy-failed"


def test_summary_keys(solver):
    trace = run_closed_loop(solver, X_A, _cfg("alg1", 0.5))
    summary = trace.summary()
    for key in (
        "variant",
        "status",
        "iterations",
        "intervals",
        "alpha_cor3",
        "slack_final",
        "startup_onestep_alpha",
    ):
        assert key in summary
    assert summary["applied_steps"] == len(trace.applied_costs)


# --- horizon shrinking -------------------------------------------------------


def test_shrink_check_validation(solver):
    x = np.array([0.0, 1.0])
    assert shrink_horizon_check(solver, x, 5, 5)
    with pytest.raises(ConfigError):
        shrink_horizon_check(solver, x, 5, 1)
    with pytest.raises(ConfigError):
        shrink_horizon_check(solver, x, 3, 5)
    # The one-time value drop must be covered by banked slack.
    assert shrink_horizon_check(solver, x, 5, 3, slack_total=10.0)
    assert not shrink_horizon_check(solver, x, 5, 3, slack_total=0.0)


def test_shrink_check_takes_one_horizon_per_row(solver):
    # A row already at the target is a no-op whatever its slack; the
    # others are decided as on their own.
    X = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    horizon = np.array([5, 3, 4])
    slack = np.array([0.0, -1.0, 10.0])
    ok = shrink_horizon_check(solver, X, horizon, 3, slack)
    assert ok.tolist() == [
        shrink_horizon_check(solver, x, int(n), 3, float(v)) for x, n, v in zip(X, horizon, slack)
    ] == [False, True, True]
    with pytest.raises(ConfigError, match="may only shrink"):
        shrink_horizon_check(solver, X, np.array([5, 2, 4]), 3)


def test_mid_run_shrink_keeps_certificates_sound(solver):
    cfg = _cfg("alg3", 0.01, horizon=5, shrink_schedule={5: 3})
    trace = run_closed_loop(solver, X_A, cfg)
    assert trace.status == "converged"
    horizons = [w.horizon for w in trace.windows]
    assert horizons[4] == 5
    assert horizons[5] == 3
    for a, b in zip(trace.certificates, trace.certificates[1:]):
        assert a.v_after == b.v_before
    v0 = trace.certificates[0].v_before
    paid = 0.0
    for cert, s in zip(trace.certificates, trace.slack.values):
        paid += cert.cost_sum
        assert s == pytest.approx(v0 - cert.v_after - 0.01 * paid, abs=1e-9)


def test_uncovered_shrink_request_is_ignored(solver):
    # Requesting the shrink at the very first window, with nothing
    # banked, fails the check and the run keeps its horizon.
    cfg = _cfg("alg3", 0.01, horizon=5, shrink_schedule={0: 3})
    trace = run_closed_loop(solver, X_A, cfg)
    assert all(w.horizon == 5 for w in trace.windows)


# --- summation conventions ------------------------------------------------------


@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize(
    "horizon,alpha_bar,forced_m",
    [(3, 0.5, None), (3, 0.01, (2, 1)), (10, 0.99999, None), (20, 0.01, 15), (20, 0.3, (15, 9, 1))],
)
def test_window_and_interval_sums(lq, variant, horizon, alpha_bar, forced_m):
    # A window's cost is np.sum of the applied costs it covers, which adds
    # 8 or more terms pairwise; a certificate's cost_sum adds the costs of
    # its interval one by one, left to right from 0.0.  Forced 15-step
    # windows cover the pairwise case, and alg2/alg4 rows re-plan inside
    # them, so their intervals are shorter than their windows.
    config = AlgorithmConfig(variant, horizon, alpha_bar, forced_m=forced_m)
    batch = run_batch(LqLadderSolver(lq, horizon), unit_circle(16).points, config, traces=True)
    long_windows = short_intervals = 0
    for trace in batch.traces:
        costs = trace.applied_costs
        for w in trace.windows:
            assert w.cost == np.sum(costs[w.time : w.time + w.committed_m])
            long_windows += w.committed_m >= 8
        for cert in trace.certificates:
            total = 0.0
            for cost in costs[cert.sigma : cert.sigma + cert.m].tolist():
                total += cost
            assert cert.cost_sum == total
        short_intervals += len(trace.certificates) > len(trace.windows)
    if forced_m is not None and max(np.atleast_1d(forced_m)) >= 8:
        assert long_windows > 0
        assert (short_intervals > 0) == (variant in ("alg2", "alg4"))

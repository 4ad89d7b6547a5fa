"""A scalar closed loop, one state at a time, for checking the lockstep engine.

:func:`closed_loop` runs the four variants the way the engine's
docstring states them, one plant step and one re-plan at a time, with
whole plans from :meth:`FiniteHorizonSolver.solve`.  It shares no code
with :mod:`mpccert.engine` or :mod:`mpccert.certify`: degrees, slacks,
the alg2 budget rule, the alg4 account, the horizon-shrink check and
the certificates are written out here.  It adds in the orders the
engine documents (prefix costs left to right, window and budget sums by
``np.sum``), so a correct engine matches it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# The engine's two tolerances, written out rather than imported:
# acceptance inequalities hold up to CERT_SLACK, and a run has converged
# once its state is within TERMINATION_RADIUS of the origin.
CERT_SLACK = 1e-10
TERMINATION_RADIUS = 1e-8


@dataclass
class Window:
    time: int
    horizon: int
    v_start: float
    probe_alphas: np.ndarray
    probe_rhos: np.ndarray
    committed_m: int
    forced: bool
    exit_event: bool
    warning_event: bool
    closes: int
    v_end: float
    cost: float


@dataclass
class Run:
    status: str
    times: list[int]
    states: np.ndarray
    applied_costs: np.ndarray
    # (n, sigma, m, v_before, v_after, cost_sum, alpha, rho) per closed interval.
    certificates: list[tuple]
    slack_values: list[float]
    windows: list[Window]
    exit_count: int
    warning_count: int
    replans_tried: int
    replans_accepted: int


def _degree(v_before: float, v_after: float, cost: float) -> float:
    return 1.0 if cost == 0.0 else (v_before - v_after) / cost


def grid_axis(n: int, extent: float = 1.5) -> np.ndarray:
    """``value_drop_grid``'s axis, written out one entry at a time.

    The lower half of ``np.linspace(-extent, extent, n)``, entry ``n - 1 - i``
    the exact negation of entry ``i``, and ``+0.0`` at an odd grid's centre;
    one point stays at ``-extent``.
    """
    axis = np.linspace(-extent, extent, n)
    for i in range(n // 2):
        axis[n - 1 - i] = -axis[i]
    if n % 2 and n > 1:
        axis[n // 2] = 0.0
    return axis


def closed_loop(solver, x0, config) -> Run:
    """Run ``config`` (an ``AlgorithmConfig``) from ``x0`` on ``solver``."""
    variant, horizon, alpha_bar = config.variant, config.horizon, config.alpha_bar
    watchdog, replanning = variant in ("alg3", "alg4"), variant in ("alg2", "alg4")
    forced_values = () if config.forced_m is None else np.atleast_1d(config.forced_m).tolist()
    shrinks = dict(config.shrink_schedule or ())
    x = np.array(x0, dtype=float)
    states, costs, times = [x.copy()], [], [0]
    certificates, slack_values, windows = [], [], []
    slack = 0.0
    exits = warnings = tried = accepted = 0
    t = 0
    pending = None  # (start time, value at start, cost paid so far)

    def close(v_here: float) -> None:
        nonlocal pending, slack
        if pending is None:
            return
        sigma, v_before, cost_sum = pending
        rho = v_before - v_here - alpha_bar * cost_sum
        certificates.append(
            (len(certificates), sigma, t - sigma, v_before, v_here, cost_sum, _degree(v_before, v_here, cost_sum), rho)
        )
        slack += rho
        slack_values.append(slack)
        times.append(t)
        pending = None

    iteration = 0
    while True:
        if math.sqrt(sum(v * v for v in x.tolist())) <= TERMINATION_RADIUS:
            status = "converged"
            break
        if iteration >= config.max_iterations:
            status = "max-iterations"
            break
        n_new = shrinks.get(iteration)
        if n_new is not None and n_new != horizon:
            drop = solver.value_of(x, n_new) - solver.value_of(x, horizon)
            if slack + drop >= -CERT_SLACK:
                horizon = n_new

        plan = solver.solve(x, horizon)
        v_start = plan.value
        close(v_start)
        drops = v_start - solver.values_of(plan.trajectory[1:horizon], horizon)
        prefix = np.cumsum(plan.stage_costs)[: horizon - 1]
        alphas = np.array([1.0 if c == 0.0 else d / c for d, c in zip(drops, prefix)])
        rhos = drops - alpha_bar * prefix

        forced = forced_values[min(iteration, len(forced_values) - 1)] if forced_values else None
        exit_event = warning_event = False
        if forced is not None:
            m = forced
            warning_event = watchdog and slack + float(np.max(rhos[:m])) < 0.0
        else:
            hits = np.flatnonzero(rhos >= 0.0 if watchdog else alphas >= alpha_bar)
            if hits.size:
                m = int(hits[0]) + 1
            elif not watchdog:
                m, exit_event = 1, True
            elif slack + float(np.max(rhos)) >= 0.0:
                m = int(np.argmax(rhos)) + 1
            else:
                m, warning_event = 1, True
        exits += exit_event
        warnings += warning_event

        window_time = t
        if pending is None:
            pending = (t, v_start, 0.0)
        anchor, anchor_value, since, closes = plan, v_start, 0, 0
        for applied in range(1, m + 1):
            cost = float(anchor.stage_costs[since])
            x = anchor.trajectory[since + 1].copy()
            costs.append(cost)
            states.append(x.copy())
            since += 1
            t += 1
            sigma, v_before, cost_sum = pending
            pending = (sigma, v_before, cost_sum + cost)
            if applied == m or not replanning:
                continue
            tried += 1
            new = solver.solve(x, horizon)
            tail = m - applied
            end_value = solver.value_of(new.trajectory[tail], horizon)
            paid = float(np.sum(anchor.stage_costs[:since]))
            planned = float(np.sum(new.stage_costs[:tail]))
            if watchdog:
                rho_close = anchor_value - new.value - alpha_bar * paid
                rho_tail = new.value - end_value - alpha_bar * planned
                ok = slack + rho_close + rho_tail >= -CERT_SLACK
            else:
                ok = end_value + alpha_bar * (paid + planned) <= anchor_value + CERT_SLACK
            if ok:
                accepted += 1
                close(new.value)
                pending = (t, new.value, 0.0)
                anchor, anchor_value, since = new, new.value, 0
                closes += 1
        windows.append(
            Window(
                time=window_time,
                horizon=horizon,
                v_start=v_start,
                probe_alphas=alphas,
                probe_rhos=rhos,
                committed_m=m,
                forced=forced is not None,
                exit_event=exit_event,
                warning_event=warning_event,
                closes=closes,
                v_end=solver.value_of(x, horizon),
                cost=float(np.sum(costs[window_time:])),
            )
        )
        iteration += 1

    close(solver.value_of(x, horizon))
    if not watchdog and exits:
        status = "exit-strategy-failed"
    elif watchdog and warnings:
        status = "warning-issued"
    return Run(
        status=status,
        times=times,
        states=np.array(states),
        applied_costs=np.array(costs),
        certificates=certificates,
        slack_values=slack_values,
        windows=windows,
        exit_count=exits,
        warning_count=warnings,
        replans_tried=tried,
        replans_accepted=accepted,
    )

"""Closed-loop scheduling with runtime certificates.

Four variants of one loop.  Every iteration solves a finite-horizon
problem at the current state, inspects the certified suboptimality of
its prefixes, commits to applying some number of steps ``m``, and banks
a descent certificate for every stretch between consecutive times the
loop is closed:

* ``alg1``: commit to the first prefix length whose certified degree
  reaches the threshold; fall back to a single step (and flag the run)
  when no prefix qualifies.
* ``alg2``: as ``alg1``, but after each applied control a fresh plan may
  replace the remainder of the committed stretch when a budget check
  shows the threshold is still met for the stretch as a whole.
* ``alg3``: as ``alg1``, but a slack account accumulates the surplus of
  past certificates; when no prefix qualifies on its own, banked slack
  may cover the best available prefix, and a warning is flagged only
  when even that fails.
* ``alg4``: slack accounting of ``alg3`` combined with the mid-stretch
  re-planning of ``alg2``; re-plans are accepted when the account would
  stay nonnegative.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .certify import (
    DEFAULT_CERT_SLACK,
    Certificate,
    SlackAccumulator,
    alpha_m_step,
    alpha_m_steps,
    update_acceptable,
)
from .errors import ConfigError
from .model import SystemModel
from .riccati import FiniteHorizonSolver

VARIANTS = ("alg1", "alg2", "alg3", "alg4")

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_EXIT_FAILED = "exit-strategy-failed"
STATUS_WARNING = "warning-issued"


@dataclass(frozen=True)
class AlgorithmConfig:
    """Options shared by all closed-loop variants.

    Attributes
    ----------
    variant : str
        One of ``alg1`` through ``alg4``.
    horizon : int
        Planning horizon ``N >= 2``.
    alpha_bar : float
        Required suboptimality degree, in ``[0, 1]``.
    max_iterations : int
        Cap on outer iterations before the run stops.
    termination_radius : float
        The loop stops once the state is this close (2-norm) to the
        equilibrium.
    cert_slack : float
        Floating-point tolerance applied to acceptance inequalities.
    forced_m : int, sequence of int, or None
        Override the commitment logic: apply exactly this many steps per
        iteration (a sequence gives per-iteration values, the last one
        repeating).  Prefix inspection still runs, and the watchdog
        variants still keep their account, restricted to the forced
        window.
    shrink_schedule : dict or None
        Map from iteration index to a smaller horizon to request at the
        start of that iteration; applied only if the slack check passes.
    """

    variant: str
    horizon: int
    alpha_bar: float
    max_iterations: int = 1000
    termination_radius: float = 1e-8
    cert_slack: float = DEFAULT_CERT_SLACK
    forced_m: int | Sequence[int] | None = None
    shrink_schedule: dict[int, int] | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be at least 2, got {self.horizon}")
        if not 0.0 <= self.alpha_bar <= 1.0:
            raise ConfigError(f"alpha_bar must lie in [0, 1], got {self.alpha_bar}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be positive, got {self.max_iterations}")
        if self.termination_radius <= 0.0:
            raise ConfigError("termination_radius must be positive")
        if self.cert_slack < 0.0:
            raise ConfigError("cert_slack must be nonnegative")
        if self.forced_m is not None:
            values = self._forced_values()
            if len(values) == 0:
                raise ConfigError("forced_m sequence must not be empty")
            for v in values:
                if not 1 <= v <= self.horizon - 1:
                    raise ConfigError(
                        f"forced_m value {v} outside [1, {self.horizon - 1}]"
                    )

    def _forced_values(self) -> tuple[int, ...]:
        if self.forced_m is None:
            return ()
        if isinstance(self.forced_m, (int, np.integer)):
            return (int(self.forced_m),)
        return tuple(int(v) for v in self.forced_m)

    def forced_m_at(self, iteration: int) -> int | None:
        values = self._forced_values()
        if not values:
            return None
        return values[min(iteration, len(values) - 1)]


@dataclass(frozen=True)
class UpdateSchedule:
    """Times at which the loop was closed, starting at 0."""

    times: tuple[int, ...]

    def __post_init__(self):
        if not self.times or self.times[0] != 0:
            raise ConfigError("a schedule starts at time 0")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ConfigError("schedule times must be strictly increasing")

    @property
    def m_values(self) -> np.ndarray:
        return np.diff(np.asarray(self.times, dtype=int))

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class WindowRecord:
    """What one outer iteration saw and decided.

    ``probe_alphas[j - 1]`` and ``probe_rhos[j - 1]`` describe the
    ``j``-step prefix of the plan solved at the iteration's start, for
    ``j = 1, ..., N - 1``.
    """

    index: int
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

    @property
    def window_alpha(self) -> float:
        return alpha_m_step(self.v_start, self.v_end, self.cost)


@dataclass(frozen=True)
class ClosedLoopTrace:
    """Full record of one closed-loop run."""

    config: AlgorithmConfig
    x0: np.ndarray
    status: str
    schedule: UpdateSchedule
    states: np.ndarray
    applied_controls: np.ndarray
    applied_costs: np.ndarray
    certificates: tuple[Certificate, ...]
    slack: SlackAccumulator
    windows: tuple[WindowRecord, ...]
    exit_count: int
    warning_count: int

    @property
    def iterations(self) -> int:
        return len(self.windows)

    @property
    def total_cost(self) -> float:
        return float(np.sum(self.applied_costs))

    @property
    def v_initial(self) -> float:
        return self.certificates[0].v_before if self.certificates else float("nan")

    @property
    def v_final(self) -> float:
        return self.certificates[-1].v_after if self.certificates else float("nan")

    @property
    def alpha_cor3(self) -> float:
        """Realized degree over the whole run: total value drop per cost.

        Computed from the certificate chain, so it stays meaningful when
        the horizon shrinks mid-run.
        """
        if not self.certificates:
            return float("nan")
        return alpha_m_step(self.v_initial, self.v_final, self.total_cost)

    @property
    def startup_onestep_alpha(self) -> float:
        """Certified one-step degree of the very first plan."""
        if not self.windows:
            return float("nan")
        return float(self.windows[0].probe_alphas[0])

    @property
    def min_onestep_alpha(self) -> float:
        if not self.windows:
            return float("nan")
        return min(float(w.probe_alphas[0]) for w in self.windows)

    @property
    def min_window_alpha(self) -> float:
        if not self.windows:
            return float("nan")
        return min(w.window_alpha for w in self.windows)

    @property
    def min_interval_alpha(self) -> float:
        if not self.certificates:
            return float("nan")
        return min(c.alpha for c in self.certificates)

    def summary(self) -> dict:
        return {
            "variant": self.config.variant,
            "horizon": self.config.horizon,
            "alpha_bar": self.config.alpha_bar,
            "status": self.status,
            "iterations": self.iterations,
            "intervals": len(self.certificates),
            "applied_steps": len(self.applied_costs),
            "exit_events": self.exit_count,
            "warnings": self.warning_count,
            "total_cost": self.total_cost,
            "v_initial": self.v_initial,
            "v_final": self.v_final,
            "alpha_cor3": self.alpha_cor3,
            "first_window_alpha": self.windows[0].window_alpha if self.windows else float("nan"),
            "min_window_alpha": self.min_window_alpha,
            "min_interval_alpha": self.min_interval_alpha,
            "startup_onestep_alpha": self.startup_onestep_alpha,
            "slack_final": self.slack.total,
            "final_state_norm": float(np.linalg.norm(self.states[-1])),
        }


def shrink_horizon_check(
    solver: FiniteHorizonSolver,
    x,
    horizon: int,
    n_new: int,
    slack_total: float = 0.0,
    cert_slack: float = DEFAULT_CERT_SLACK,
) -> bool:
    """Decide whether the horizon may shrink to ``n_new`` at state ``x``.

    Shrinking swaps the value function under the running certificate
    chain.  The one-time drop ``V_new(x) - V_old(x)`` (nonpositive, the
    value grows with the horizon) is charged against the banked slack;
    the switch is allowed when the account survives it.  ``n_new``
    equal to the current horizon is a no-op and always allowed.
    """
    if n_new < 2:
        raise ConfigError(f"shrunk horizon must be at least 2, got {n_new}")
    if n_new > horizon:
        raise ConfigError(
            f"horizon may only shrink: requested {n_new}, currently {horizon}"
        )
    if n_new == horizon:
        return True
    drop = solver.value_of(x, n_new) - solver.value_of(x, horizon)
    return slack_total + drop >= -cert_slack


def _select_m(
    variant: str,
    probe_alphas: np.ndarray,
    probe_rhos: np.ndarray,
    alpha_bar: float,
    slack_total: float,
) -> tuple[int, bool, bool]:
    """Pick the commitment length; returns ``(m, exit_event, warning_event)``."""
    if variant in ("alg1", "alg2"):
        for j, a in enumerate(probe_alphas, start=1):
            if a >= alpha_bar:
                return j, False, False
        # No prefix certifies on its own: close the loop immediately and
        # flag the run rather than stopping the plant.
        return 1, True, False
    for j, r in enumerate(probe_rhos, start=1):
        if r >= 0.0:
            return j, False, False
    best = float(np.max(probe_rhos))
    if slack_total + best >= 0.0:
        m = int(np.argmax(probe_rhos)) + 1  # smallest maximiser
        return m, False, False
    return 1, False, True


def run_closed_loop(
    model: SystemModel, solver: FiniteHorizonSolver, x0, config: AlgorithmConfig
) -> ClosedLoopTrace:
    """Run the configured variant until the state reaches the equilibrium."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.state_dim,):
        raise ConfigError(f"x0 must have shape ({model.state_dim},), got {x.shape}")
    variant = config.variant
    horizon = config.horizon
    eps = config.cert_slack

    states = [x.copy()]
    controls: list[np.ndarray] = []
    costs: list[float] = []
    schedule = [0]
    certificates: list[Certificate] = []
    slack = SlackAccumulator()
    windows: list[WindowRecord] = []
    exit_count = 0
    warning_count = 0
    t = 0

    # The interval running since the last time the loop was closed:
    # (start time, value at its start, cost paid so far).  It is closed
    # lazily, once the value at its end state (at the then-current
    # horizon) is known.
    pending: tuple[int, float, float] | None = None

    def close_pending(v_here: float) -> None:
        nonlocal pending
        if pending is None:
            return
        sigma, v_before, cost_sum = pending
        cert = Certificate.build(
            n=len(certificates),
            sigma=sigma,
            m=t - sigma,
            v_before=v_before,
            v_after=v_here,
            cost_sum=cost_sum,
            alpha_bar=config.alpha_bar,
        )
        certificates.append(cert)
        slack.add(cert.rho)
        schedule.append(t)
        pending = None

    status = STATUS_MAX_ITERATIONS
    iteration = 0
    while True:
        if np.linalg.norm(x - model.equilibrium_state) <= config.termination_radius:
            status = STATUS_CONVERGED
            break
        if iteration >= config.max_iterations:
            status = STATUS_MAX_ITERATIONS
            break

        if config.shrink_schedule and iteration in config.shrink_schedule:
            n_new = config.shrink_schedule[iteration]
            if shrink_horizon_check(solver, x, horizon, n_new, slack.total, eps):
                horizon = n_new

        sol = solver.solve(x, horizon)
        v_start = sol.value
        close_pending(v_start)

        # Value drop over, and cost paid on, each prefix j = 1, ..., N - 1.
        drops = v_start - solver.values_of(sol.trajectory[1:horizon], horizon)
        prefix_costs = np.cumsum(sol.stage_costs)[: horizon - 1]
        probe_alphas = alpha_m_steps(drops, prefix_costs)
        probe_rhos = drops - config.alpha_bar * prefix_costs

        forced = config.forced_m_at(iteration)
        if forced is not None:
            if forced > horizon - 1:
                raise ConfigError(
                    f"forced_m value {forced} outside [1, {horizon - 1}]"
                )
            m = forced
            exit_event = False
            warning_event = False
            if variant in ("alg3", "alg4"):
                # The account is only allowed to look at the window it is
                # actually forced to apply.
                warning_event = slack.total + float(np.max(probe_rhos[:m])) < 0.0
        else:
            m, exit_event, warning_event = _select_m(
                variant, probe_alphas, probe_rhos, config.alpha_bar, slack.total
            )
        exit_count += int(exit_event)
        warning_count += int(warning_event)

        window_time = t
        if pending is None:
            pending = (t, v_start, 0.0)

        anchor_sol = sol
        anchor_v = v_start
        since_anchor = 0
        closes = 0
        applied = 0
        while applied < m:
            u = anchor_sol.controls[since_anchor]
            cost = float(anchor_sol.stage_costs[since_anchor])
            x = anchor_sol.trajectory[since_anchor + 1].copy()
            controls.append(u.copy())
            costs.append(cost)
            states.append(x.copy())
            applied += 1
            since_anchor += 1
            t += 1
            sigma, v_before, cost_sum = pending
            pending = (sigma, v_before, cost_sum + cost)

            if applied < m and variant in ("alg2", "alg4"):
                sol_new = solver.solve(x, horizon)
                tail = m - applied
                end_value = solver.value_of(sol_new.trajectory[tail], horizon)
                if variant == "alg2":
                    ok = update_acceptable(
                        anchor_sol,
                        sol_new,
                        j=since_anchor,
                        m=since_anchor + tail,
                        alpha_bar=config.alpha_bar,
                        end_value=end_value,
                        cert_slack=eps,
                    )
                else:
                    rho_close = (
                        anchor_v
                        - sol_new.value
                        - config.alpha_bar * float(np.sum(anchor_sol.stage_costs[:since_anchor]))
                    )
                    tail_cost = float(np.sum(sol_new.stage_costs[:tail]))
                    rho_tail = sol_new.value - end_value - config.alpha_bar * tail_cost
                    ok = slack.total + rho_close + rho_tail >= -eps
                if ok:
                    close_pending(sol_new.value)
                    pending = (t, sol_new.value, 0.0)
                    anchor_sol = sol_new
                    anchor_v = sol_new.value
                    since_anchor = 0
                    closes += 1

        v_end = solver.value_of(x, horizon)
        windows.append(
            WindowRecord(
                index=iteration,
                time=window_time,
                horizon=horizon,
                v_start=v_start,
                probe_alphas=probe_alphas,
                probe_rhos=probe_rhos,
                committed_m=m,
                forced=forced is not None,
                exit_event=exit_event,
                warning_event=warning_event,
                closes=closes,
                v_end=v_end,
                cost=float(np.sum(costs[window_time:])),
            )
        )
        iteration += 1

    close_pending(solver.value_of(x, horizon))

    if variant in ("alg1", "alg2") and exit_count > 0:
        status = STATUS_EXIT_FAILED
    elif variant in ("alg3", "alg4") and warning_count > 0:
        status = STATUS_WARNING

    return ClosedLoopTrace(
        config=config,
        x0=np.asarray(x0, dtype=float),
        status=status,
        schedule=UpdateSchedule(times=tuple(schedule)),
        states=np.array(states),
        applied_controls=(
            np.array(controls) if controls else np.empty((0, model.control_dim))
        ),
        applied_costs=np.array(costs),
        certificates=tuple(certificates),
        slack=slack,
        windows=tuple(windows),
        exit_count=exit_count,
        warning_count=warning_count,
    )


def run_alg1(model, solver, x0, config: AlgorithmConfig) -> ClosedLoopTrace:
    """Adaptive commitment length, no re-planning, no slack account."""
    return run_closed_loop(model, solver, x0, replace(config, variant="alg1"))


def run_alg2(model, solver, x0, config: AlgorithmConfig) -> ClosedLoopTrace:
    """Adaptive commitment with mid-stretch re-planning."""
    return run_closed_loop(model, solver, x0, replace(config, variant="alg2"))


def run_alg3(model, solver, x0, config: AlgorithmConfig) -> ClosedLoopTrace:
    """Adaptive commitment with a slack account and warnings."""
    return run_closed_loop(model, solver, x0, replace(config, variant="alg3"))


def run_alg4(model, solver, x0, config: AlgorithmConfig) -> ClosedLoopTrace:
    """Slack account combined with mid-stretch re-planning."""
    return run_closed_loop(model, solver, x0, replace(config, variant="alg4"))

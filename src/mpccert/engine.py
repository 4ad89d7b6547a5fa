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

There is one engine: :func:`run_batch` runs a ``(B, n)`` array of
initial states in lockstep.  Every row keeps its own state, horizon,
pending interval, slack account, anchor plan and counts in arrays, and
all rows pass through the same outer iteration together, so forced
lengths and shrink requests apply per iteration as in a single run.
Rows at the same horizon share one batched plan or value call, which
does the same arithmetic on each row as on a lone state, so every row
of a batch matches its own one-row run bit for bit.
:func:`run_closed_loop` is the one-row case and returns the full
:class:`ClosedLoopTrace`; batches return per-row statistics, with full
traces only on request.
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
    row_sums,
    update_acceptable,
)
from .errors import ConfigError
from .model import SystemModel, row_dot
from .riccati import FiniteHorizonSolver, OpenLoopSolution

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
    slack_total: float | np.ndarray = 0.0,
    cert_slack: float = DEFAULT_CERT_SLACK,
) -> bool | np.ndarray:
    """Decide whether the horizon may shrink to ``n_new`` at state ``x``.

    Shrinking swaps the value function under the running certificate
    chain.  The one-time drop ``V_new(x) - V_old(x)`` (nonpositive, the
    value grows with the horizon) is charged against the banked slack;
    the switch is allowed when the account survives it.  ``n_new``
    equal to the current horizon is a no-op and always allowed.

    ``x`` may also be a ``(B, n)`` array, with ``slack_total`` holding one
    account per row; the answer is then one boolean per row.
    """
    if n_new < 2:
        raise ConfigError(f"shrunk horizon must be at least 2, got {n_new}")
    if n_new > horizon:
        raise ConfigError(
            f"horizon may only shrink: requested {n_new}, currently {horizon}"
        )
    X = np.asarray(x, dtype=float)
    rows = np.atleast_2d(X)
    if n_new == horizon:
        ok = np.ones(len(rows), dtype=bool)
    else:
        drop = solver.values_of(rows, n_new) - solver.values_of(rows, horizon)
        ok = slack_total + drop >= -cert_slack
    return ok if X.ndim == 2 else bool(ok[0])


def _select_m(
    variant: str,
    probe_alphas: np.ndarray,
    probe_rhos: np.ndarray,
    alpha_bar: float,
    slack_total: np.ndarray,
    forced: int | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick each row's commitment length; returns ``(m, exit_event, warning_event)``."""
    rows = len(probe_alphas)
    no_event = np.zeros(rows, dtype=bool)
    watchdog = variant in ("alg3", "alg4")
    if forced is not None:
        # The account is only allowed to look at the window it is
        # actually forced to apply.
        warned = slack_total + probe_rhos[:, :forced].max(axis=1) < 0.0 if watchdog else no_event
        return np.full(rows, forced), no_event, warned
    if not watchdog:
        certified = probe_alphas >= alpha_bar
        found = certified.any(axis=1)
        # No prefix certifies on its own: close the loop immediately and
        # flag the run rather than stopping the plant.
        return np.where(found, certified.argmax(axis=1) + 1, 1), ~found, no_event
    certified = probe_rhos >= 0.0
    found = certified.any(axis=1)
    covered = ~found & (slack_total + probe_rhos.max(axis=1) >= 0.0)
    # argmax gives the first prefix certified on its own, and for
    # slack-covered rows the smallest maximiser of rho.
    m = np.where(found, certified.argmax(axis=1) + 1, np.where(covered, probe_rhos.argmax(axis=1) + 1, 1))
    return m, no_event, ~found & ~covered


def _plan_rows(plan: OpenLoopSolution, sel) -> OpenLoopSolution:
    """The plans of a batch selected by ``sel``."""
    return OpenLoopSolution(
        horizon=plan.horizon,
        controls=plan.controls[sel],
        trajectory=plan.trajectory[sel],
        stage_costs=plan.stage_costs[sel],
        value=plan.value[sel],
        tail_values=plan.tail_values[sel],
    )


def _widen(a: np.ndarray) -> np.ndarray:
    """Double the time axis (axis 1) of a log buffer."""
    return np.concatenate([a, np.zeros_like(a)], axis=1)


def _running_min(current: np.ndarray, new: np.ndarray) -> np.ndarray:
    """Row-wise ``min(current, new)`` keeping ``current`` on ties, like :func:`min`."""
    return np.where(new < current, new, current)


@dataclass(frozen=True)
class BatchRun:
    """Outcome of :func:`run_batch`, one entry per initial state in input order.

    Each statistic equals the :class:`ClosedLoopTrace` property of the
    same name for that row's run.  ``traces`` holds the full traces when
    they were asked for and is ``None`` otherwise.
    """

    status: tuple[str, ...]
    startup_onestep_alpha: np.ndarray
    min_onestep_alpha: np.ndarray
    min_window_alpha: np.ndarray
    alpha_cor3: np.ndarray
    exit_count: np.ndarray
    warning_count: np.ndarray
    traces: tuple[ClosedLoopTrace, ...] | None = None


class _Lockstep:
    """State of a lockstep run: every array holds one entry per row.

    Rows advance through synchronous iterations, so ``forced_m_at`` and
    ``shrink_schedule`` are read once per iteration for all of them.
    Rows planning at the same horizon share one batched solver call.
    """

    def __init__(self, model, solver, X0, config: AlgorithmConfig, keep_traces: bool):
        X = np.array(X0, dtype=float)
        n = model.state_dim
        if X.ndim != 2 or X.shape[1] != n:
            raise ConfigError(f"initial states must have shape (B, {n}), got {X.shape}")
        rows = len(X)
        self.model, self.solver, self.config = model, solver, config
        self.keep = keep_traces
        self.x0 = X
        self.x = X.copy()
        self.horizon = np.full(rows, config.horizon)
        self.t = np.zeros(rows, dtype=int)
        self.running = np.ones(rows, dtype=bool)
        self.status = [STATUS_MAX_ITERATIONS] * rows
        # The interval running since the last time the loop was closed:
        # start time, value at its start, cost paid so far.  It is closed
        # lazily, once the value at its end state (at the then-current
        # horizon) is known.
        self.pending = np.zeros(rows, dtype=bool)
        self.sigma = np.zeros(rows, dtype=int)
        self.v_before = np.zeros(rows)
        self.cost_sum = np.zeros(rows)
        self.slack = np.zeros(rows)
        self.intervals = np.zeros(rows, dtype=int)
        self.v_initial = np.full(rows, np.nan)
        self.v_final = np.full(rows, np.nan)
        self.exits = np.zeros(rows, dtype=int)
        self.warnings = np.zeros(rows, dtype=int)
        self.startup = np.full(rows, np.nan)
        self.min_onestep = np.full(rows, np.nan)
        self.min_window = np.full(rows, np.nan)
        # Per iteration: committed length, value at the start, steps taken
        # along the current anchor plan, re-plans accepted, steps left.
        self.m = np.zeros(rows, dtype=int)
        self.v_start = np.zeros(rows)
        self.since = np.zeros(rows, dtype=int)
        self.closes = np.zeros(rows, dtype=int)
        self.tail = np.zeros(rows, dtype=int)
        # The plan each row is applying, padded to the initial horizon
        # (shrinking only ever shortens plans).
        H, c = config.horizon, model.control_dim
        self.anchor = OpenLoopSolution(
            horizon=H,
            controls=np.zeros((rows, H, c)),
            trajectory=np.zeros((rows, H + 1, n)),
            stage_costs=np.zeros((rows, H)),
            value=np.zeros(rows),
            tail_values=np.zeros((rows, H)),
        )
        # Applied costs by time; states and controls only for traces.
        self.costs = np.zeros((rows, 16))
        if keep_traces:
            self.states = np.zeros((rows, 17, n))
            self.states[:, 0] = X
            self.controls = np.zeros((rows, 16, c))
            self.times = [[0] for _ in range(rows)]
            self.certificates = [[] for _ in range(rows)]
            self.slack_values = [[] for _ in range(rows)]
            self.windows = [[] for _ in range(rows)]

    def _groups(self, rows: np.ndarray):
        """``(N, rows planning at horizon N)`` for each horizon among ``rows``."""
        horizons = self.horizon[rows]
        distinct = set(horizons.tolist())
        if len(distinct) == 1:
            yield distinct.pop(), rows
            return
        for n in sorted(distinct):
            yield n, rows[horizons == n]

    def _values(self, rows: np.ndarray) -> np.ndarray:
        """Value of each row's state at its current horizon."""
        out = np.empty(len(self.x))
        for n, p in self._groups(rows):
            out[p] = self.solver.values_of(self.x[p], n)
        return out[rows]

    def _close(self, rows: np.ndarray, v_here: np.ndarray) -> None:
        """Close the pending interval of each row that has one at value ``v_here``."""
        has = self.pending[rows]
        rows, v_here = rows[has], v_here[has]
        if rows.size == 0:
            return
        cost = self.cost_sum[rows]
        v_before = self.v_before[rows]
        self.slack[rows] += v_before - v_here - self.config.alpha_bar * cost
        first = self.intervals[rows] == 0
        self.v_initial[rows[first]] = v_before[first]
        self.v_final[rows] = v_here
        self.pending[rows] = False
        if self.keep:
            for i, vb, va, cs in zip(rows, v_before, v_here, cost):
                self.certificates[i].append(
                    Certificate.build(
                        n=int(self.intervals[i]),
                        sigma=int(self.sigma[i]),
                        m=int(self.t[i] - self.sigma[i]),
                        v_before=float(vb),
                        v_after=float(va),
                        cost_sum=float(cs),
                        alpha_bar=self.config.alpha_bar,
                    )
                )
                self.slack_values[i].append(float(self.slack[i]))
                self.times[i].append(int(self.t[i]))
        self.intervals[rows] += 1

    def _open(self, rows: np.ndarray, v_start: np.ndarray) -> None:
        """Start an interval at each row that has none pending."""
        fresh = ~self.pending[rows]
        rows = rows[fresh]
        self.pending[rows] = True
        self.sigma[rows] = self.t[rows]
        self.v_before[rows] = v_start[fresh]
        self.cost_sum[rows] = 0.0

    def _set_anchor(self, rows: np.ndarray, plan: OpenLoopSolution) -> None:
        n = plan.horizon
        a = self.anchor
        a.controls[rows, :n] = plan.controls
        a.trajectory[rows, : n + 1] = plan.trajectory
        a.stage_costs[rows, :n] = plan.stage_costs
        a.value[rows] = plan.value
        a.tail_values[rows, :n] = plan.tail_values
        self.since[rows] = 0

    def run(self) -> None:
        cfg = self.config
        iteration = 0
        while True:
            rows = np.flatnonzero(self.running)
            d = self.x[rows] - self.model.equilibrium_state
            at_rest = np.sqrt(row_dot(d, d)) <= cfg.termination_radius
            self._stop(rows[at_rest], STATUS_CONVERGED)
            rows = rows[~at_rest]
            if iteration >= cfg.max_iterations:
                self._stop(rows, STATUS_MAX_ITERATIONS)
            if not self.running.any():
                return
            self._iterate(rows, iteration)
            iteration += 1

    def _stop(self, rows: np.ndarray, status: str) -> None:
        if rows.size == 0:
            return
        self._close(rows, self._values(rows))
        self.running[rows] = False
        if self.config.variant in ("alg1", "alg2"):
            flagged, flag = self.exits, STATUS_EXIT_FAILED
        else:
            flagged, flag = self.warnings, STATUS_WARNING
        for i in rows:
            self.status[i] = flag if flagged[i] > 0 else status

    def _iterate(self, rows: np.ndarray, iteration: int) -> None:
        """One outer iteration: probe, commit, apply, record the window."""
        cfg, solver = self.config, self.solver
        if cfg.shrink_schedule and iteration in cfg.shrink_schedule:
            n_new = cfg.shrink_schedule[iteration]
            for n, p in self._groups(rows):
                ok = shrink_horizon_check(solver, self.x[p], n, n_new, self.slack[p], cfg.cert_slack)
                self.horizon[p[ok]] = n_new

        forced = cfg.forced_m_at(iteration)
        probes = []
        for n, p in self._groups(rows):
            plan = solver.plans(self.x[p], n)
            self._close(p, plan.value)
            # Value drop over, and cost paid on, each prefix j = 1, ..., N - 1.
            ends = plan.trajectory[:, 1:n].reshape(-1, self.model.state_dim)
            drops = plan.value[:, None] - solver.values_of(ends, n).reshape(len(p), n - 1)
            prefix_costs = np.cumsum(plan.stage_costs, axis=1)[:, : n - 1]
            probe_alphas = alpha_m_steps(drops, prefix_costs)
            probe_rhos = drops - cfg.alpha_bar * prefix_costs
            if forced is not None and forced > n - 1:
                raise ConfigError(f"forced_m value {forced} outside [1, {n - 1}]")
            m, exit_event, warning_event = _select_m(
                cfg.variant, probe_alphas, probe_rhos, cfg.alpha_bar, self.slack[p], forced
            )
            self.m[p] = m
            self.exits[p] += exit_event
            self.warnings[p] += warning_event
            self.v_start[p] = plan.value
            self._open(p, plan.value)
            self._set_anchor(p, plan)
            onestep = probe_alphas[:, 0]
            if iteration == 0:
                self.startup[p] = onestep
                self.min_onestep[p] = onestep
            else:
                self.min_onestep[p] = _running_min(self.min_onestep[p], onestep)
            if self.keep:
                probes.append((n, p, probe_alphas, probe_rhos, exit_event, warning_event))

        window_time = self.t[rows]
        self.closes[rows] = 0
        self._apply(rows)
        v_end = self._values(rows)
        cost = row_sums(self.costs[rows], self.m[rows], start=window_time)
        window_alpha = alpha_m_steps(self.v_start[rows] - v_end, cost)
        self.min_window[rows] = (
            window_alpha if iteration == 0 else _running_min(self.min_window[rows], window_alpha)
        )
        if not self.keep:
            return
        position = {int(i): k for k, i in enumerate(rows)}
        for n, p, probe_alphas, probe_rhos, exit_event, warning_event in probes:
            for r, i in enumerate(p):
                k = position[int(i)]
                self.windows[i].append(
                    WindowRecord(
                        index=iteration,
                        time=int(window_time[k]),
                        horizon=n,
                        v_start=float(self.v_start[i]),
                        probe_alphas=probe_alphas[r],
                        probe_rhos=probe_rhos[r],
                        committed_m=int(self.m[i]),
                        forced=forced is not None,
                        exit_event=bool(exit_event[r]),
                        warning_event=bool(warning_event[r]),
                        closes=int(self.closes[i]),
                        v_end=float(v_end[k]),
                        cost=float(cost[k]),
                    )
                )

    def _apply(self, rows: np.ndarray) -> None:
        """Apply each row's committed steps; alg2/alg4 try a re-plan after each but the last."""
        m = self.m[rows]
        applied = np.zeros(len(rows), dtype=int)
        replanning = self.config.variant in ("alg2", "alg4")
        for _ in range(int(m.max())):
            live = applied < m
            p = rows[live]
            k = self.since[p]
            self.x[p] = self.anchor.trajectory[p, k + 1]
            cost = self.anchor.stage_costs[p, k]
            self._log_step(p, self.anchor.controls[p, k], cost)
            self.cost_sum[p] += cost
            self.since[p] = k + 1
            applied[live] += 1
            more = live & (applied < m)
            if replanning and more.any():
                self.tail[rows[more]] = (m - applied)[more]
                self._replan(rows[more])

    def _log_step(self, rows: np.ndarray, u: np.ndarray, cost: np.ndarray) -> None:
        t = self.t[rows]
        if t.max() >= self.costs.shape[1]:
            self.costs = _widen(self.costs)
            if self.keep:
                self.states = _widen(self.states)
                self.controls = _widen(self.controls)
        self.costs[rows, t] = cost
        if self.keep:
            self.controls[rows, t] = u
            self.states[rows, t + 1] = self.x[rows]
        self.t[rows] = t + 1

    def _replan(self, rows: np.ndarray) -> None:
        """Plan afresh mid-stretch; rows whose check passes switch to the new plan."""
        cfg, solver = self.config, self.solver
        for n, p in self._groups(rows):
            plan = solver.plans(self.x[p], n)
            tail = self.tail[p]
            end_value = solver.values_of(plan.trajectory[np.arange(len(p)), tail], n)
            since = self.since[p]
            if cfg.variant == "alg2":
                ok = update_acceptable(
                    _plan_rows(self.anchor, p),
                    plan,
                    j=since,
                    m=since + tail,
                    alpha_bar=cfg.alpha_bar,
                    end_value=end_value,
                    cert_slack=cfg.cert_slack,
                )
            else:
                paid = row_sums(self.anchor.stage_costs[p], since)
                rho_close = self.anchor.value[p] - plan.value - cfg.alpha_bar * paid
                tail_cost = row_sums(plan.stage_costs, tail)
                rho_tail = plan.value - end_value - cfg.alpha_bar * tail_cost
                ok = self.slack[p] + rho_close + rho_tail >= -cfg.cert_slack
            p, plan = p[ok], _plan_rows(plan, ok)
            self._close(p, plan.value)
            self._open(p, plan.value)
            self._set_anchor(p, plan)
            self.closes[p] += 1

    def outcome(self) -> BatchRun:
        total_cost = [float(np.sum(self.costs[i, :t])) for i, t in enumerate(self.t)]
        alpha_cor3 = np.array(
            [
                alpha_m_step(float(vi), float(vf), c) if k else float("nan")
                for vi, vf, c, k in zip(self.v_initial, self.v_final, total_cost, self.intervals)
            ]
        )
        traces = None
        if self.keep:
            traces = tuple(self._trace(i) for i in range(len(self.x)))
        return BatchRun(
            status=tuple(self.status),
            startup_onestep_alpha=self.startup,
            min_onestep_alpha=self.min_onestep,
            min_window_alpha=self.min_window,
            alpha_cor3=alpha_cor3,
            exit_count=self.exits,
            warning_count=self.warnings,
            traces=traces,
        )

    def _trace(self, i: int) -> ClosedLoopTrace:
        t = int(self.t[i])
        return ClosedLoopTrace(
            config=self.config,
            x0=self.x0[i],
            status=self.status[i],
            schedule=UpdateSchedule(times=tuple(self.times[i])),
            states=self.states[i, : t + 1].copy(),
            applied_controls=self.controls[i, :t].copy(),
            applied_costs=self.costs[i, :t].copy(),
            certificates=tuple(self.certificates[i]),
            slack=SlackAccumulator(total=float(self.slack[i]), values=self.slack_values[i]),
            windows=tuple(self.windows[i]),
            exit_count=int(self.exits[i]),
            warning_count=int(self.warnings[i]),
        )


def run_batch(
    model: SystemModel,
    solver: FiniteHorizonSolver,
    X0,
    config: AlgorithmConfig,
    *,
    traces: bool = False,
) -> BatchRun:
    """Run the configured variant from every row of the ``(B, n)`` array ``X0`` in lockstep.

    Every row's run is the same as its own one-row batch, bit for bit:
    rows share solver calls but no arithmetic.  An error in any row's
    run aborts the whole batch.
    """
    state = _Lockstep(model, solver, X0, config, traces)
    state.run()
    return state.outcome()


def run_closed_loop(
    model: SystemModel, solver: FiniteHorizonSolver, x0, config: AlgorithmConfig
) -> ClosedLoopTrace:
    """Run the configured variant until the state reaches the equilibrium."""
    x = np.asarray(x0, dtype=float)
    if x.shape != (model.state_dim,):
        raise ConfigError(f"x0 must have shape ({model.state_dim},), got {x.shape}")
    return run_batch(model, solver, x[None], config, traces=True).traces[0]


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

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

Every entry point takes the solver and nothing else about the plant:
the solver's ``model`` supplies the state and control dimensions and
the equilibrium.  There is one engine: :func:`run_batch` runs a
``(B, n)`` array of initial states in lockstep, under one configuration
or one per row.  Every row keeps its own state, configuration, horizon,
pending interval, slack account, anchor plan and counts in arrays, and
all rows pass through the same outer iteration together, so forced
lengths and shrink requests apply per iteration as in a single run.
All rows share one plan call and one value call per step, whatever their
horizons: the solver walks the rows at each horizon through that
horizon's operator in one batched pass, which does the same arithmetic
on each row as on a lone state.  So every row of a batch matches its
own one-row run bit for bit, whichever rows and configurations share
the batch.
:func:`run_closed_loop` is the one-row case and returns the full
:class:`ClosedLoopTrace`; batches return per-row statistics, with full
traces only on request.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
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
from .model import row_dot
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
        if self.shrink_schedule:
            # Reject every schedule that could fail mid-run, whichever of
            # its requests are granted.
            targets = [self.shrink_schedule[i] for i in sorted(self.shrink_schedule)]
            if min(self.shrink_schedule) < 0 or not all(2 <= n <= self.horizon for n in targets):
                raise ConfigError(
                    f"shrink_schedule {self.shrink_schedule} needs iterations >= 0 "
                    f"and targets in [2, {self.horizon}]"
                )
            if any(b > a for a, b in zip(targets, targets[1:])):
                raise ConfigError(f"shrink_schedule {self.shrink_schedule} targets must not grow")
            if max(self._forced_values(), default=1) >= min(targets):
                raise ConfigError(f"forced_m {self.forced_m} does not fit the shrunk horizon {min(targets)}")

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
    horizon: int | np.ndarray,
    n_new: int,
    slack_total: float | np.ndarray = 0.0,
    cert_slack: float | np.ndarray = DEFAULT_CERT_SLACK,
) -> bool | np.ndarray:
    """Decide whether the horizon may shrink to ``n_new`` at state ``x``.

    Shrinking swaps the value function under the running certificate
    chain.  The one-time drop ``V_new(x) - V_old(x)`` (nonpositive, the
    value grows with the horizon) is charged against the banked slack;
    the switch is allowed when the account survives it.  ``n_new``
    equal to the current horizon is a no-op and always allowed.

    ``x`` may also be a ``(B, n)`` array, with ``horizon``, ``slack_total``
    and ``cert_slack`` holding one value per row or one for all; the
    answer is then one boolean per row.
    """
    if n_new < 2:
        raise ConfigError(f"shrunk horizon must be at least 2, got {n_new}")
    if np.any(n_new > np.asarray(horizon)):
        raise ConfigError(
            f"horizon may only shrink: requested {n_new}, currently {np.min(horizon)}"
        )
    X = np.asarray(x, dtype=float)
    rows = np.atleast_2d(X)
    same = np.broadcast_to(n_new == np.asarray(horizon), len(rows))
    if same.all():
        ok = np.ones(len(rows), dtype=bool)
    else:
        drop = solver.values_of(rows, n_new) - solver.values_of(rows, horizon)
        ok = same | (slack_total + drop >= -cert_slack)
    return ok if X.ndim == 2 else bool(ok[0])


def _select_m(
    watchdog: np.ndarray,
    forced: np.ndarray,
    probe_alphas: np.ndarray,
    probe_rhos: np.ndarray,
    alpha_bar: np.ndarray,
    slack_total: np.ndarray,
    width: int | np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Pick each row's commitment length; returns ``(m, exit_event, warning_event)``.

    Row ``i`` looks at its first ``width[i]`` prefixes only (an int width
    covers every column).  ``forced[i]`` is the length it is forced to
    apply, 0 when it chooses for itself; ``watchdog[i]`` marks the
    variants with a slack account.  Each rule runs on the whole batch
    when any row follows it, and ``np.where`` picks each row's result.
    """
    cols = np.arange(probe_rhos.shape[1])
    valid = True if np.ndim(width) == 0 else cols < width[:, None]
    is_forced = forced > 0
    m, exit_event, warning_event = forced, np.zeros(len(forced), bool), np.zeros(len(forced), bool)
    plain = ~watchdog & ~is_forced
    if plain.any():
        # No slack account: the first prefix certified on its own.  When
        # none is, close the loop immediately and flag the run rather than
        # stopping the plant.
        certified = valid & (probe_alphas >= alpha_bar[:, None])
        found = certified.any(axis=1)
        m = np.where(plain, np.where(found, certified.argmax(axis=1) + 1, 1), m)
        exit_event = plain & ~found
    free = watchdog & ~is_forced
    if free.any():
        # argmax gives the first prefix certified on its own, and for
        # slack-covered rows the smallest maximiser of rho.
        rhos = np.where(valid, probe_rhos, -np.inf)
        certified = rhos >= 0.0
        found = certified.any(axis=1)
        covered = ~found & (slack_total + rhos.max(axis=1) >= 0.0)
        chosen = np.where(found, certified.argmax(axis=1) + 1, np.where(covered, rhos.argmax(axis=1) + 1, 1))
        m = np.where(free, chosen, m)
        warning_event = free & ~found & ~covered
    held = watchdog & is_forced
    if held.any():
        # The account is only allowed to look at the window it is
        # actually forced to apply.
        in_window = np.where(cols < forced[:, None], probe_rhos, -np.inf)
        warning_event |= held & (slack_total + in_window.max(axis=1) < 0.0)
    return m, exit_event, warning_event


def _plan_rows(plan: OpenLoopSolution, sel) -> OpenLoopSolution:
    """The plans of a batch selected by ``sel``."""
    return OpenLoopSolution(
        horizon=plan.horizon if np.ndim(plan.horizon) == 0 else plan.horizon[sel],
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

    Each statistic equals the :class:`ClosedLoopTrace` property (or
    ``summary()`` entry) of the same name for that row's run.  ``traces``
    holds the full traces when they were asked for and is ``None``
    otherwise.
    """

    status: tuple[str, ...]
    startup_onestep_alpha: np.ndarray
    min_onestep_alpha: np.ndarray
    min_window_alpha: np.ndarray
    alpha_cor3: np.ndarray
    exit_count: np.ndarray
    warning_count: np.ndarray
    intervals: np.ndarray
    applied_steps: np.ndarray
    traces: tuple[ClosedLoopTrace, ...] | None = None

    def select(self, rows: slice) -> "BatchRun":
        """The runs of the rows in the slice ``rows``, as a batch of their own."""
        return BatchRun(
            **{
                f.name: None if getattr(self, f.name) is None else getattr(self, f.name)[rows]
                for f in fields(self)
            }
        )


class _Lockstep:
    """State of a lockstep run: every array holds one entry per row.

    Each row carries its own configuration.  What the loop reads at every
    step is kept per row: horizon, threshold, tolerances, iteration cap
    and the variant's two flags (slack watchdog, mid-stretch re-planning).
    ``forced_m_at`` and ``shrink_schedule`` are read once per distinct
    configuration per iteration, since rows advance through synchronous
    iterations.  All rows share one plan or value call per step: the
    solver takes the rows' horizons as an array and walks all rows at the
    same horizon through one batched plan.
    """

    def __init__(self, solver: FiniteHorizonSolver, X0, config, keep_traces: bool):
        model = solver.model
        X = np.array(X0, dtype=float)
        n = model.state_dim
        if X.ndim != 2 or X.shape[1] != n:
            raise ConfigError(f"initial states must have shape (B, {n}), got {X.shape}")
        rows = len(X)
        self.model, self.solver = model, solver
        self.configs, self.kind = _distinct_configs(config, rows)

        def per_row(values, dtype):
            return np.array(values, dtype=dtype)[self.kind]

        cfgs = self.configs
        self.horizon = per_row([c.horizon for c in cfgs], int)
        self.alpha_bar = per_row([c.alpha_bar for c in cfgs], float)
        self.cert_slack = per_row([c.cert_slack for c in cfgs], float)
        self.radius = per_row([c.termination_radius for c in cfgs], float)
        self.max_iterations = per_row([c.max_iterations for c in cfgs], int)
        self.watchdog = per_row([c.variant in ("alg3", "alg4") for c in cfgs], bool)
        self.replanning = per_row([c.variant in ("alg2", "alg4") for c in cfgs], bool)
        self.keep = keep_traces
        self.x0 = X
        self.x = X.copy()
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
        # The plan each row is applying, padded to the longest initial
        # horizon (shrinking only ever shortens plans).
        H, c = max(cfg.horizon for cfg in cfgs), model.control_dim
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

    def _per_config(self, rows: np.ndarray, value) -> np.ndarray:
        """``value(config)`` for each row's configuration, computed once per configuration."""
        return np.array([value(cfg) for cfg in self.configs])[self.kind[rows]]

    def _values(self, rows: np.ndarray) -> np.ndarray:
        """Value of each row's state at its current horizon."""
        return self.solver.values_of(self.x[rows], self.horizon[rows])

    def _close(self, rows: np.ndarray, v_here: np.ndarray) -> None:
        """Close the pending interval of each row that has one at value ``v_here``."""
        has = self.pending[rows]
        rows, v_here = rows[has], v_here[has]
        if rows.size == 0:
            return
        cost = self.cost_sum[rows]
        v_before = self.v_before[rows]
        self.slack[rows] += v_before - v_here - self.alpha_bar[rows] * cost
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
                        alpha_bar=self.configs[self.kind[i]].alpha_bar,
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
        n = plan.controls.shape[1]
        a = self.anchor
        a.controls[rows, :n] = plan.controls
        a.trajectory[rows, : n + 1] = plan.trajectory
        a.stage_costs[rows, :n] = plan.stage_costs
        a.value[rows] = plan.value
        a.tail_values[rows, :n] = plan.tail_values
        self.since[rows] = 0

    def run(self) -> None:
        iteration = 0
        while True:
            rows = np.flatnonzero(self.running)
            d = self.x[rows] - self.model.equilibrium_state
            at_rest = np.sqrt(row_dot(d, d)) <= self.radius[rows]
            self._stop(rows[at_rest], STATUS_CONVERGED)
            rows = rows[~at_rest]
            capped = iteration >= self.max_iterations[rows]
            self._stop(rows[capped], STATUS_MAX_ITERATIONS)
            rows = rows[~capped]
            if rows.size == 0:
                return
            self._iterate(rows, iteration)
            iteration += 1

    def _stop(self, rows: np.ndarray, status: str) -> None:
        if rows.size == 0:
            return
        self._close(rows, self._values(rows))
        self.running[rows] = False
        for i in rows:
            if self.watchdog[i]:
                self.status[i] = STATUS_WARNING if self.warnings[i] > 0 else status
            else:
                self.status[i] = STATUS_EXIT_FAILED if self.exits[i] > 0 else status

    def _shrink(self, rows: np.ndarray, iteration: int) -> None:
        """Grant each shrink request due at this iteration where the slack covers it."""
        for k, cfg in enumerate(self.configs):
            n_new = (cfg.shrink_schedule or {}).get(iteration)
            if n_new is None:
                continue
            p = rows[self.kind[rows] == k]
            if p.size:
                ok = shrink_horizon_check(
                    self.solver, self.x[p], self.horizon[p], n_new, self.slack[p], self.cert_slack[p]
                )
                self.horizon[p[ok]] = n_new

    def _iterate(self, rows: np.ndarray, iteration: int) -> None:
        """One outer iteration: probe, commit, apply, record the window."""
        solver = self.solver
        self._shrink(rows, iteration)
        forced = self._per_config(rows, lambda cfg: cfg.forced_m_at(iteration) or 0)
        horizon = self.horizon[rows]
        plan = solver.plans(self.x[rows], horizon)
        self._close(rows, plan.value)
        # Value drop over, and cost paid on, each prefix j = 1, ..., N - 1,
        # padded to the longest horizon among the rows.
        width = plan.controls.shape[1] - 1
        drops = plan.value[:, None] - solver.values_of(plan.trajectory[:, 1 : width + 1], horizon)
        prefix_costs = np.cumsum(plan.stage_costs, axis=1)[:, :width]
        alpha_bar = self.alpha_bar[rows]
        probe_alphas = alpha_m_steps(drops, prefix_costs)
        probe_rhos = drops - alpha_bar[:, None] * prefix_costs
        m, exit_event, warning_event = _select_m(
            self.watchdog[rows], forced, probe_alphas, probe_rhos, alpha_bar, self.slack[rows], horizon - 1
        )
        self.m[rows] = m
        self.exits[rows] += exit_event
        self.warnings[rows] += warning_event
        self.v_start[rows] = plan.value
        self._open(rows, plan.value)
        self._set_anchor(rows, plan)
        onestep = probe_alphas[:, 0]
        if iteration == 0:
            self.startup[rows] = onestep
            self.min_onestep[rows] = onestep
        else:
            self.min_onestep[rows] = _running_min(self.min_onestep[rows], onestep)

        window_time = self.t[rows]
        self.closes[rows] = 0
        self._apply(rows)
        v_end = self._values(rows)
        cost = row_sums(self.costs[rows], m, start=window_time)
        window_alpha = alpha_m_steps(self.v_start[rows] - v_end, cost)
        self.min_window[rows] = (
            window_alpha if iteration == 0 else _running_min(self.min_window[rows], window_alpha)
        )
        if not self.keep:
            return
        horizons = self.horizon[rows]
        for k, i in enumerate(rows):
            w = horizons[k] - 1
            self.windows[i].append(
                WindowRecord(
                    index=iteration,
                    time=int(window_time[k]),
                    horizon=int(horizons[k]),
                    v_start=float(self.v_start[i]),
                    probe_alphas=probe_alphas[k, :w],
                    probe_rhos=probe_rhos[k, :w],
                    committed_m=int(m[k]),
                    forced=bool(forced[k]),
                    exit_event=bool(exit_event[k]),
                    warning_event=bool(warning_event[k]),
                    closes=int(self.closes[i]),
                    v_end=float(v_end[k]),
                    cost=float(cost[k]),
                )
            )

    def _apply(self, rows: np.ndarray) -> None:
        """Apply each row's committed steps; alg2/alg4 try a re-plan after each but the last."""
        m = self.m[rows]
        applied = np.zeros(len(rows), dtype=int)
        replanning = self.replanning[rows]
        replans = replanning.any()
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
            if replans:
                more = replanning & live & (applied < m)
                if more.any():
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
        """Plan afresh mid-stretch; rows whose check passes switch to the new plan.

        alg2 rows accept when the stretch as a whole still meets the
        threshold (:func:`update_acceptable`), alg4 rows when their slack
        account stays nonnegative.
        """
        solver = self.solver
        horizon = self.horizon[rows]
        plan = solver.plans(self.x[rows], horizon)
        tail = self.tail[rows]
        end_value = solver.values_of(plan.trajectory[np.arange(len(rows)), tail], horizon)
        since = self.since[rows]
        alpha_bar, cert_slack = self.alpha_bar[rows], self.cert_slack[rows]
        watchdog = self.watchdog[rows]
        # Each rule is computed only when some row uses it: computing both
        # on every re-plan costs single-variant sweeps about a tenth of
        # their engine time.
        budget = account = None
        if not watchdog.all():
            budget = update_acceptable(
                _plan_rows(self.anchor, rows),
                plan,
                j=since,
                m=since + tail,
                alpha_bar=alpha_bar,
                end_value=end_value,
                cert_slack=cert_slack,
            )
        if watchdog.any():
            paid = row_sums(self.anchor.stage_costs[rows], since)
            rho_close = self.anchor.value[rows] - plan.value - alpha_bar * paid
            tail_cost = row_sums(plan.stage_costs, tail)
            rho_tail = plan.value - end_value - alpha_bar * tail_cost
            account = self.slack[rows] + rho_close + rho_tail >= -cert_slack
        if budget is None or account is None:
            ok = account if budget is None else budget
        else:
            ok = np.where(watchdog, account, budget)
        p, plan = rows[ok], _plan_rows(plan, ok)
        self._close(p, plan.value)
        self._open(p, plan.value)
        self._set_anchor(p, plan)
        self.closes[p] += 1

    def outcome(self) -> BatchRun:
        # Summed as one block per run length, each row gets the bits of its
        # own 1-D sum (see row_sums).
        realized = alpha_m_steps(self.v_initial - self.v_final, row_sums(self.costs, self.t))
        alpha_cor3 = np.where(self.intervals > 0, realized, np.nan)
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
            intervals=self.intervals,
            applied_steps=self.t,
            traces=traces,
        )

    def _trace(self, i: int) -> ClosedLoopTrace:
        t = int(self.t[i])
        return ClosedLoopTrace(
            config=self.configs[self.kind[i]],
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


def _distinct_configs(config, rows: int) -> tuple[list[AlgorithmConfig], np.ndarray]:
    """The distinct configuration objects among the rows, and each row's index into them."""
    config = [config] * rows if isinstance(config, AlgorithmConfig) else list(config)
    if len(config) != rows or not all(isinstance(cfg, AlgorithmConfig) for cfg in config):
        raise ConfigError(f"need one AlgorithmConfig per initial state, got {len(config)} items for {rows}")
    distinct = {id(cfg): cfg for cfg in config}
    index = {key: k for k, key in enumerate(distinct)}
    return list(distinct.values()), np.array([index[id(cfg)] for cfg in config], dtype=int)


def run_batch(
    solver: FiniteHorizonSolver,
    X0,
    config: AlgorithmConfig | Sequence[AlgorithmConfig],
    *,
    traces: bool = False,
) -> BatchRun:
    """Run the configured variant from every row of the ``(B, n)`` array ``X0`` in lockstep.

    ``config`` is one configuration for all rows or a sequence with one
    per row; rows may then differ in variant, horizon, threshold, forced
    lengths and shrink schedule.  Every row's run is the same as its own
    one-row batch, bit for bit: rows share solver calls but no
    arithmetic.  An error in any row's run aborts the whole batch.
    """
    state = _Lockstep(solver, X0, config, traces)
    state.run()
    return state.outcome()


def run_closed_loop(solver: FiniteHorizonSolver, x0, config: AlgorithmConfig) -> ClosedLoopTrace:
    """Run the configured variant until the state reaches the equilibrium."""
    x = np.asarray(x0, dtype=float)
    n = solver.model.state_dim
    if x.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x.shape}")
    return run_batch(solver, x[None], config, traces=True).traces[0]

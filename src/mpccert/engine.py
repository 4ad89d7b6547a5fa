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
the solver's plant ``lq`` supplies the state and control dimensions,
and its equilibrium is the origin.  There is one engine: :func:`run_batch`
runs a ``(B, n)`` array of initial states in lockstep, under one
configuration or one per row.  Every running row keeps its own state, configuration,
horizon, pending interval, slack account and counts in dense arrays that
hold the running rows only; rows that stop write their results once and
drop out.  All rows pass through the same outer iteration together, so
forced lengths and shrink requests apply per iteration as in a single
run.  Each iteration walks the plans of all rows one prefix at a time
through one :class:`~mpccert.riccati.PlanWalk` on buffers allocated
once per run, with the same arithmetic on each row as on a lone state.
The walk decides: each prefix's degree and slack are computed once, a
row's commitment is settled at the first prefix that qualifies, and the
walk stops once every row is settled; no walk builds a plan's last
step.  Window costs and re-plan budgets are read from the walk's
running prefix costs.  The engine keeps one horizon per row and hands
it to the plan layer as it is: grouping rows by horizon, and stepping
every row of a one-horizon walk, are decided in :mod:`mpccert.riccati`.
The walked plans are the plans the rows apply, so windows need no copy.
Every row applies its plan's first step in one commit, or its whole
window when it does not re-plan.  Only ``alg2``/``alg4`` rows committed
to two or more steps go on, one step at a time, re-planning before each
step on buffers allocated at the run's first re-plan; a re-plan walks as
far as the window left to it and checks only the rule of its rows'
variant.  An accepted re-plan is written over the columns of the plan it
replaces, so at each step every re-planning row reads the same column.
So every row of a batch matches its own one-row run bit for bit,
whichever rows and configurations share the batch.
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
    budget_met,
    row_sums,
    update_acceptable,  # noqa: F401  (unused; perfbench/spans.py wraps it here)
)
from .errors import ConfigError
from .model import row_dot
from .riccati import FiniteHorizonSolver, PlanWalk

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
        window.  A sequence is stored as a tuple.
    shrink_schedule : dict, sequence of pairs, or None
        Map from iteration index to a smaller horizon to request at the
        start of that iteration; applied only if the slack check passes.
        Stored as a tuple of ``(iteration, horizon)`` pairs in iteration
        order.

    Both containers are copied into tuples on construction, so
    configurations are immutable values: equal configurations hash alike
    and share one group in a batch, and changing the caller's list or
    dict afterwards changes nothing.
    """

    variant: str
    horizon: int
    alpha_bar: float
    max_iterations: int = 1000
    termination_radius: float = 1e-8
    cert_slack: float = DEFAULT_CERT_SLACK
    forced_m: int | Sequence[int] | None = None
    shrink_schedule: dict[int, int] | tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        for name in ("horizon", "max_iterations"):
            if not isinstance(getattr(self, name), (int, np.integer)):
                raise ConfigError(f"{name} must be an integer, got {getattr(self, name)!r}")
            object.__setattr__(self, name, int(getattr(self, name)))
        if isinstance(self.forced_m, (int, np.integer)):
            object.__setattr__(self, "forced_m", int(self.forced_m))
        elif self.forced_m is not None:
            object.__setattr__(self, "forced_m", tuple(int(v) for v in self.forced_m))
        if self.shrink_schedule is not None:
            schedule = tuple(sorted((int(i), int(n)) for i, n in dict(self.shrink_schedule).items()))
            object.__setattr__(self, "shrink_schedule", schedule or None)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be at least 2, got {self.horizon}")
        if not 0.0 <= self.alpha_bar <= 1.0:
            raise ConfigError(f"alpha_bar must lie in [0, 1], got {self.alpha_bar}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be positive, got {self.max_iterations}")
        if not 0.0 < self.termination_radius < np.inf:
            raise ConfigError(f"termination_radius must be positive and finite, got {self.termination_radius}")
        if not 0.0 <= self.cert_slack < np.inf:
            raise ConfigError(f"cert_slack must be nonnegative and finite, got {self.cert_slack}")
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
            targets = [n for _, n in self.shrink_schedule]
            if self.shrink_schedule[0][0] < 0 or not all(2 <= n <= self.horizon for n in targets):
                raise ConfigError(
                    f"shrink_schedule {dict(self.shrink_schedule)} needs iterations >= 0 "
                    f"and targets in [2, {self.horizon}]"
                )
            if any(b > a for a, b in zip(targets, targets[1:])):
                raise ConfigError(f"shrink_schedule {dict(self.shrink_schedule)} targets must not grow")
            if max(self._forced_values(), default=1) >= min(targets):
                raise ConfigError(f"forced_m {self.forced_m} does not fit the shrunk horizon {min(targets)}")

    def _forced_values(self) -> tuple[int, ...]:
        if self.forced_m is None:
            return ()
        if isinstance(self.forced_m, int):
            return (self.forced_m,)
        return self.forced_m

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


# np.sum adds fewer terms than this one by one from the first, with the
# bits of a prefix column; from this many on it adds them pairwise.
_PAIRWISE = 8


def _tail_ends_and_costs(plan: PlanWalk, length: int | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's end value after its first ``length`` steps, and ``np.sum`` of their stage costs.

    ``length`` is one count for all rows, read as the walk's columns, or one per row.
    """
    if isinstance(length, int):
        ends, sums = plan.ends[:, length - 1], 0.0 + plan.prefix_costs[:, length - 1]
        if length < _PAIRWISE:
            return ends, sums
        length = np.full(len(sums), length)
    else:
        at = np.arange(len(length))
        ends, sums = plan.ends[at, length - 1], 0.0 + plan.prefix_costs[at, length - 1]
    pairwise = length >= _PAIRWISE
    if pairwise.any():
        sums[pairwise] = row_sums(plan.stage_costs[pairwise], length[pairwise])
    return ends, sums


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
    otherwise.  ``errors`` holds each row's exception text (``None`` for a
    row that ran) when a sweep assembled the batch from runs that failed
    in part; a failed row has status ``error``, NaN degrees and zero counts.
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
    errors: tuple[str | None, ...] | None = None

    def select(self, rows: slice) -> "BatchRun":
        """The runs of the rows in the slice ``rows``, as a batch of their own."""
        return BatchRun(
            **{
                f.name: None if getattr(self, f.name) is None else getattr(self, f.name)[rows]
                for f in fields(self)
            }
        )


class _Lockstep:
    """State of a lockstep run over the rows still running.

    Every per-row array (:data:`_ROW_FIELDS`) holds the running rows only,
    densely and in one order, and ``ids`` maps them back to input order.
    Rows that stop are closed, their results are written once into the
    input-order outputs, and every per-row array and walk buffer is
    compacted with one mask, so no step goes through a row index.

    Each row carries its own configuration: horizon, threshold,
    tolerances, iteration cap and the variant's two flags (slack watchdog,
    mid-stretch re-planning) are per-row arrays; forced lengths and shrink
    requests are read per distinct configuration, at the iterations where
    they can change.  The decision rule and the plan walk built from them
    are kept until rows retire, a shrink is due or a forced length moves.

    Each iteration's walk decides every row's commitment, exit and
    warning as it goes (:meth:`_probe`).  Windows are plan-resident: the
    arrays of the iteration's plan are what the rows apply.  One commit
    (:meth:`_commit`) applies every row's first step, or the whole window
    of a row that does not re-plan (``alg1``/``alg3``, and ``alg2``/``alg4``
    rows committing one step); it reads the plan's first columns without
    a gather when no row commits more than one step this way.  Re-planning
    rows then apply steps 2..m one at a time (:meth:`_step`), each after a
    re-plan (:meth:`_replan`) on the run-resident re-plan buffers, which
    ``_retire`` leaves alone.  Their window costs are added as the steps
    are applied; ``row_sums`` runs only for windows of eight or more
    steps.
    """

    def __init__(self, solver: FiniteHorizonSolver, X0, config, keep_traces: bool):
        X = np.array(X0, dtype=float)
        n, c = solver.lq.state_dim, solver.lq.control_dim
        if X.ndim != 2 or X.shape[1] != n:
            raise ConfigError(f"initial states must have shape (B, {n}), got {X.shape}")
        if not np.isfinite(X).all():
            raise ConfigError(f"initial states must be finite, got {X[~np.isfinite(X).all(axis=1)][0]}")
        rows = len(X)
        self.solver, self.keep = solver, keep_traces
        self.row_configs = _row_configs(config, rows)
        self.configs, self.kind = _distinct_configs(self.row_configs)

        def per_row(values, dtype):
            return np.array(values, dtype=dtype)[self.kind]

        cfgs = self.configs
        self.ids = np.arange(rows)
        self.horizon = per_row([cfg.horizon for cfg in cfgs], int)
        self.alpha_bar = per_row([cfg.alpha_bar for cfg in cfgs], float)
        self.cert_slack = per_row([cfg.cert_slack for cfg in cfgs], float)
        self.radius = per_row([cfg.termination_radius for cfg in cfgs], float)
        self.max_iterations = per_row([cfg.max_iterations for cfg in cfgs], int)
        self.watchdog = per_row([cfg.variant in ("alg3", "alg4") for cfg in cfgs], bool)
        self.replanning = per_row([cfg.variant in ("alg2", "alg4") for cfg in cfgs], bool)
        # Forced lengths change only while some sequence has entries left;
        # shrink requests are looked up by iteration.
        self.forced = np.zeros(rows, dtype=int)
        self.forced_until = max(len(cfg._forced_values()) for cfg in cfgs) if rows else 0
        self.shrinks: dict[int, list[tuple[int, int]]] = {}
        for k, cfg in enumerate(cfgs):
            for iteration, n_new in cfg.shrink_schedule or ():
                self.shrinks.setdefault(iteration, []).append((k, n_new))
        # Walk buffers for the widest horizon, reused by every iteration.
        self.walk_buffers = PlanWalk.allocate(rows, int(self.horizon.max(initial=2)) - 1, n, c)
        self.rule = self.walk = self.replan_buffers = None
        self.x0 = X
        self.x = X.copy()
        self.t = np.zeros(rows, dtype=int)
        # The interval running since the last time the loop was closed:
        # start time, value at its start, cost paid so far.  Every running
        # row has one from its first iteration on; it is closed once the
        # value at its end state (at the then-current horizon) is known.
        self.sigma = np.zeros(rows, dtype=int)
        self.v_before = np.zeros(rows)
        self.cost_sum = np.zeros(rows)
        # Value of each row's state at its horizon, once it has planned.
        self.v_now = np.zeros(rows)
        self.slack = np.zeros(rows)
        self.intervals = np.zeros(rows, dtype=int)
        self.v_initial = np.full(rows, np.nan)
        self.exits = np.zeros(rows, dtype=int)
        self.warnings = np.zeros(rows, dtype=int)
        self.startup = np.full(rows, np.nan)
        self.min_onestep = np.full(rows, np.nan)
        self.min_window = np.full(rows, np.nan)
        # Applied costs by time; states and controls only for traces.
        self.costs = np.zeros((rows, 16))
        self.states = self.controls = None
        # Input-order results, written once per row when it stops.
        self.status = [None] * rows
        self.results = {
            name: np.empty_like(self.v_now if own is None else getattr(self, own)) for name, own in _RESULTS
        }
        self.traces = None
        if keep_traces:
            self.states = np.zeros((rows, 17, n))
            self.states[:, 0] = X
            self.controls = np.zeros((rows, 16, c))
            self.traces = [None] * rows
            # Kept by input index, so they need no compaction.
            self.times = [[0] for _ in range(rows)]
            self.certificates = [[] for _ in range(rows)]
            self.slack_values = [[] for _ in range(rows)]
            self.windows = [[] for _ in range(rows)]

    def _close(self, sel, v_here: np.ndarray) -> None:
        """Close the pending interval of the rows ``sel`` (a slice or indices) at value ``v_here``."""
        cost = self.cost_sum[sel]
        v_before = self.v_before[sel]
        self.slack[sel] += v_before - v_here - self.alpha_bar[sel] * cost
        if self.keep:
            rows = np.arange(len(self.ids))[sel]
            for k, vb, va, cs in zip(rows, v_before, v_here, cost):
                i = self.ids[k]
                self.certificates[i].append(
                    Certificate.build(
                        n=int(self.intervals[k]),
                        sigma=int(self.sigma[k]),
                        m=int(self.t[k] - self.sigma[k]),
                        v_before=float(vb),
                        v_after=float(va),
                        cost_sum=float(cs),
                        alpha_bar=self.row_configs[i].alpha_bar,
                    )
                )
                self.slack_values[i].append(float(self.slack[k]))
                self.times[i].append(int(self.t[k]))
        self.intervals[sel] += 1

    def run(self) -> None:
        iteration = 0
        while self.ids.size:
            # The solver's plant rests at the origin (LinearQuadraticInstance).
            at_rest = np.sqrt(row_dot(self.x, self.x)) <= self.radius
            stop = at_rest | (iteration >= self.max_iterations)
            if stop.any():
                self._retire(stop, at_rest, iteration)
                if not self.ids.size:
                    return
            self._iterate(iteration)
            iteration += 1

    def _retire(self, stop: np.ndarray, at_rest: np.ndarray, iteration: int) -> None:
        """Close the rows in ``stop``, write their results, and drop them from every per-row array."""
        sel = np.flatnonzero(stop)
        v_final = np.full(sel.size, np.nan)
        if iteration > 0:
            # Every row that has planned has an interval pending.
            v_final = self.v_now[sel]
            self._close(sel, v_final)
        ids = self.ids[sel]
        for i, k, rested in zip(ids.tolist(), sel.tolist(), at_rest[sel].tolist()):
            if self.watchdog[k] and self.warnings[k]:
                self.status[i] = STATUS_WARNING
            elif not self.watchdog[k] and self.exits[k]:
                self.status[i] = STATUS_EXIT_FAILED
            else:
                self.status[i] = STATUS_CONVERGED if rested else STATUS_MAX_ITERATIONS
        # Summed as one block per run length, each row gets the bits of its
        # own 1-D sum (see row_sums).
        realized = alpha_m_steps(self.v_initial[sel] - v_final, row_sums(self.costs[sel], self.t[sel]))
        self.results["alpha_cor3"][ids] = np.where(self.intervals[sel] > 0, realized, np.nan)
        for name, own in _RESULTS:
            if own is not None:
                self.results[name][ids] = getattr(self, own)[sel]
        if self.keep:
            for k, i in zip(sel, ids):
                self.traces[i] = self._trace(k, i)
        keep = np.flatnonzero(~stop)
        for name in _ROW_FIELDS:
            value = getattr(self, name)
            if value is not None:
                setattr(self, name, value[keep])
        trajectory, controls, columns = self.walk_buffers
        self.walk_buffers = trajectory[keep], controls[keep], columns[..., keep]
        self.rule = None

    def _shrink(self, iteration: int) -> None:
        """Grant each shrink request due at this iteration where the slack covers it."""
        for k, n_new in self.shrinks[iteration]:
            p = np.flatnonzero(self.kind == k)
            if p.size:
                ok = shrink_horizon_check(
                    self.solver, self.x[p], self.horizon[p], n_new, self.slack[p], self.cert_slack[p]
                )
                self.horizon[p[ok]] = n_new

    def _iterate(self, iteration: int) -> None:
        """One outer iteration: walk and probe the plans, commit, apply, record the window."""
        if iteration in self.shrinks:
            self._shrink(iteration)
            self.rule = None
        if iteration < self.forced_until:
            self.forced = np.array([cfg.forced_m_at(iteration) or 0 for cfg in self.configs])[self.kind]
            self.rule = None
        # Each row's value at its state is the end value the last walk
        # gave it, unless a shrink was due.
        known = self.v_now if iteration and iteration not in self.shrinks else None
        if self.rule is None:
            self.rule, self.walk = self._decision_rule(known)
        else:
            self.walk.restart(self.x, known)
        # The walk decides on the slack banked at the plan's start.
        plan = self.walk
        v_start = plan.value
        if iteration:
            self._close(slice(None), v_start)
        else:
            self.v_initial = v_start
        m, exit_event, warning_event, onestep, probe_alphas, probe_rhos = self._probe(plan)
        self.exits += exit_event
        self.warnings += warning_event
        if iteration == 0:
            self.startup = self.min_onestep = onestep
        else:
            self.min_onestep = _running_min(self.min_onestep, onestep)

        # Open every row's interval at the plan's start and apply it: every
        # row applies its first step, or its whole window when it does not
        # re-plan, and re-planning rows then walk the rest of theirs.
        window_time = self.t.copy()
        self.sigma = self.t.copy()
        self.v_before = v_start.copy()
        self.closes = np.zeros(len(m), dtype=int) if self.keep else None
        self.v_now = np.empty_like(v_start)
        self._reserve(int((window_time + m).max()))
        stepping = self.replanning & (m > 1)
        replans = np.flatnonzero(stepping)
        self._commit(slice(None), plan, np.where(stepping, 1, m) if replans.size else m)
        # A committed window costs its interval's cost_sum unless np.sum adds
        # it pairwise; the windows of re-planning rows span several plans.
        cost = self.cost_sum
        if replans.size or plan.steps >= _PAIRWISE:
            cost = cost.copy()
        if replans.size:
            self._step(replans, plan, m, cost)
        if plan.steps >= _PAIRWISE:
            pairwise = np.flatnonzero(m >= _PAIRWISE)
            cost[pairwise] = row_sums(self.costs[pairwise], m[pairwise], start=window_time[pairwise])
        window_alpha = alpha_m_steps(v_start - self.v_now, cost)
        self.min_window = window_alpha if iteration == 0 else _running_min(self.min_window, window_alpha)
        if not self.keep:
            return
        horizons = self.horizon
        for k, i in enumerate(self.ids.tolist()):
            w = horizons[k] - 1
            self.windows[i].append(
                WindowRecord(
                    index=iteration,
                    time=int(window_time[k]),
                    horizon=int(horizons[k]),
                    v_start=float(v_start[k]),
                    probe_alphas=probe_alphas[k, :w],
                    probe_rhos=probe_rhos[k, :w],
                    committed_m=int(m[k]),
                    forced=bool(self.forced[k]),
                    exit_event=bool(exit_event[k]),
                    warning_event=bool(warning_event[k]),
                    closes=int(self.closes[k]),
                    v_end=float(self.v_now[k]),
                    cost=float(cost[k]),
                )
            )

    def _probe(self, plan: PlanWalk) -> tuple[np.ndarray, ...]:
        """Walk the plans prefix by prefix, deciding each row's commitment on the way.

        A row settles at its forced length, else at its first prefix with
        alpha_j >= alpha_bar, or rho_j >= 0 when it keeps an account.  A row
        left unsettled commits one step with an exit event (no account),
        its first rho maximiser when the slack covers it, or one step with
        a warning; a forced row with an account warns when the slack does
        not cover the best prefix of its forced window.  Without traces the
        walk stops once every row is settled; with them each row walks its
        N - 1 prefixes.  Returns ``m``, the exit and warning flags, the
        one-step degrees and, with traces, every prefix's alpha and rho.
        """
        watchdog, keep = self.watchdog, self.keep
        # Which metrics a step needs: alpha_j decides rows without an
        # account, rho_j rows with one; the first step's alpha is the
        # one-step degree of every row.
        forced, last, target, accounts, all_accounts, width, (deciding, best, arg) = self.rule
        rows, m, walking = len(watchdog), self.forced, deciding
        alphas, rhos = np.zeros((2, rows, plan.width)) if keep else (None, None)
        for k in range(plan.width):
            plan.advance(walking)
            drop = plan.value - plan.ends[:, k]
            cost = plan.prefix_costs[:, k]
            if k == 0 or keep or not all_accounts:
                alpha = metric = alpha_m_steps(drop, cost)
            if k == 0:
                onestep = alpha
            if accounts or keep:
                rho = drop - self.alpha_bar * cost
            if keep:
                alphas[:, k], rhos[:, k] = alpha, rho
            if accounts:
                metric = rho if all_accounts else np.where(watchdog, rho, alpha)
                better = deciding & (rho > best)
                best, arg = np.where(better, rho, best), np.where(better, k + 1, arg)
            hit = metric >= target
            m = np.where(deciding & hit, k + 1, m)
            deciding = deciding & ~hit & (k + 1 < last)
            walking = k + 1 < width if keep else deciding
            if not walking.any():
                break
        fallback = m == 0
        if not accounts:
            return np.maximum(m, 1), fallback, np.zeros(rows, dtype=bool), onestep, alphas, rhos
        covered = self.slack + best >= 0.0
        exit_event = fallback & ~watchdog
        warning_event = watchdog & ~covered & (fallback | forced)
        m = np.where(fallback, np.where(watchdog & covered, arg, 1), m)
        return m, exit_event, warning_event, onestep, alphas, rhos

    def _decision_rule(self, known) -> tuple[tuple, PlanWalk]:
        """The rows' rule for :meth:`_probe` and walk, kept until rows retire, a shrink is due or forced_m moves."""
        forced, width, watchdog, rows = self.forced > 0, self.horizon - 1, self.watchdog, len(self.x)
        last = np.where(forced, self.forced, width)
        target = np.where(forced, np.inf, np.where(watchdog, 0.0, self.alpha_bar))
        # The first values of the walk's running arrays: nothing writes them in place.
        start = np.ones(rows, dtype=bool), np.full(rows, -np.inf), np.ones(rows, dtype=int)
        walk = PlanWalk(self.solver, self.x, self.horizon, int(width.max()), known, self.walk_buffers)
        return (forced, last, target, watchdog.any(), watchdog.all(), width, start), walk

    def _reserve(self, steps: int) -> None:
        """Grow the logs until they hold ``steps`` applied steps."""
        while steps > self.costs.shape[1]:
            self.costs = _widen(self.costs)
            if self.keep:
                self.states = _widen(self.states)
                self.controls = _widen(self.controls)

    def _commit(self, sel, plan: PlanWalk, m: np.ndarray) -> None:
        """Apply the first ``m`` steps of the plan at the rows ``sel`` (a slice or indices) at once."""
        rows = np.arange(len(m))[sel]
        m, t = m[sel], self.t[sel]
        longest = m.max(initial=0)
        # One-step windows read the plan's first columns through sel, with no gather.
        at, end = (sel, 0) if longest == 1 else (rows, m - 1)
        src, j, to, dst = at, end, rows, t
        if longest > 1:
            r, j = np.nonzero(np.arange(longest) < m[:, None])
            src = to = rows[r]
            dst = t[r] + j
        self.costs[to, dst] = plan.stage_costs[src, j]
        if self.keep:
            self.controls[to, dst] = plan.controls[src, j]
            self.states[to, dst + 1] = plan.trajectory[src, j + 1]
        self.x[sel] = plan.trajectory[at, end + 1]
        self.t[sel] = t + m
        # The interval opened at 0.0 and added these costs one by one:
        # 0.0 plus their left-to-right sum has the same bits.
        self.cost_sum[sel] = 0.0 + plan.prefix_costs[at, end]
        self.v_now[sel] = plan.ends[at, end]

    def _step(self, rows: np.ndarray, plan: PlanWalk, m: np.ndarray, cost: np.ndarray) -> None:
        """Apply steps 2..m of the re-planning rows ``rows``, re-planning before each.

        The rows have applied their plan's first step.  Column ``j`` of
        ``plan`` holds step ``j`` of each row's window, since an accepted
        re-plan is written over the columns it replaces (:meth:`_replan`),
        so every row reads the same column.  Each applied cost is added to
        the row's window cost in ``cost``, left to right as ``np.sum`` adds
        fewer than eight terms.
        """
        m = m[rows]
        window_ends, longest = (rows, m - 1), int(m.max())
        equal = m.min() == longest
        for applied in range(1, longest):
            if equal:
                tail = longest - applied
            else:
                more = applied < m
                rows, m = rows[more], m[more]
                tail = m - applied
            self._replan(rows, tail, applied, plan)
            x, step_cost, t = plan.trajectory[rows, applied + 1], plan.stage_costs[rows, applied], self.t[rows]
            self.x[rows] = x
            self.costs[rows, t] = step_cost
            if self.keep:
                self.controls[rows, t] = plan.controls[rows, applied]
                self.states[rows, t + 1] = x
            self.t[rows] = t + 1
            self.cost_sum[rows] += step_cost
            cost[rows] += step_cost
        self.v_now[window_ends[0]] = plan.ends[window_ends]

    def _replan(self, rows: np.ndarray, tail: int | np.ndarray, applied: int, anchor: PlanWalk) -> None:
        """Plan afresh after ``applied`` steps of the window; rows whose check passes switch to the new plan.

        Each row walks the new plan as far as the ``tail`` steps left in its
        window (one count for all rows, or one per row), from the value its
        anchor plan gives the state reached.  alg2 rows accept when the
        stretch since the loop was last closed still meets the threshold
        (:func:`budget_met`, the rule of :func:`update_acceptable`), alg4
        rows when their slack account stays nonnegative; only a batch whose
        re-planning rows mix the two evaluates both.  The interval's cost so
        far is the row's ``cost_sum``, which has the bits of ``np.sum``
        below eight terms.  An accepted plan overwrites ``anchor``'s
        columns from ``applied`` on, the steps the row applies next.
        """
        width = tail if isinstance(tail, int) else int(tail.max())
        plan = self._replan_walk(rows, anchor, applied, width)
        for k in range(width):
            plan.advance(None if isinstance(tail, int) else tail > k)
        end_value, planned = _tail_ends_and_costs(plan, tail)
        paid = self.cost_sum[rows]
        if applied >= _PAIRWISE:
            sigma = self.sigma[rows]
            since = self.t[rows] - sigma
            pairwise = since >= _PAIRWISE
            if pairwise.any():
                paid[pairwise] = row_sums(self.costs[rows[pairwise]], since[pairwise], start=sigma[pairwise])
        if len(self.configs) == 1:
            config = self.configs[0]
            alpha_bar, cert_slack, accounts = config.alpha_bar, config.cert_slack, config.variant == "alg4"
            budgets = not accounts
        else:
            alpha_bar, cert_slack, watchdog = self.alpha_bar[rows], self.cert_slack[rows], self.watchdog[rows]
            accounts, budgets = watchdog.any(), not watchdog.all()
        anchor_value = self.v_before[rows]
        if accounts:
            rho_close = anchor_value - plan.value - alpha_bar * paid
            rho_tail = plan.value - end_value - alpha_bar * planned
            ok = self.slack[rows] + rho_close + rho_tail >= -cert_slack
        if budgets:
            budget = budget_met(end_value, alpha_bar, paid, planned, anchor_value, cert_slack)
            ok = np.where(watchdog, ok, budget) if accounts else budget
        taken = np.flatnonzero(ok)
        if not taken.size:
            return
        p, value = rows[taken], plan.value[taken]
        self._close(p, value)
        self.sigma[p] = self.t[p]
        self.v_before[p] = value
        self.cost_sum[p] = 0.0
        steps = slice(applied, applied + width)
        anchor.trajectory[p, applied + 1 : applied + width + 1] = plan.trajectory[taken, 1 : width + 1]
        anchor.stage_costs[p, steps] = plan.stage_costs[taken, :width]
        anchor.ends[p, steps] = plan.ends[taken, :width]
        if self.keep:
            anchor.controls[p, steps] = plan.controls[taken, :width]
            self.closes[p] += 1

    def _replan_walk(self, rows: np.ndarray, anchor: PlanWalk, applied: int, width: int) -> PlanWalk:
        """A walk of ``width`` steps from the rows' states after ``applied`` steps of ``anchor``.

        It runs on the run's re-plan buffers, allocated at the first
        re-plan for every running row and the widest tail, sliced to the
        rows given and never compacted: no walk reads a column it has not
        written.
        """
        if self.replan_buffers is None:
            lq, width_max = self.solver.lq, self.walk_buffers[1].shape[1] - 1
            self.replan_buffers = PlanWalk.allocate(len(self.ids), width_max, lq.state_dim, lq.control_dim)
        trajectory, controls, columns = self.replan_buffers
        r = len(rows)
        groups = anchor.groups
        horizon = groups[0][0] if len(groups) == 1 else self.horizon[rows]
        X, value = anchor.trajectory[rows, applied], anchor.ends[rows, applied - 1]
        return PlanWalk(self.solver, X, horizon, width, value, (trajectory[:r], controls[:r], columns[..., :r]))

    def outcome(self) -> BatchRun:
        return BatchRun(
            status=tuple(self.status),
            traces=None if self.traces is None else tuple(self.traces),
            **self.results,
        )

    def _trace(self, k: int, i: int) -> ClosedLoopTrace:
        """The trace of input row ``i``, stored at dense row ``k``."""
        t = int(self.t[k])
        return ClosedLoopTrace(
            config=self.row_configs[i],
            x0=self.x0[i],
            status=self.status[i],
            schedule=UpdateSchedule(times=tuple(self.times[i])),
            states=self.states[k, : t + 1].copy(),
            applied_controls=self.controls[k, :t].copy(),
            applied_costs=self.costs[k, :t].copy(),
            certificates=tuple(self.certificates[i]),
            slack=SlackAccumulator(total=float(self.slack[k]), values=self.slack_values[i]),
            windows=tuple(self.windows[i]),
            exit_count=int(self.exits[k]),
            warning_count=int(self.warnings[k]),
        )


# Every per-row array of _Lockstep, compacted together when rows stop.
_ROW_FIELDS = (
    "ids", "kind", "horizon", "alpha_bar", "cert_slack", "radius", "max_iterations", "watchdog",
    "replanning", "forced", "x", "t", "sigma", "v_before", "cost_sum", "v_now", "slack", "intervals",
    "v_initial", "exits", "warnings", "startup", "min_onestep", "min_window", "costs", "states", "controls",
)
# BatchRun statistics and the per-row array each is copied from when a row
# stops (alpha_cor3 is computed then).
_RESULTS = (
    ("startup_onestep_alpha", "startup"),
    ("min_onestep_alpha", "min_onestep"),
    ("min_window_alpha", "min_window"),
    ("alpha_cor3", None),
    ("exit_count", "exits"),
    ("warning_count", "warnings"),
    ("intervals", "intervals"),
    ("applied_steps", "t"),
)


def _row_configs(config, rows: int) -> list[AlgorithmConfig]:
    """One configuration object per row: ``config`` repeated, or the given sequence."""
    config = [config] * rows if isinstance(config, AlgorithmConfig) else list(config)
    if len(config) != rows or not all(isinstance(cfg, AlgorithmConfig) for cfg in config):
        raise ConfigError(f"need one AlgorithmConfig per initial state, got {len(config)} items for {rows}")
    return config


def _distinct_configs(config: list[AlgorithmConfig]) -> tuple[list[AlgorithmConfig], np.ndarray]:
    """The distinct configurations among the rows, by value, and each row's index into them."""
    index: dict[AlgorithmConfig, int] = {}
    # Hash each object once, however many rows share it.
    objects = {id(cfg): cfg for cfg in config}
    kind_of = {key: index.setdefault(cfg, len(index)) for key, cfg in objects.items()}
    return list(index), np.array([kind_of[id(cfg)] for cfg in config], dtype=int)


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
    n = solver.lq.state_dim
    if x.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x.shape}")
    return run_batch(solver, x[None], config, traces=True).traces[0]

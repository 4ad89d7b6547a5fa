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
or one per row.  Every running row keeps its own state, configuration,
horizon, pending interval, slack account and counts in dense arrays that
hold the running rows only; rows that stop write their results once and
drop out.  All rows pass through the same outer iteration together, so
forced lengths and shrink requests apply per iteration as in a single
run.  Each iteration walks the plans of all rows one prefix at a time
(:class:`~mpccert.riccati.PlanWalk`), whatever their horizons, with the
same arithmetic on each row as on a lone state, and stops once every
row's commitment is settled; no walk builds a plan's last step.  The
walked plans are the plans the rows apply, so windows need no copy; only
mid-stretch re-plans of ``alg2``/``alg4`` walk further plans, as far as
the stretch left to them.  So every row of a batch matches its own
one-row run bit for bit, whichever rows and configurations share the
batch.
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
    # Masks are laid out like the probes, row axis innermost, so that
    # reductions over prefixes run down whole columns.
    valid = None if np.ndim(width) == 0 else np.less(cols, width[:, None], order="F")
    is_forced = forced > 0
    m, exit_event, warning_event = forced, np.zeros(len(forced), bool), np.zeros(len(forced), bool)
    plain = ~(watchdog | is_forced)
    if plain.any():
        # No slack account: the first prefix certified on its own.  When
        # none is, close the loop immediately and flag the run rather than
        # stopping the plant.
        certified = probe_alphas >= alpha_bar[:, None]
        if valid is not None:
            certified &= valid
        found = certified.any(axis=1)
        m = np.where(plain, np.where(found, certified.argmax(axis=1) + 1, 1), m)
        exit_event = plain & ~found
    free = watchdog & ~is_forced
    if free.any():
        # argmax gives the first prefix certified on its own, and for
        # slack-covered rows the smallest maximiser of rho.
        rhos = probe_rhos if valid is None else np.where(valid, probe_rhos, -np.inf)
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
        in_window = np.where(np.less(cols, forced[:, None], order="F"), probe_rhos, -np.inf)
        warning_event |= held & (slack_total + in_window.max(axis=1) < 0.0)
    return m, exit_event, warning_event


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
    """State of a lockstep run over the rows still running.

    Every per-row array (:data:`_ROW_FIELDS`) holds the running rows only,
    densely and in one order, and ``ids`` maps them back to input order.
    Rows that stop are closed, their results are written once into the
    input-order outputs, and every per-row array is compacted with one
    mask, so no step goes through a row index.

    Each row carries its own configuration: horizon, threshold,
    tolerances, iteration cap and the variant's two flags (slack watchdog,
    mid-stretch re-planning) are per-row arrays; forced lengths and shrink
    requests are read per distinct configuration, at the iterations where
    they can change.

    Windows are plan-resident: the arrays of the iteration's plan are what
    the rows apply.  Rows that do not re-plan (``alg1``/``alg3``, and
    ``alg2``/``alg4`` rows committing one step) apply their committed
    prefix with one gather and one scatter; only re-planning rows step one
    control at a time, and an accepted re-plan overwrites its own rows of
    the plan.
    """

    def __init__(self, solver: FiniteHorizonSolver, X0, config, keep_traces: bool):
        model = solver.model
        X = np.array(X0, dtype=float)
        n, c = model.state_dim, model.control_dim
        if X.ndim != 2 or X.shape[1] != n:
            raise ConfigError(f"initial states must have shape (B, {n}), got {X.shape}")
        rows = len(X)
        self.model, self.solver, self.keep = model, solver, keep_traces
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
        self._horizon_changed()

    def _horizon_changed(self) -> None:
        """Set ``self.N``: the shared horizon as an int, or the per-row array."""
        h = self.horizon
        self.N = int(h[0]) if h.size and (h == h[0]).all() else h

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
            d = self.x - self.model.equilibrium_state
            at_rest = np.sqrt(row_dot(d, d)) <= self.radius
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
        self._horizon_changed()

    def _shrink(self, iteration: int) -> None:
        """Grant each shrink request due at this iteration where the slack covers it."""
        for k, n_new in self.shrinks[iteration]:
            p = np.flatnonzero(self.kind == k)
            if p.size:
                ok = shrink_horizon_check(
                    self.solver, self.x[p], self.horizon[p], n_new, self.slack[p], self.cert_slack[p]
                )
                self.horizon[p[ok]] = n_new
        self._horizon_changed()

    def _iterate(self, iteration: int) -> None:
        """One outer iteration: walk and probe the plans, commit, apply, record the window."""
        if iteration in self.shrinks:
            self._shrink(iteration)
        if iteration < self.forced_until:
            self.forced = np.array([cfg.forced_m_at(iteration) or 0 for cfg in self.configs])[self.kind]
        horizon = self.N
        # Each row's value at its state is the end value the last walk
        # gave it, unless its horizon has just changed.
        known = self.v_now if iteration and iteration not in self.shrinks else None
        plan, probe_alphas, probe_rhos = self._probe(horizon, known)
        v_start = plan.value
        if iteration:
            self._close(slice(None), v_start)
        else:
            self.v_initial = v_start
        m, exit_event, warning_event = _select_m(
            self.watchdog, self.forced, probe_alphas, probe_rhos, self.alpha_bar, self.slack, horizon - 1
        )
        self.exits += exit_event
        self.warnings += warning_event
        onestep = probe_alphas[:, 0]
        if iteration == 0:
            self.startup = self.min_onestep = onestep
        else:
            self.min_onestep = _running_min(self.min_onestep, onestep)

        # Open every row's interval at the plan's start and apply it.
        window_time = self.t.copy()
        self.sigma = self.t.copy()
        self.v_before = v_start.copy()
        self.closes = np.zeros(len(m), dtype=int) if self.keep else None
        self.v_now = plan.ends[np.arange(len(m)), m - 1]
        self._reserve(int((window_time + m).max()))
        stepping = self.replanning & (m > 1)
        if stepping.any():
            self._commit(np.flatnonzero(~stepping), plan, m)
            self._step(np.flatnonzero(stepping), plan, m)
        else:
            self._commit(slice(None), plan, m)
        cost = row_sums(self.costs, m, start=window_time)
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

    def _probe(self, horizon, value) -> tuple[PlanWalk, np.ndarray, np.ndarray]:
        """Walk the rows' plans prefix by prefix until every row's commitment is settled.

        ``value`` is each row's value at its state, or ``None``.  Returns
        the walk and the degree and slack of each walked prefix, one column
        each; a row's columns past those it needs cannot change its
        commitment.  A one-horizon batch walks all rows while any is
        unsettled, a mixed one (split by horizon anyway) the unsettled rows.
        """
        last = horizon - 1
        width = int(np.max(last))
        plan = PlanWalk(self.solver, self.x, horizon, width, value)
        if not self.keep and width > 1:
            # Windows record every prefix; without them a forced row stops
            # at its forced length, and any other at its first prefix with
            # alpha_j >= alpha_bar, or rho_j >= 0 when it keeps an account.
            forced = self.forced > 0
            last = np.where(forced, self.forced, last)
            target = np.where(forced, np.inf, np.where(self.watchdog, 0.0, self.alpha_bar))
        walking, rows = np.ones(len(self.x), dtype=bool), slice(None)
        for k in range(width - 1):
            plan.advance(rows)
            if np.ndim(last) == 0:
                continue  # one horizon and full traces: every row walks on
            more = k + 1 < last[rows]
            if not self.keep:
                drop = plan.value[rows] - plan.ends[rows, k]
                cost = plan.prefix_costs[rows, k]
                rho = drop - self.alpha_bar[rows] * cost
                more &= ~(np.where(self.watchdog[rows], rho, alpha_m_steps(drop, cost)) >= target[rows])
            walking[rows] &= more
            if not walking.any():
                break
            if np.ndim(horizon):
                rows = np.flatnonzero(walking)
        else:
            plan.advance(rows)
        drops = plan.value[:, None] - plan.ends[:, : plan.steps]
        costs = plan.prefix_costs[:, : plan.steps]
        return plan, alpha_m_steps(drops, costs), drops - self.alpha_bar[:, None] * costs

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
        m = m[sel]
        t = self.t[sel]
        r, j = np.nonzero(np.arange(m.max(initial=0)) < m[:, None])
        src, dst = rows[r], t[r] + j
        self.costs[src, dst] = plan.stage_costs[src, j]
        if self.keep:
            self.controls[src, dst] = plan.controls[src, j]
            self.states[src, dst + 1] = plan.trajectory[src, j + 1]
        self.x[sel] = plan.trajectory[rows, m]
        self.t[sel] = t + m
        # The interval opened at 0.0 and added these costs one by one:
        # 0.0 plus their left-to-right sum has the same bits.
        self.cost_sum[sel] = 0.0 + plan.prefix_costs[rows, m - 1]

    def _step(self, rows: np.ndarray, plan: PlanWalk, m: np.ndarray) -> None:
        """Apply the committed steps of re-planning rows one at a time, re-planning after each but the last."""
        self.anchor_value = plan.value.copy()
        self.since = np.zeros(len(m), dtype=int)
        self.cost_sum[rows] = 0.0
        m = m[rows]
        for applied in range(int(m.max())):
            p = rows[applied < m]
            k = self.since[p]
            t = self.t[p]
            self.x[p] = plan.trajectory[p, k + 1]
            cost = plan.stage_costs[p, k]
            self.costs[p, t] = cost
            if self.keep:
                self.controls[p, t] = plan.controls[p, k]
                self.states[p, t + 1] = self.x[p]
            self.t[p] = t + 1
            self.cost_sum[p] += cost
            self.since[p] = k + 1
            more = applied + 1 < m
            if more.any():
                self._replan(rows[more], m[more] - applied - 1, plan)

    def _replan(self, rows: np.ndarray, tail: np.ndarray, anchor: PlanWalk) -> None:
        """Plan afresh mid-stretch; rows whose check passes switch to the new plan.

        Each row walks the new plan as far as the ``tail`` steps left in its
        stretch.  alg2 rows accept when the stretch as a whole still meets
        the threshold (:func:`budget_met`, the rule of
        :func:`update_acceptable`), alg4 rows when their slack account
        stays nonnegative.  An accepted plan overwrites the row's walked
        part of ``anchor``, the plan the row applies.
        """
        horizon = self.N if np.ndim(self.N) == 0 else self.horizon[rows]
        plan = PlanWalk(self.solver, self.x[rows], horizon, int(tail.max()))
        plan.advance_to(tail)
        end_value = plan.ends[np.arange(len(rows)), tail - 1]
        alpha_bar, cert_slack, anchor_value = self.alpha_bar[rows], self.cert_slack[rows], self.anchor_value[rows]
        paid = row_sums(anchor.stage_costs[rows], self.since[rows])
        planned = row_sums(plan.stage_costs, tail)
        rho_close = anchor_value - plan.value - alpha_bar * paid
        rho_tail = plan.value - end_value - alpha_bar * planned
        account = self.slack[rows] + rho_close + rho_tail >= -cert_slack
        ok = np.where(self.watchdog[rows], account, budget_met(end_value, alpha_bar, paid, planned, anchor_value, cert_slack))
        if not ok.any():
            return
        p, value = rows[ok], plan.value[ok]
        self._close(p, value)
        self.sigma[p] = self.t[p]
        self.v_before[p] = value
        self.cost_sum[p] = 0.0
        w = plan.steps
        anchor.controls[p, :w] = plan.controls[ok]
        anchor.trajectory[p, : w + 1] = plan.trajectory[ok]
        anchor.stage_costs[p, :w] = plan.stage_costs[ok]
        self.anchor_value[p] = value
        self.since[p] = 0
        self.v_now[p] = end_value[ok]
        if self.keep:
            self.closes[p] += 1

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
    n = solver.model.state_dim
    if x.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x.shape}")
    return run_batch(solver, x[None], config, traces=True).traces[0]

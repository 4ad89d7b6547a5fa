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
run.  Each iteration walks the plans of all rows, each at its own
horizon, one prefix at a time through one
:class:`~mpccert.riccati.PlanWalk` on buffers allocated once per run,
with the same arithmetic on each row as on a lone state.
The walk decides: each prefix's degree and slack are computed once, a
row's commitment is settled at the first prefix that qualifies, and the
walk stops once every row is settled; no walk builds a plan's last
step.  Re-plan budgets are read from the walk's running prefix costs.
The walked plans are the plans the rows apply, so windows need no copy.
One loop applies them column by column: column ``j`` goes to every row
still inside its window, and before each column after the first the
``alg2``/``alg4`` rows still inside theirs re-plan on buffers allocated
at the run's first re-plan.  A re-plan walks as far as the longest
window left to its rows and checks only the rules of their variants;
an accepted one is written over the columns of the plan it replaces, so
every row reads the same column.  Walk and re-plan buffers are allocated once per run
and each walk uses their first rows, so rows that stop leave them alone.
So every row of a batch matches its own one-row run bit for bit,
whichever rows and configurations share the batch.
:func:`run_closed_loop` is the one-row case and returns the full
:class:`ClosedLoopTrace`; batches return per-row statistics, with full
traces only on request.  A traced run walks and decides as an untraced
one; it logs what the run computes anyway as columns and builds its
traces from them after the run.  The per-prefix degrees of its windows,
which the deciding walk stops short of, are rebuilt then by one walk over
all windows, with the bits of the run's own walks.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, fields
from typing import NamedTuple, Sequence

import numpy as np

from .certify import (
    CERT_SLACK,
    Certificate,
    SlackAccumulator,
    alpha_m_step,
    alpha_m_steps,
    budget_met,
    np_sums,
    row_sums,
    update_acceptable,  # noqa: F401  (unused; perfbench/spans.py wraps it here)
)
from .errors import ConfigError
from .model import row_dot
from .riccati import FiniteHorizonSolver, PlanWalk

VARIANTS = ("alg1", "alg2", "alg3", "alg4")
#: The variants that keep a slack account (the watchdog) and those that re-plan mid-stretch.
WATCHDOG, REPLANNING = ("alg3", "alg4"), ("alg2", "alg4")

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERATIONS = "max-iterations"
STATUS_EXIT_FAILED = "exit-strategy-failed"
STATUS_WARNING = "warning-issued"
STATUS_ERROR = "error"
_STATUSES = (STATUS_EXIT_FAILED, STATUS_WARNING, STATUS_CONVERGED, STATUS_MAX_ITERATIONS, STATUS_ERROR)

#: A run stops as converged once its state is at most this far (2-norm)
#: from the equilibrium, the origin.
TERMINATION_RADIUS = 1e-8

# The error text of a row whose run overflows after its first iteration, formatted with its x0.
_OVERFLOWS = "the run from initial state {} overflows"


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
    dict afterwards changes nothing.  The two tolerances are constants,
    not fields: :data:`TERMINATION_RADIUS` and
    :data:`~mpccert.certify.CERT_SLACK`.
    """

    variant: str
    horizon: int
    alpha_bar: float
    max_iterations: int = 1000
    forced_m: int | Sequence[int] | None = None
    shrink_schedule: dict[int, int] | tuple[tuple[int, int], ...] | None = None

    def __post_init__(self):
        for name in ("horizon", "max_iterations"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if np.iterable(self.forced_m):
            object.__setattr__(self, "forced_m", tuple(_integer(v, "forced_m") for v in self.forced_m))
        elif self.forced_m is not None:
            object.__setattr__(self, "forced_m", _integer(self.forced_m, "forced_m"))
        if self.shrink_schedule is not None:
            pairs = dict(self.shrink_schedule).items()
            schedule = tuple(sorted((_integer(i, "shrink_schedule"), _integer(n, "shrink_schedule")) for i, n in pairs))
            object.__setattr__(self, "shrink_schedule", schedule or None)
        if self.variant not in VARIANTS:
            raise ConfigError(f"unknown variant {self.variant!r}, expected one of {VARIANTS}")
        if self.horizon < 2:
            raise ConfigError(f"horizon must be at least 2, got {self.horizon}")
        if not isinstance(self.alpha_bar, numbers.Real) or not 0.0 <= self.alpha_bar <= 1.0:
            raise ConfigError(f"alpha_bar must lie in [0, 1], got {self.alpha_bar!r}")
        if self.max_iterations < 1:
            raise ConfigError(f"max_iterations must be positive, got {self.max_iterations}")
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


def _integer(value, name: str) -> int:
    """``value`` as an ``int``; anything but a Python or NumPy integer raises :class:`ConfigError`, nothing is rounded."""
    if not isinstance(value, (int, np.integer)):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


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


@dataclass(frozen=True, eq=False)
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


@dataclass(frozen=True, eq=False)
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
) -> bool | np.ndarray:
    """Decide whether the horizon may shrink to ``n_new`` at state ``x``.

    Shrinking swaps the value function under the running certificate
    chain.  The one-time drop ``V_new(x) - V_old(x)`` (nonpositive, the
    value grows with the horizon) is charged against the banked slack;
    the switch is allowed when the account survives it, up to
    :data:`~mpccert.certify.CERT_SLACK`.  ``n_new`` equal to the current
    horizon is a no-op and always allowed.

    ``x`` may also be a ``(B, n)`` array, with ``horizon`` and
    ``slack_total`` holding one value per row or one for all; the answer
    is then one boolean per row.
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
        ok = same | (slack_total + drop >= -CERT_SLACK)
    return ok if X.ndim == 2 else bool(ok[0])


def _running_min(current: np.ndarray, new: np.ndarray) -> None:
    """Row-wise ``min(current, new)`` written into ``current``, keeping ``current`` on ties, like :func:`min`."""
    np.copyto(current, new, where=new < current)


@dataclass(frozen=True, eq=False)
class BatchRun:
    """Outcome of :func:`run_batch` or :func:`run_rows`, one entry per initial state in input order.

    Each statistic equals the :class:`ClosedLoopTrace` property (or
    ``summary()`` entry) of the same name for that row's run.  ``traces``
    holds the full traces when they were asked for and is ``None``
    otherwise.  ``errors`` is ``None`` when every row ran, else each row's
    error text (``None`` for a row that ran): a failed row is an error row
    (:func:`error_rows`) of the one run, and such a batch has no traces.
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
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return BatchRun(**{name: None if value is None else value[rows] for name, value in values.items()})


# Every scalar per-row field of _Lockstep, by dtype: each field is one row
# of its dtype's (fields, rows) block, so rows stop with one copy per block.
# A field is a view into its block: write it in place (field[:] = ...),
# never rebind it, and copy it before handing it to code that keeps it
# across a write.  sigma, v_before and cost_sum are the interval running
# since the loop was last closed (start time, value at its start, cost paid
# so far), open in every row from its first iteration on and closed once
# the value at its end state (at the then-current horizon) is known; v_now
# is the value of each row's state at its horizon.
_BLOCKS = (
    (float, ("alpha_bar", "v_before", "cost_sum", "v_now", "slack", "v_initial", "startup", "min_onestep",
             "min_window")),
    (int, ("ids", "kind", "horizon", "max_iterations", "forced", "t", "sigma", "intervals", "exits", "warnings")),
    (bool, ("watchdog", "replanning")),
)


class _Rule(NamedTuple):
    """The running rows' decision rule for :meth:`_Lockstep._probe`.

    ``forced`` marks the rows with a forced length, ``last`` is each row's
    last prefix length and ``target`` the metric its prefix must reach
    (``inf`` on forced rows); ``accounts`` and ``all_accounts`` say
    whether some or every row keeps a slack account.  ``deciding``,
    ``best`` and ``arg`` are the first values of the walk's running
    arrays: nothing writes them in place.
    """

    forced: np.ndarray
    last: np.ndarray
    target: np.ndarray
    accounts: bool
    all_accounts: bool
    deciding: np.ndarray
    best: np.ndarray
    arg: np.ndarray


class _Lockstep:
    """State of a lockstep run over the rows still running.

    Every scalar per-row field (:data:`_BLOCKS`) and the states ``x`` hold
    the running rows only, densely and in one order, and ``ids`` maps them
    back to input order.  Rows that stop are closed, their blocks are
    copied once into the input-order results, and every block and ``x``
    are compacted with one index.  The cost log is written through ``ids``
    and never compacted, and :meth:`outcome` takes whole-run sums from it
    once.  The walk and re-plan buffers are allocated once per run and
    never compacted: each walk uses their first rows.

    Each row carries its own configuration: horizon, threshold,
    iteration cap and the variant's two flags (slack watchdog,
    mid-stretch re-planning) are per-row fields; forced lengths and shrink
    requests are read per distinct configuration, at the iterations where
    they can change.  The decision rule and the plan walk built from them
    are kept until rows retire, a shrink is due or a forced length moves.

    Each iteration's walk decides every row's commitment, exit and
    warning as it goes (:meth:`_probe`).  Windows are plan-resident: the
    arrays of the iteration's plan are what the rows apply, one column at
    a time (:meth:`_apply`), with a re-plan (:meth:`_replan`) before each
    column after the first for the ``alg2``/``alg4`` rows still inside
    their windows.  Window and re-plan costs add each applied cost, and
    :func:`~mpccert.certify.np_sums` gives them ``np.sum``'s bits.
    Iteration caps, cost-log growth and warning counts are tested only
    when they can change: the log grows only when ``t_end``, a Python
    int no running row's applied steps exceed, passes its width.  The
    stop test runs only once some row's value is at most ``rest_value``,
    above which no state is within :data:`TERMINATION_RADIUS` of the
    origin at any rung of the solver's table.  A row fails through
    :meth:`_fail`, which keeps its first text in ``errors`` and cuts its
    cap: an initial state, or first values and plans, that are not
    finite, a slack or value that is not finite at a power-of-two
    iteration (:meth:`run`), or a final slack that is not finite
    (:meth:`_retire`).  The outcome makes each an error row; a row that
    never planned reports NaN degrees.

    With traces, ``log`` keeps column logs of every closed interval,
    window and applied step, tagged with input ids so that they need no
    compaction, and :meth:`outcome` builds every trace from them.
    """

    def __init__(self, solver: FiniteHorizonSolver, X0, config, keep_traces: bool):
        X = np.array(X0, dtype=float)
        n, c = solver.lq.state_dim, solver.lq.control_dim
        if X.ndim != 2 or X.shape[1] != n:
            raise ConfigError(f"initial states must have shape (B, {n}), got {X.shape}")
        rows = len(X)
        self.solver = solver
        self.row_configs = _row_configs(config, rows)
        self.configs, kind = _distinct_configs(self.row_configs)
        self.blocks = [np.zeros((len(names), rows), dtype) for dtype, names in _BLOCKS]
        self._bind()
        cfgs = self.configs
        self.ids[:], self.kind[:] = np.arange(rows), kind
        self.horizon[:] = np.array([cfg.horizon for cfg in cfgs])[kind]
        self.alpha_bar[:] = np.array([cfg.alpha_bar for cfg in cfgs])[kind]
        self.max_iterations[:] = np.array([cfg.max_iterations for cfg in cfgs])[kind]
        self.watchdog[:] = np.array([cfg.variant in WATCHDOG for cfg in cfgs])[kind]
        self.replanning[:] = np.array([cfg.variant in REPLANNING for cfg in cfgs])[kind]
        # A row that stops before its first plan reports NaN; in outcome() for the minima.
        self.v_initial[:] = self.startup[:] = np.nan
        self.min_onestep[:] = self.min_window[:] = np.inf
        self.x0, self.errors = X, {}
        self.min_cap = int(self.max_iterations.min(initial=1))
        if not np.isfinite(X).all():  # rows whose states are not finite stop at iteration 0
            self._fail(np.flatnonzero(~np.isfinite(X).all(axis=1)), "initial states must be finite, got {}", 0)
        # Forced lengths change only while some sequence has entries left;
        # shrink requests are looked up by iteration.
        self.forced_until = max(len(cfg._forced_values()) for cfg in cfgs) if rows else 0
        self.shrinks: dict[int, list[tuple[int, int]]] = {}
        for k, cfg in enumerate(cfgs):
            for iteration, n_new in cfg.shrink_schedule or ():
                self.shrinks.setdefault(iteration, []).append((k, n_new))
        # Walk buffers for the widest horizon, reused by every iteration.
        self.walk_buffers = PlanWalk.allocate(rows, int(self.horizon.max(initial=2)) - 1, n, c)
        self.v_now[:] = solver.values_of(X, self.horizon) if rows else ()
        # |x' P x| <= g |x|^2 for g the sum of P's absolute entries.  So with G the largest g of any rung,
        # no row valued above 2 G R^2 (2 covers rounding) is within R = TERMINATION_RADIUS of the origin.
        ends = solver.value_table(int(self.horizon.max(initial=2)))
        self.rest_value = 2.0 * TERMINATION_RADIUS**2 * np.abs(ends).sum(axis=(0, 1)).max()
        self.rule = self.walk = self.replan_buffers = self.log = None
        self.x = X.copy()
        # Applied costs by input row and time; no running row has applied more than t_end steps.
        self.costs, self.t_end = np.zeros((rows, 16)), 0
        # Input-order results, written once per row when it stops.
        self.status = np.zeros(rows, dtype=int)  # codes into _STATUSES
        self.results = [np.empty_like(block) for block in self.blocks]
        if keep_traces:
            # Per event (see _log), int rows | float rows: "close" per closed interval (id, interval index,
            # sigma, t | v_before, closing value, cost_sum, rho, slack after), "window" per iteration (id,
            # iteration, time, horizon, m, forced, exit, warning | v_start, v_end, cost), "step" per applied
            # step (id, time | state after it, control, stage cost).  Each log starts with an empty event.
            shapes = {"close": (4, 5), "window": (8, 3), "step": (2, n + c + 1)}
            self.log = {k: [(np.zeros((i, 0), int), np.zeros((f, 0)))] for k, (i, f) in shapes.items()}

    def _bind(self) -> None:
        """Point every field name of :data:`_BLOCKS` at its row of its block."""
        for block, (_, names) in zip(self.blocks, _BLOCKS):
            for name, row in zip(names, block):
                setattr(self, name, row)

    def _log(self, name: str, ints, floats) -> None:
        """Append one event to the log ``name``: its int and its float columns, copied as the rows of two arrays."""
        self.log[name].append((np.array(ints), np.array(floats)))

    def _close(self, sel, v_here: np.ndarray) -> None:
        """Close the pending interval of the rows ``sel`` (a slice or indices) at value ``v_here``."""
        cost = self.cost_sum[sel]
        v_before = self.v_before[sel]
        rho = v_before - v_here - self.alpha_bar[sel] * cost
        self.slack[sel] += rho
        if self.log:
            ints = self.ids[sel], self.intervals[sel], self.sigma[sel], self.t[sel]
            self._log("close", ints, (v_before, v_here, cost, rho, self.slack[sel]))
        self.intervals[sel] += 1

    def _fail(self, rows: np.ndarray, text: str, cap: int) -> None:
        """Stop the running rows ``rows`` at iteration ``cap``, each keeping its first text (``text`` with its x0)."""
        for i in self.ids[rows].tolist():
            self.errors.setdefault(i, text.format(self.x0[i]))
        self.max_iterations[rows] = cap
        self.min_cap = min(self.min_cap, cap)

    def run(self) -> None:
        iteration, checkpoint = 0, 1
        while self.ids.size:
            if iteration == checkpoint:  # at every power of two, rows that have overflowed stop
                checkpoint *= 2
                overflowed = ~(np.isfinite(self.slack) & np.isfinite(self.v_now))
                if np.count_nonzero(overflowed):
                    self._fail(overflowed.nonzero()[0], _OVERFLOWS, iteration)
            # The solver's plant rests at the origin (LinearQuadraticInstance).  Only rows valued at most
            # rest_value can be there, so the test runs once some row is, or some value is NaN.
            near = not self.v_now.min() > self.rest_value
            at_rest = np.sqrt(row_dot(self.x, self.x)) <= TERMINATION_RADIUS if near else False
            stop = at_rest | (iteration >= self.max_iterations) if iteration >= self.min_cap else at_rest
            if np.count_nonzero(stop):
                self._retire(stop, at_rest, iteration)
                if not self.ids.size:
                    return
            self._iterate(iteration)
            iteration += 1

    def _retire(self, stop: np.ndarray, at_rest: np.ndarray, iteration: int) -> None:
        """Close the rows in ``stop``, write their results, and drop them from every block and ``x``."""
        sel = stop.nonzero()[0]
        if iteration > 0:  # every row that has planned has an interval pending
            self._close(sel, self.v_now[sel])
            # Every closed interval's values and cost pass through the slack, so an overflow leaves it not finite.
            overflowed = sel[~np.isfinite(self.slack[sel])]
            if overflowed.size:
                self._fail(overflowed, _OVERFLOWS, iteration)
        ids = self.ids[sel]
        # Codes index _STATUSES: flagged by exits without an account or by warnings with one, else at rest or capped.
        flags = np.where(self.watchdog, self.warnings, self.exits)
        self.status[ids] = np.where(flags > 0, self.watchdog, 3 - at_rest)[sel]
        for result, block in zip(self.results, self.blocks):
            result[:, ids] = block[:, sel]
        keep = (~stop).nonzero()[0]
        self.blocks = [block.take(keep, axis=1) for block in self.blocks]
        self._bind()
        self.x = self.x[keep]
        self.rule = None

    def _shrink(self, iteration: int) -> None:
        """Grant each shrink request due at this iteration where the slack covers it."""
        for k, n_new in self.shrinks[iteration]:
            p = np.flatnonzero(self.kind == k)
            if p.size:
                ok = shrink_horizon_check(self.solver, self.x[p], self.horizon[p], n_new, self.slack[p])
                self.horizon[p[ok]] = n_new

    def _iterate(self, iteration: int) -> None:
        """One outer iteration: walk and probe the plans, commit, apply, record the window."""
        if iteration in self.shrinks:
            self._shrink(iteration)
            self.rule = None
        if iteration < self.forced_until:
            self.forced[:] = np.array([cfg.forced_m_at(iteration) or 0 for cfg in self.configs])[self.kind]
            self.rule = None
        # v_now is each row's value unless a shrink was due; copied, as _apply writes it.
        known = None if iteration in self.shrinks else self.v_now.copy()
        if self.rule is None:
            self.rule, self.walk = self._decision_rule(known)
        else:
            self.walk.restart(self.x, known)
        # The walk decides on the slack banked at the plan's start.
        plan = self.walk
        v_start = plan.value
        if iteration:
            self._close(slice(None), v_start)
        m, exit_event, warning_event, onestep = self._probe(plan)
        self.exits += exit_event
        if self.rule.accounts:
            self.warnings += warning_event
        if not iteration:
            self.v_initial[:], self.startup[:] = v_start, onestep
            finite = np.isfinite(plan.ends[:, : plan.steps]).all(axis=1) & np.isfinite(v_start + row_dot(self.x, self.x))
            if not finite.all():  # such rows stop at iteration 1
                self._fail((~finite).nonzero()[0], "the value of initial state {} is not finite", 1)
        _running_min(self.min_onestep, onestep)

        # Open every row's interval at the plan's start and apply its window.
        window_time, longest = self.t.copy(), int(m.max())
        self.sigma[:] = self.t
        self.v_before[:] = v_start
        self.t_end += longest
        if self.t_end > self.costs.shape[1]:
            self.t_end = int((window_time + m).max())
            self._reserve(self.t_end)
        cost = np_sums(self._apply(plan, m, longest), longest, self.costs, window_time, self.t, self.ids)
        # A one-step window ran no re-plan: its degree is its plan's one-step degree, bit for bit.
        _running_min(self.min_window, onestep if longest == 1 else alpha_m_steps(v_start - self.v_now, cost))
        if self.log:
            ids, flags = self.ids, (self.forced > 0, exit_event, warning_event)
            ints = ids, np.full_like(ids, iteration), window_time, self.horizon, m, *flags
            self._log("window", ints, (v_start, self.v_now, cost))
            # Row r applied the first m[r] columns of the plan (see _apply).
            r, j = (np.arange(longest) < m[:, None]).nonzero()
            applied = *plan.trajectory[r, j + 1].T, *plan.controls[r, j].T, plan.stage_costs[r, j]
            self._log("step", (ids[r], window_time[r] + j), applied)

    def _probe(self, plan: PlanWalk) -> tuple[np.ndarray, ...]:
        """Walk the plans prefix by prefix, deciding each row's commitment on the way.

        A row settles at its forced length, else at its first prefix with
        alpha_j >= alpha_bar, or rho_j >= 0 when it keeps an account.  A row
        left unsettled commits one step with an exit event (no account),
        its first rho maximiser when the slack covers it, or one step with
        a warning; a forced row with an account warns when the slack does
        not cover the best prefix of its forced window.  The walk stops
        once every row is settled, traced or not: a trace's per-prefix
        degrees are rebuilt after the run (:meth:`_traces`).  Returns
        ``m``, the exit and warning flags and the one-step degrees.
        """
        rule, watchdog = self.rule, self.watchdog
        # Which metrics a step needs: alpha_j decides rows without an
        # account, rho_j rows with one; the first step's alpha is the
        # one-step degree of every row.
        deciding, best, arg = rule.deciding, rule.best, rule.arg
        rows, m = len(watchdog), self.forced
        for k in range(plan.width):
            plan.advance()
            drop = plan.value - plan.ends[:, k]
            cost = plan.prefix_costs[:, k]
            if k == 0 or not rule.all_accounts:
                alpha = metric = alpha_m_steps(drop, cost)
            if k == 0:
                onestep = alpha
            if rule.accounts:
                rho = drop - self.alpha_bar * cost
                metric = rho if rule.all_accounts else np.where(watchdog, rho, alpha)
                better = deciding & (rho > best)
                best, arg = np.where(better, rho, best), np.where(better, k + 1, arg)
            hit = metric >= rule.target
            m = np.where(deciding & hit, k + 1, m)
            deciding = deciding & ~hit & (k + 1 < rule.last)
            if not np.count_nonzero(deciding):
                break
        fallback = m == 0
        if not rule.accounts:
            return np.maximum(m, 1), fallback, np.zeros(rows, dtype=bool), onestep
        covered = self.slack + best >= 0.0
        exit_event = fallback & ~watchdog
        warning_event = watchdog & ~covered & (fallback | rule.forced)
        m = np.where(fallback, np.where(watchdog & covered, arg, 1), m)
        return m, exit_event, warning_event, onestep

    def _decision_rule(self, known) -> tuple[_Rule, PlanWalk]:
        """The rows' rule for :meth:`_probe` and walk, kept until rows retire, a shrink is due or forced_m moves."""
        forced, width, watchdog, rows = self.forced > 0, self.horizon - 1, self.watchdog, len(self.x)
        last = np.where(forced, self.forced, width)
        target = np.where(forced, np.inf, np.where(watchdog, 0.0, self.alpha_bar))
        start = np.ones(rows, dtype=bool), np.full(rows, -np.inf), np.ones(rows, dtype=int)
        walk = PlanWalk(self.solver, self.x, self.horizon, int(width.max()), known, self.walk_buffers)
        return _Rule(forced, last, target, watchdog.any(), watchdog.all(), *start), walk

    def _reserve(self, steps: int) -> None:
        """Double the cost log's time axis until it holds ``steps`` applied steps."""
        while steps > self.costs.shape[1]:
            self.costs = np.concatenate([self.costs, np.zeros_like(self.costs)], axis=1)

    def _apply(self, plan: PlanWalk, m: np.ndarray, longest: int) -> np.ndarray:
        """Apply the first ``m[i]`` steps of the plan to row ``i``, one column at a time; return the window costs.

        Column ``j < longest``, where ``longest = max(m)``, goes to
        every row still inside its window, read without a gather while
        that is every row.  Before each column after the first, the
        re-planning rows still inside their windows re-plan
        (:meth:`_replan`); an accepted re-plan is written over the
        columns it replaces, so every row reads the same column.  The
        interval's ``cost_sum`` and the window cost open at 0.0 and add
        each applied cost, left to right as ``np.sum`` adds fewer than
        eight terms; the cost log takes it at row ``ids[i]``.
        """
        shortest = int(m.min())
        replanning = self.replanning.nonzero()[0] if longest > 1 else None
        cost = np.zeros(len(m))
        self.cost_sum[:] = 0.0
        for j in range(longest):
            at = slice(None) if j < shortest else (m > j).nonzero()[0]
            if j and replanning.size:
                replans = replanning if j < shortest else replanning[m[replanning] > j]
                if replans.size:
                    self._replan(replans, m[replans] - j, j, plan)
            x, step_cost, t = plan.trajectory[at, j + 1], plan.stage_costs[at, j], self.t[at]
            self.x[at] = x
            self.costs[self.ids[at], t] = step_cost
            self.t[at] = t + 1
            self.cost_sum[at] += step_cost
            cost[at] += step_cost
        self.v_now[:] = plan.ends[:, shortest - 1] if shortest == longest else plan.ends[np.arange(len(m)), m - 1]
        return cost

    def _replan(self, rows: np.ndarray, tail: np.ndarray, applied: int, anchor: PlanWalk) -> None:
        """Plan afresh after ``applied`` steps of the window; rows whose check passes switch to the new plan.

        The new plans are walked as far as the longest tail; row ``i`` reads
        the ``tail[i]`` steps left in its window, from the value its anchor
        plan gives the state reached.
        alg2 rows accept when the stretch since the loop was last closed
        still meets the threshold (:func:`budget_met`, the rule of
        :func:`update_acceptable`), alg4 rows when their slack account
        stays nonnegative; only a batch whose re-planning rows mix the two
        evaluates both.  The interval's ``cost_sum`` and the tail's prefix
        cost get ``np.sum``'s bits from :func:`~mpccert.certify.np_sums`.
        An accepted plan overwrites ``anchor``'s columns from ``applied``
        on, the steps the row applies next, read as slices if all accept.
        """
        width = int(tail.max())
        plan = self._replan_walk(rows, anchor, applied, width)
        for _ in range(width):
            plan.advance()
        # Read as column slices while every tail is the walk's.
        at = (slice(None), width - 1) if tail.min() == width else (np.arange(len(tail)), tail - 1)
        end_value, planned = plan.ends[at], np_sums(0.0 + plan.prefix_costs[at], width, plan.stage_costs, None, tail)
        paid = np_sums(self.cost_sum[rows], applied, self.costs, self.sigma, self.t, self.ids, at=rows)
        alpha_bar, watchdog, anchor_value = self.alpha_bar[rows], self.watchdog[rows], self.v_before[rows]
        accounts = np.count_nonzero(watchdog)
        if accounts:
            rho_close = anchor_value - plan.value - alpha_bar * paid
            rho_tail = plan.value - end_value - alpha_bar * planned
            ok = self.slack[rows] + rho_close + rho_tail >= -CERT_SLACK
        if accounts < len(watchdog):
            budget = budget_met(end_value, alpha_bar, paid, planned, anchor_value)
            ok = np.where(watchdog, ok, budget) if accounts else budget
        taken = slice(None) if ok.all() else ok.nonzero()[0]
        p, value = rows[taken], plan.value[taken]
        if not p.size:
            return
        self._close(p, value)
        self.sigma[p] = self.t[p]
        self.v_before[p] = value
        self.cost_sum[p] = 0.0
        steps = slice(applied, applied + width)
        anchor.trajectory[p, applied + 1 : applied + width + 1] = plan.trajectory[taken, 1 : width + 1]
        anchor.stage_costs[p, steps] = plan.stage_costs[taken, :width]
        anchor.ends[p, steps] = plan.ends[taken, :width]
        anchor.controls[p, steps] = plan.controls[taken, :width]

    def _replan_walk(self, rows: np.ndarray, anchor: PlanWalk, applied: int, width: int) -> PlanWalk:
        """A walk of ``width`` steps from the rows' states after ``applied`` steps of ``anchor``.

        It runs on the run's re-plan buffers, allocated at the first
        re-plan for every running row and ``anchor``'s width: rows only
        retire and horizons only shrink, so no later walk is wider or has
        more rows, and no walk reads a column it has not written.
        """
        if self.replan_buffers is None:
            lq = self.solver.lq
            self.replan_buffers = PlanWalk.allocate(len(self.ids), anchor.width, lq.state_dim, lq.control_dim)
        horizon = anchor.horizon if isinstance(anchor.horizon, int) else anchor.horizon[rows]
        X, value = anchor.trajectory[rows, applied], anchor.ends[rows, applied - 1]
        return PlanWalk(self.solver, X, horizon, width, value, self.replan_buffers)

    def outcome(self) -> BatchRun:
        """Input-order results, traced if no row failed; ``alpha_cor3`` from one ``row_sums`` of all costs."""
        result = {name: row for (_, names), block in zip(_BLOCKS, self.results) for name, row in zip(names, block)}
        self.status[list(self.errors)] = _STATUSES.index(STATUS_ERROR)
        realized = alpha_m_steps(result["v_initial"] - result["v_now"], row_sums(self.costs, result["t"]))
        closed = result["intervals"] > 0  # every row that planned has closed an interval
        run = BatchRun(
            status=tuple(_STATUSES[code] for code in self.status.tolist()),
            startup_onestep_alpha=result["startup"],
            min_onestep_alpha=np.where(closed, result["min_onestep"], np.nan),
            min_window_alpha=np.where(closed, result["min_window"], np.nan),
            alpha_cor3=np.where(closed, realized, np.nan),
            exit_count=result["exits"],
            warning_count=result["warnings"],
            intervals=result["intervals"],
            applied_steps=result["t"],
            traces=self._traces(result) if self.log and not self.errors else None,
        )
        return error_rows([self.errors.get(i) for i in range(len(self.x0))], run) if self.errors else run

    def _joined(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """The log ``name`` as one int and one float block, its events by input row, each row's in run order."""
        ints, floats = (np.concatenate(blocks, axis=1) for blocks in zip(*self.log[name]))
        order = np.argsort(ints[0], kind="stable")
        return ints[:, order], floats[:, order]

    def _traces(self, result: dict) -> tuple[ClosedLoopTrace, ...]:
        """Every row's trace, built from the run's column logs and its input-order results."""
        rows, n = self.x0.shape
        ends = result["t"]
        # Each row's x0, then each applied step's state, control and cost at the time after it.
        (ids, time), applied = self._joined("step")
        steps = np.zeros((len(applied), rows, ends.max(initial=0) + 1))
        steps[:n, :, 0] = self.x0.T
        steps[:, ids, time + 1] = applied
        # One certificate per closed interval; each close is a schedule time.
        (closed, index, sigma, t), (v_before, v_after, cost_sum, rho, slack) = self._joined("close")
        cert = (index, sigma, t - sigma, v_before, v_after, cost_sum, alpha_m_steps(v_before - v_after, cost_sum), rho)
        certificates = [Certificate(*f) for f in zip(*(a.tolist() for a in cert))]
        # A window's closes are the schedule times strictly inside it.
        (windowed, iteration, time, horizon, m, *flags), (v_start, v_end, cost) = self._joined("window")
        keys, start = closed * steps.shape[2] + t, windowed * steps.shape[2] + time
        closes = np.searchsorted(keys, start + m) - np.searchsorted(keys, start, "right")
        # Each window's prefix degrees: one walk over all windows, to each one's N - 1, with the run's bits.
        alphas = rhos = ()
        if len(windowed):
            walk = PlanWalk(self.solver, steps[:n, windowed, time].T, horizon, int(horizon.max()) - 1, v_start)
            walk.advance_to(horizon - 1)
            drop, paid = v_start[:, None] - walk.ends, walk.prefix_costs
            alphas, rhos = alpha_m_steps(drop, paid), drop - result["alpha_bar"][windowed, None] * paid
        probes = [(a[:w], r[:w]) for a, r, w in zip(alphas, rhos, (horizon - 1).tolist())]
        head = zip(iteration.tolist(), time.tolist(), horizon.tolist(), v_start.tolist())
        flags = (f.astype(bool) for f in flags)
        tail = zip(*(a.tolist() for a in (m, *flags, closes, v_end, cost)))
        windows = [WindowRecord(*h, *p, *tl) for h, p, tl in zip(head, probes, tail)]
        bounds = [np.searchsorted(i, np.arange(rows + 1)).tolist() for i in (closed, windowed)]
        finals = (result[name].tolist() for name in ("slack", "exits", "warnings"))
        statuses = (_STATUSES[code] for code in self.status.tolist())
        times, slack = t.tolist(), slack.tolist()
        return tuple(
            ClosedLoopTrace(
                config=self.row_configs[i],
                x0=self.x0[i],
                status=status,
                schedule=UpdateSchedule(times=(0, *times[c])),
                states=steps[:n, i, : end + 1].T.copy(),
                applied_controls=steps[n:-1, i, 1 : end + 1].T.copy(),
                applied_costs=steps[-1, i, 1 : end + 1].copy(),
                certificates=tuple(certificates[c]),
                slack=SlackAccumulator(total=total, values=slack[c]),
                windows=tuple(windows[w]),
                exit_count=exits,
                warning_count=warnings,
            )
            for i, (c, w, status, end, total, exits, warnings) in enumerate(
                zip(*(map(slice, b, b[1:]) for b in bounds), statuses, ends.tolist(), *finals)
            )
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


def error_rows(errors: Sequence[str | None], run: BatchRun | None = None) -> BatchRun:
    """``run`` with NaN degrees and zero counts where ``errors`` holds a text; without ``run``, only error rows."""
    failed = np.array([error is not None for error in errors], dtype=bool)
    fills = dict.fromkeys(("startup_onestep_alpha", "min_onestep_alpha", "min_window_alpha", "alpha_cor3"), np.nan)
    fills.update(dict.fromkeys(("exit_count", "warning_count", "intervals", "applied_steps"), 0))
    columns = {name: np.where(failed, fill, getattr(run, name) if run else fill) for name, fill in fills.items()}
    return BatchRun(status=run.status if run else (STATUS_ERROR,) * len(errors), errors=tuple(errors), **columns)


def run_rows(solver: FiniteHorizonSolver, X0, config, *, traces: bool = False) -> BatchRun:
    """:func:`run_batch`, with each failed row an error row (:func:`error_rows`) instead of an error.

    Errors of the whole batch, such as a bad ``X0`` shape or a ladder ``SolverError``, still raise.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        state = _Lockstep(solver, X0, config, traces)
        state.run()
        return state.outcome()


def run_batch(
    solver: FiniteHorizonSolver, X0, config: AlgorithmConfig | Sequence[AlgorithmConfig], *, traces: bool = False
) -> BatchRun:
    """Run the configured variant from every row of the ``(B, n)`` array ``X0`` in lockstep.

    ``config`` is one configuration for all rows or a sequence with one
    per row; rows may then differ in variant, horizon, threshold, forced
    lengths and shrink schedule.  Every row's run is the same as its own
    one-row batch, bit for bit: rows share solver calls but no
    arithmetic.  After the run, the first failed row in input order (see
    :func:`run_rows`) raises its ``ConfigError``; NumPy's warnings stay off.
    """
    run = run_rows(solver, X0, config, traces=traces)
    if run.errors:
        raise ConfigError(next(filter(None, run.errors)))
    return run


def run_closed_loop(solver: FiniteHorizonSolver, x0, config: AlgorithmConfig) -> ClosedLoopTrace:
    """Run the configured variant until the state reaches the equilibrium."""
    x = np.asarray(x0, dtype=float)
    n = solver.lq.state_dim
    if x.shape != (n,):
        raise ConfigError(f"x0 must have shape ({n},), got {x.shape}")
    return run_batch(solver, x[None], config, traces=True).traces[0]

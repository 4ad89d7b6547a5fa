"""Batch experiments over sets of initial states.

A sweep runs one closed-loop configuration from every point of an
:class:`InitialSet` and collects per-point certificate statistics; the
helpers here also cover the horizon comparison table and the CSV
emitters used by the command-line front end.  Value-drop maps need only
the planner and live in :mod:`mpccert.riccati`.  All floating-point
output uses ``%.17g`` so that reruns are byte-comparable.

A sweep takes a solver, which carries its plant (``solver.lq``); the
horizon table builds one solver for all its horizons from the plant.
Both run through :func:`run_blocks`, as do the reference checks: every
configuration of an experiment from every point, as one engine run in
this process, returned as one block of rows per configuration.  A point
that fails is an error row of its block.  Every statistic is read from
the blocks' per-row columns, without a trace or an object per point.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .engine import WATCHDOG, AlgorithmConfig, BatchRun, error_rows, run_rows
from .engine import run_closed_loop  # noqa: F401  (unused; perfbench/spans.py wraps it here)
from .errors import ConfigError, MpcCertError
from .riccati import FiniteHorizonSolver, LqLadderSolver
from .riccati import value_drop_grid  # noqa: F401  (perfbench calls and traces it here)

# The sweep CSV's columns after k and one x1..xn column per state coordinate.
_SWEEP_COLUMNS = ("alpha_min_1step", "alpha_min_mstep", "alpha_cor3", "warning", "status")
_HORIZON_COLUMNS = ("N", "alpha_prop1_min", "alpha_cor3_min")


@dataclass(frozen=True, eq=False)
class InitialSet:
    """A named, ordered collection of initial states."""

    name: str
    points: np.ndarray

    def __len__(self) -> int:
        return len(self.points)


def unit_circle(k_max: int) -> InitialSet:
    """The ``k_max`` points ``(cos(2 pi k / k_max), sin(2 pi k / k_max))``.

    ``k`` runs from 1 to ``k_max``, so the last point is ``(1, 0)`` and
    indices reported by sweeps refer to this 1-based ``k``.
    """
    if k_max < 1:
        raise ConfigError(f"k_max must be positive, got {k_max}")
    ks = np.arange(1, k_max + 1)
    angles = 2.0 * math.pi * ks / k_max
    return InitialSet(
        name=f"unit-circle:{k_max}",
        points=np.column_stack([np.cos(angles), np.sin(angles)]),
    )


def parse_initial_set(text: str) -> InitialSet:
    """Parse a command-line set description such as ``unit-circle:128``."""
    kind, sep, arg = text.partition(":")
    if kind == "unit-circle" and sep:
        try:
            k_max = int(arg)
        except ValueError:
            raise ConfigError(f"invalid point count {arg!r} in {text!r}") from None
        return unit_circle(k_max)
    raise ConfigError(f"unknown initial set {text!r}, expected 'unit-circle:<count>'")


@dataclass(frozen=True, eq=False)
class SweepReport:
    """The batch run of one sweep plus the set and configuration that ran it.

    ``points`` is the ``(B, n)`` array of initial states and ``runs`` the
    :class:`BatchRun` of its rows in the same order; reported indices are
    1-based positions in ``points``.  A failed point is an error row of
    ``runs`` (see :func:`_records`): it never warns or fails, and its NaN
    statistics stay out of every minimum.
    """

    set_name: str
    config: AlgorithmConfig
    points: np.ndarray
    runs: BatchRun

    def failure_indices(self) -> tuple[int, ...]:
        """Points at which the variant's own failure test fired.

        * ``alg1``/``alg2`` (no slack account): the startup-threshold
          set, where the first plan's one-step degree misses
          ``alpha_bar``.
        * ``alg3``/``alg4`` (watchdog): :meth:`warned_indices`, the
          points where a warning was issued.  Error rows have zero
          warning counts, so they never count.
        """
        if self.config.variant in WATCHDOG:
            return self.warned_indices()
        return _indices(self._ran() & (self.runs.startup_onestep_alpha < self.config.alpha_bar))

    def warned_indices(self) -> tuple[int, ...]:
        return _indices(self.runs.warning_count > 0)

    def error_indices(self) -> tuple[int, ...]:
        return _indices(~self._ran())

    def statuses(self) -> dict[str, int]:
        return dict(Counter(self.runs.status))

    def alpha_cor3_min(self) -> float:
        return _nan_stat(np.nanmin, self.runs.alpha_cor3[self._ran()])

    def aggregates(self) -> dict:
        ran = self._ran()
        cor3 = self.runs.alpha_cor3[ran]
        return {
            "points": len(self.points),
            "errors": len(self.error_indices()),
            "warnings": len(self.warned_indices()),
            "failures": len(self.failure_indices()),
            "alpha_cor3_min": _nan_stat(np.nanmin, cor3),
            "alpha_cor3_max": _nan_stat(np.nanmax, cor3),
            "alpha_cor3_mean": _nan_stat(np.nanmean, cor3),
            "alpha_1step_min": _nan_stat(np.nanmin, self.runs.min_onestep_alpha[ran]),
            "alpha_mstep_min": _nan_stat(np.nanmin, self.runs.min_window_alpha[ran]),
        }

    def _ran(self) -> np.ndarray:
        """Whether each point ran, as a boolean column: error rows did not."""
        return np.array([error is None for error in self.runs.errors or (None,) * len(self.points)], dtype=bool)


def _indices(mask: np.ndarray) -> tuple[int, ...]:
    """The 1-based positions of the true entries of ``mask``."""
    return tuple((np.flatnonzero(mask) + 1).tolist())


def _nan_stat(stat, values) -> float:
    """``stat`` (``np.nanmin``, ``np.nanmax`` or ``np.nanmean``) of ``values``; NaN, without
    NumPy's ``RuntimeWarning``, when no value is a number."""
    values = np.asarray(values, dtype=float)
    return float("nan") if np.isnan(values).all() else float(stat(values))


def _points(initial_set: InitialSet, state_dim: int) -> np.ndarray:
    """The set's points as a ``(B, state_dim)`` float array.

    A set of another shape is a configuration error of the whole
    experiment, raised before any point runs, not an error of each point.
    """
    points = np.asarray(initial_set.points, dtype=float)
    if points.ndim != 2 or points.shape[1] != state_dim:
        raise ConfigError(
            f"initial set {initial_set.name} has points of shape {points.shape}, "
            f"the plant needs (B, {state_dim})"
        )
    return points


def _records(solver: FiniteHorizonSolver, configs: list, points: np.ndarray) -> BatchRun:
    """The one engine run of ``points``, one configuration per row, whose failed points are error rows.

    An error of the whole batch, such as a ladder ``SolverError``, makes every row an error row with its text.
    """
    try:
        return run_rows(solver, points, configs)
    except MpcCertError as exc:
        return error_rows((str(exc),) * len(points))


def run_blocks(solver: FiniteHorizonSolver, points: np.ndarray, configs) -> list[BatchRun]:
    """Each of ``configs`` run from every row of ``points``, as one block of rows per configuration.

    All the runs form one engine run (:func:`_records`), so a point that
    fails is an error row of its block and every other row is as if alone.
    """
    size = len(points)
    batch = _records(solver, [config for config in configs for _ in range(size)], np.tile(points, (len(configs), 1)))
    return [batch.select(slice(k * size, (k + 1) * size)) for k in range(len(configs))]


def sweep(
    solver: FiniteHorizonSolver, initial_set: InitialSet, config: AlgorithmConfig
) -> SweepReport:
    """Run the configured closed loop from every point of the set.

    All points form one engine run (see :func:`run_blocks`).  A point
    that fails is an error row, not an error, and every other row is as in
    a run without it.  A set whose points do not match the plant's state
    dimension raises :class:`ConfigError` before any point runs.
    """
    points = _points(initial_set, solver.lq.state_dim)
    return SweepReport(initial_set.name, config, points, run_blocks(solver, points, (config,))[0])


def horizon_comparison(
    lq,
    initial_set: InitialSet,
    horizons,
    alpha_bar: float = 0.01,
) -> list[tuple[int, float, float]]:
    """Certified degrees as the horizon grows.

    For each horizon ``N`` the first column is the worst committed
    window degree over the set under the adaptive variant with a zero
    threshold (the a-priori style bound); the second is the worst
    whole-run realized degree under single-step application with a
    watchdog at ``alpha_bar`` (the a-posteriori style bound).

    Every (horizon, configuration) block runs in the one engine run of
    :func:`run_blocks` on one solver, so a failing point is an error row
    as in :func:`sweep`; each minimum equals the one the sweep of its
    block would give.  A set whose points do not match the plant's state
    dimension raises :class:`ConfigError`.
    """
    horizons = tuple(horizons)
    if not horizons:
        raise ConfigError("need at least one horizon to compare")
    points = _points(initial_set, lq.state_dim)
    configs = [
        config
        for n in horizons
        for config in (
            AlgorithmConfig(variant="alg1", horizon=n, alpha_bar=0.0),
            AlgorithmConfig(variant="alg3", horizon=n, alpha_bar=alpha_bar, forced_m=1),
        )
    ]
    blocks = run_blocks(LqLadderSolver(lq, max(horizons)), points, configs)
    # Error rows are NaN and stay out of each minimum.
    return [
        (int(n), _nan_stat(np.nanmin, apriori.min_window_alpha), _nan_stat(np.nanmin, posteriori.alpha_cor3))
        for n, apriori, posteriori in zip(horizons, blocks[0::2], blocks[1::2])
    ]


def write_sweep_csv(report: SweepReport, path) -> None:
    """One row per initial state, in index order, with a column per coordinate of the report's points.

    One ``%`` template formats the table: ``%.17g`` gives the bytes of ``format(v, ".17g")``, nan, inf and -0 too.
    """
    n, runs = report.points.shape[1], report.runs
    header = ",".join(("k", *(f"x{j}" for j in range(1, n + 1)), *_SWEEP_COLUMNS))
    row = "\n%d," + "%.17g," * n + "%.17g,%.17g,%.17g,%d,%s"
    columns = (runs.min_onestep_alpha, runs.min_window_alpha, runs.alpha_cor3, runs.warning_count > 0)
    rows = zip(range(1, len(report.points) + 1), *report.points.T.tolist(), *(c.tolist() for c in columns), runs.status)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + (row * len(report.points)) % tuple(chain.from_iterable(rows)) + "\n")


def horizon_csv(rows) -> str:
    """The table of :func:`horizon_comparison` as CSV text: the header, then one line per horizon."""
    return "".join([",".join(_HORIZON_COLUMNS) + "\n", *(f"{n:d},{a:.17g},{b:.17g}\n" for n, a, b in rows)])


def write_horizon_csv(rows, path) -> None:
    """Write :func:`horizon_csv` of ``rows`` to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(horizon_csv(rows))

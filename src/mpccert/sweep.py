"""Batch experiments over sets of initial states.

A sweep runs one closed-loop configuration from every point of an
:class:`InitialSet` and collects per-point certificate statistics; the
helpers here also cover the horizon comparison table and the CSV
emitters used by the command-line front end.  Value-drop maps need only
the planner and live in :mod:`mpccert.riccati`.  All floating-point
output uses ``%.17g`` so that reruns are byte-comparable.

Every experiment takes a solver, which carries its plant (``solver.lq``).  The
points of a set run as one lockstep batch in this process (see
:func:`mpccert.engine.run_batch`), and the point records come straight
from the batch's per-row statistics, without a full trace per point.
The horizon table runs all its horizons and both its configurations as
one batch too, since the rows of a batch may differ in configuration,
and reads its minima from the batch's columns without point records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .engine import AlgorithmConfig, BatchRun, run_batch, run_closed_loop
from .errors import ConfigError, MpcCertError
from .riccati import FiniteHorizonSolver, LqLadderSolver
from .riccati import value_drop_grid  # noqa: F401  (perfbench calls and traces it here)

_SWEEP_COLUMNS = ("k", "x1", "x2", "alpha_min_1step", "alpha_min_mstep", "alpha_cor3", "warning", "status")
_HORIZON_COLUMNS = ("N", "alpha_prop1_min", "alpha_cor3_min")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class PointRecord:
    """Per-initial-state outcome of a sweep.

    ``index`` is the 1-based position in the initial set.  The alpha
    fields are minima over the run: one-step prefix degree, committed
    window degree, and the whole-run realized degree.  ``startup_alpha``
    is the one-step degree of the very first plan, which is what the
    threshold test at startup sees.  A failed run keeps its exception
    text in ``error`` and NaN statistics.
    """

    index: int
    x0: tuple[float, ...]
    status: str
    startup_alpha: float
    min_onestep_alpha: float
    min_mstep_alpha: float
    alpha_cor3: float
    warning: bool
    error: str | None = None


@dataclass(frozen=True)
class SweepReport:
    """All point records of one sweep plus the configuration that ran it."""

    set_name: str
    config: AlgorithmConfig
    records: tuple[PointRecord, ...]

    def failure_indices(self) -> tuple[int, ...]:
        """Points at which the variant's own failure test fired.

        * ``alg1``/``alg2`` (no slack account): the startup-threshold
          set, where the first plan's one-step degree misses
          ``alpha_bar``.
        * ``alg3``/``alg4`` (watchdog): :meth:`warned_indices`, the
          points where a warning was issued.  Error records carry
          ``warning=False``, so they never count.
        """
        if self.config.variant in ("alg1", "alg2"):
            return tuple(
                r.index
                for r in self.records
                if r.error is None and r.startup_alpha < self.config.alpha_bar
            )
        return self.warned_indices()

    def warned_indices(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.records if r.warning)

    def error_indices(self) -> tuple[int, ...]:
        return tuple(r.index for r in self.records if r.error is not None)

    def statuses(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.records:
            counts[r.status] = counts.get(r.status, 0) + 1
        return counts

    def alpha_cor3_min(self) -> float:
        return _nan_stat(np.nanmin, [r.alpha_cor3 for r in self.records if r.error is None])

    def aggregates(self) -> dict:
        clean = [r for r in self.records if r.error is None]
        cor3 = [r.alpha_cor3 for r in clean]
        return {
            "points": len(self.records),
            "errors": len(self.records) - len(clean),
            "warnings": sum(r.warning for r in self.records),
            "failures": len(self.failure_indices()),
            "alpha_cor3_min": _nan_stat(np.nanmin, cor3),
            "alpha_cor3_max": _nan_stat(np.nanmax, cor3),
            "alpha_cor3_mean": _nan_stat(np.nanmean, cor3),
            "alpha_1step_min": _nan_stat(np.nanmin, [r.min_onestep_alpha for r in clean]),
            "alpha_mstep_min": _nan_stat(np.nanmin, [r.min_mstep_alpha for r in clean]),
        }


def _nan_stat(stat, values) -> float:
    """``stat`` (``np.nanmin``, ``np.nanmax`` or ``np.nanmean``) of ``values``; NaN, without
    NumPy's ``RuntimeWarning``, when no value is a number."""
    values = np.asarray(values, dtype=float)
    return float("nan") if np.isnan(values).all() else float(stat(values))


def point_records(batch: BatchRun, points: np.ndarray, first: int = 1) -> list[PointRecord]:
    """One record per row of a finished batch; the row of ``points[0]`` gets index ``first``."""
    stats = zip(
        batch.status,
        batch.startup_onestep_alpha.tolist(),
        batch.min_onestep_alpha.tolist(),
        batch.min_window_alpha.tolist(),
        batch.alpha_cor3.tolist(),
        (batch.warning_count > 0).tolist(),
        batch.errors or (None,) * len(batch.status),
    )
    x0s = np.asarray(points, dtype=float).tolist()
    return [PointRecord(first + i, tuple(x0), *row) for i, (x0, row) in enumerate(zip(x0s, stats))]


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


def _records(solver: FiniteHorizonSolver, config, points: np.ndarray) -> BatchRun:
    """The batch run of ``points``, splitting a failing batch in halves until each error has its point.

    ``config`` is one configuration or a sequence of one per point, as
    :func:`run_batch` takes it.  A point that fails on its own is an error
    row (see :func:`_point_run`).  One failing point among ``B`` costs at
    most ``2 ceil(log2 B) + 1`` runs, batches and single runs together.
    """
    shared = isinstance(config, AlgorithmConfig)
    if len(points) == 1:
        return _point_run(solver, config if shared else config[0], points[0])
    try:
        return run_batch(solver, points, config)
    except (MpcCertError, np.linalg.LinAlgError):
        half = len(points) // 2
        head, rest = (config, config) if shared else (config[:half], config[half:])
        return _joined(_records(solver, head, points[:half]), _records(solver, rest, points[half:]))


def _point_run(solver: FiniteHorizonSolver, config: AlgorithmConfig, x0: np.ndarray) -> BatchRun:
    """One point run on its own, as a one-row batch.

    A failed run is an error row: status ``error``, NaN degrees, zero
    counts and the exception text in ``errors``.
    """
    try:
        run = run_closed_loop(solver, x0, config)
    except (MpcCertError, np.linalg.LinAlgError) as exc:
        nan, zero = np.full(1, np.nan), np.zeros(1, dtype=int)
        return BatchRun(("error",), nan, nan, nan, nan, zero, zero, zero, zero, errors=(str(exc),))
    stats = (run.startup_onestep_alpha, run.min_onestep_alpha, run.min_window_alpha, run.alpha_cor3)
    stats += (run.exit_count, run.warning_count, len(run.certificates), len(run.applied_costs))
    return BatchRun((run.status,), *(np.array([v]) for v in stats))


def _joined(head: BatchRun, rest: BatchRun) -> BatchRun:
    """The rows of ``head`` followed by those of ``rest``, without traces."""
    names = [f.name for f in fields(BatchRun) if isinstance(getattr(head, f.name), np.ndarray)]
    columns = {name: np.concatenate([getattr(head, name), getattr(rest, name)]) for name in names}
    errors = [run.errors or (None,) * len(run.status) for run in (head, rest)]
    return BatchRun(status=head.status + rest.status, errors=errors[0] + errors[1], **columns)


def _evaluate_point(solver: FiniteHorizonSolver, config: AlgorithmConfig, index: int, x0: np.ndarray) -> PointRecord:
    """Record of one point run on its own, with its error if the run fails."""
    return point_records(_point_run(solver, config, x0), [x0], index)[0]


def sweep(
    solver: FiniteHorizonSolver, initial_set: InitialSet, config: AlgorithmConfig
) -> SweepReport:
    """Run the configured closed loop from every point of the set.

    All points run as one lockstep batch (see :func:`run_batch`).
    Per-point failures are recorded, not raised: a batch that fails is
    split in halves and each half runs again, down to single points run
    through :func:`run_closed_loop`, so each error lands on its own
    point and every other record is the same as in the whole batch.
    A set whose points do not match the plant's state dimension raises
    :class:`ConfigError` before any point runs.
    """
    points = _points(initial_set, solver.lq.state_dim)
    records = point_records(_records(solver, config, points), points)
    return SweepReport(set_name=initial_set.name, config=config, records=tuple(records))


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

    Every (horizon, configuration, point) row runs in one lockstep batch
    on one solver, with a failing batch split as in :func:`sweep`; the
    two minima are read from the batch's columns, and each equals the
    one the two sweeps at its horizon would give.  A set whose points do
    not match the plant's state dimension raises :class:`ConfigError`.
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
    solver = LqLadderSolver(lq, max(horizons))
    batch = _records(solver, [config for config in configs for _ in points], np.tile(points, (len(configs), 1)))
    # Blocks of points, one per (horizon, configuration); error rows are NaN.
    shape = (len(horizons), 2, len(points))
    apriori = batch.min_window_alpha.reshape(shape)[:, 0]
    posteriori = batch.alpha_cor3.reshape(shape)[:, 1]
    return [
        (int(n), _nan_stat(np.nanmin, col_a), _nan_stat(np.nanmin, col_b))
        for n, col_a, col_b in zip(horizons, apriori, posteriori)
    ]


def write_sweep_csv(report: SweepReport, path) -> None:
    """One row per initial state, in index order."""
    lines = [",".join(_SWEEP_COLUMNS)] + [
        f"{r.index:d},{r.x0[0]:.17g},{r.x0[1]:.17g},"
        f"{r.min_onestep_alpha:.17g},{r.min_mstep_alpha:.17g},"
        f"{r.alpha_cor3:.17g},{int(r.warning):d},{r.status}"
        for r in report.records
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_horizon_csv(rows, path) -> None:
    """One row per horizon from :func:`horizon_comparison`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_HORIZON_COLUMNS) + "\n")
        for n, col_a, col_b in rows:
            fh.write(f"{n:d},{col_a:.17g},{col_b:.17g}\n")

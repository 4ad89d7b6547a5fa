"""Batch experiments over sets of initial states.

A sweep runs one closed-loop configuration from every point of an
:class:`InitialSet` and collects per-point certificate statistics; the
helpers here also cover the derived experiments (horizon comparison
tables, value-drop maps) and the CSV emitters used by the command-line
front end.  All floating-point output uses ``%.17g`` so that reruns are
byte-comparable.

The points of a set run as one lockstep batch in this process (see
:func:`mpccert.engine.run_batch`), and the point records come straight
from the batch's per-row statistics, without a full trace per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import AlgorithmConfig, run_batch, run_closed_loop
from .errors import ConfigError, MpcCertError
from .model import SystemModel
from .riccati import FiniteHorizonSolver, LqLadderSolver

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
        """Points at which the run's threshold test failed at startup.

        For the variants without a slack account this is the set where
        the first plan's one-step degree misses ``alpha_bar``; for the
        watchdog variants it is the set where a warning was issued.
        """
        if self.config.variant in ("alg1", "alg2"):
            return tuple(
                r.index
                for r in self.records
                if r.error is None and r.startup_alpha < self.config.alpha_bar
            )
        return tuple(r.index for r in self.records if r.error is None and r.warning)

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
        values = [r.alpha_cor3 for r in self.records if r.error is None]
        return float(np.nanmin(values)) if values else float("nan")

    def aggregates(self) -> dict:
        clean = [r for r in self.records if r.error is None]
        cor3 = np.array([r.alpha_cor3 for r in clean]) if clean else np.array([np.nan])
        return {
            "points": len(self.records),
            "errors": len(self.records) - len(clean),
            "warnings": sum(r.warning for r in self.records),
            "failures": len(self.failure_indices()),
            "alpha_cor3_min": float(np.nanmin(cor3)),
            "alpha_cor3_max": float(np.nanmax(cor3)),
            "alpha_cor3_mean": float(np.nanmean(cor3)),
            "alpha_1step_min": float(np.nanmin([r.min_onestep_alpha for r in clean]))
            if clean
            else float("nan"),
            "alpha_mstep_min": float(np.nanmin([r.min_mstep_alpha for r in clean]))
            if clean
            else float("nan"),
        }


def _batch_records(
    model: SystemModel,
    solver: FiniteHorizonSolver,
    config: AlgorithmConfig,
    points: np.ndarray,
    first: int,
) -> list[PointRecord]:
    """Records of ``points`` run as one lockstep batch; the first has index ``first``."""
    batch = run_batch(model, solver, points, config)
    return [
        PointRecord(
            index=first + i,
            x0=tuple(float(v) for v in x0),
            status=batch.status[i],
            startup_alpha=float(batch.startup_onestep_alpha[i]),
            min_onestep_alpha=float(batch.min_onestep_alpha[i]),
            min_mstep_alpha=float(batch.min_window_alpha[i]),
            alpha_cor3=float(batch.alpha_cor3[i]),
            warning=bool(batch.warning_count[i] > 0),
        )
        for i, x0 in enumerate(points)
    ]


def _records(
    model: SystemModel,
    solver: FiniteHorizonSolver,
    config: AlgorithmConfig,
    points: np.ndarray,
    first: int,
) -> list[PointRecord]:
    """Records of ``points``, splitting a failing batch in halves until each error has its point.

    One failing point among ``B`` costs at most ``2 ceil(log2 B) + 1``
    runs, batches and single runs together.
    """
    if len(points) == 1:
        return [_evaluate_point(model, solver, config, first, points[0])]
    try:
        return _batch_records(model, solver, config, points, first)
    except (MpcCertError, np.linalg.LinAlgError):
        half = len(points) // 2
        return _records(model, solver, config, points[:half], first) + _records(
            model, solver, config, points[half:], first + half
        )


def _evaluate_point(
    model: SystemModel,
    solver: FiniteHorizonSolver,
    config: AlgorithmConfig,
    index: int,
    x0: np.ndarray,
) -> PointRecord:
    """Record of one point run on its own, with its error if the run fails."""
    try:
        trace = run_closed_loop(model, solver, x0, config)
    except (MpcCertError, np.linalg.LinAlgError) as exc:
        nan = float("nan")
        return PointRecord(
            index=index,
            x0=tuple(float(v) for v in x0),
            status="error",
            startup_alpha=nan,
            min_onestep_alpha=nan,
            min_mstep_alpha=nan,
            alpha_cor3=nan,
            warning=False,
            error=str(exc),
        )
    return PointRecord(
        index=index,
        x0=tuple(float(v) for v in x0),
        status=trace.status,
        startup_alpha=trace.startup_onestep_alpha,
        min_onestep_alpha=trace.min_onestep_alpha,
        min_mstep_alpha=trace.min_window_alpha,
        alpha_cor3=trace.alpha_cor3,
        warning=trace.warning_count > 0,
    )


def sweep(
    model: SystemModel,
    solver: FiniteHorizonSolver,
    initial_set: InitialSet,
    config: AlgorithmConfig,
) -> SweepReport:
    """Run the configured closed loop from every point of the set.

    All points run as one lockstep batch (see :func:`run_batch`).
    Per-point failures are recorded, not raised: a batch that fails is
    split in halves and each half runs again, down to single points run
    through :func:`run_closed_loop`, so each error lands on its own
    point and every other record is the same as in the whole batch.
    """
    points = np.asarray(initial_set.points, dtype=float)
    records = _records(model, solver, config, points, 1)
    return SweepReport(set_name=initial_set.name, config=config, records=tuple(records))


def failure_set(report_a: SweepReport, report_b: SweepReport) -> tuple[tuple[int, ...], tuple[int, ...], bool]:
    """Compare the failure sets of two sweeps over the same initial set.

    Returns both index tuples and whether they coincide exactly.
    """
    fa = report_a.failure_indices()
    fb = report_b.failure_indices()
    return fa, fb, fa == fb


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
    """
    horizons = tuple(horizons)
    if not horizons:
        raise ConfigError("need at least one horizon to compare")
    rows = []
    for n in horizons:
        solver = LqLadderSolver(lq, n)
        apriori = sweep(
            solver.model,
            solver,
            initial_set,
            AlgorithmConfig(variant="alg1", horizon=n, alpha_bar=0.0),
        )
        posteriori = sweep(
            solver.model,
            solver,
            initial_set,
            AlgorithmConfig(variant="alg3", horizon=n, alpha_bar=alpha_bar, forced_m=1),
        )
        col_a = float(np.nanmin([r.min_mstep_alpha for r in apriori.records]))
        col_b = posteriori.alpha_cor3_min()
        rows.append((int(n), col_a, col_b))
    return rows


def value_drop_grid(
    solver: FiniteHorizonSolver,
    horizon: int,
    m: int,
    extent: float = 1.5,
    n: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """Map of the value drop after ``m`` applied steps on a square grid.

    Returns ``(axis, drops)`` where ``axis`` has ``n`` points spanning
    ``[-extent, extent]`` and ``drops[i, j]`` is the drop at the state
    ``(axis[i], axis[j])``.  Negative entries mark states where applying
    ``m`` steps of the plan increases the finite-horizon value.  The
    whole grid goes through the planner as one batch, see
    :meth:`FiniteHorizonSolver.rollout` and
    :meth:`FiniteHorizonSolver.values_of`.
    """
    if solver.lq.state_dim != 2:
        raise ConfigError(
            f"value_drop_grid needs a 2-state plant, got state_dim={solver.lq.state_dim}"
        )
    if horizon < 2:
        raise ConfigError(f"value_drop_grid needs horizon >= 2, got {horizon}")
    if not 1 <= m < horizon:
        raise ConfigError(f"m must lie in [1, {horizon - 1}], got {m}")
    axis = np.linspace(-extent, extent, n)
    states = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    after = solver.rollout(states, horizon, m)
    drops = solver.values_of(states, horizon) - solver.values_of(after, horizon)
    return axis, drops.reshape(n, n)


def write_sweep_csv(report: SweepReport, path) -> None:
    """One row per initial state, in index order."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_SWEEP_COLUMNS) + "\n")
        for r in report.records:
            fh.write(
                f"{r.index:d},{r.x0[0]:.17g},{r.x0[1]:.17g},"
                f"{r.min_onestep_alpha:.17g},{r.min_mstep_alpha:.17g},"
                f"{r.alpha_cor3:.17g},{int(r.warning):d},{r.status}\n"
            )


def write_horizon_csv(rows, path) -> None:
    """One row per horizon from :func:`horizon_comparison`."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(_HORIZON_COLUMNS) + "\n")
        for n, col_a, col_b in rows:
            fh.write(f"{n:d},{col_a:.17g},{col_b:.17g}\n")

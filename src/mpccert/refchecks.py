"""Bundled reference checks for the canonical two-state experiment.

Every check replays part of the shipped experiment suite and compares
the outcome against recorded reference figures.  The command-line front
end exposes them as the ``reproduce-paper`` subcommand; the acceptance
tests run the same functions.

One reference figure is known not to come out of the implemented
protocol: the worst whole-run realized degree over the 128-point circle
under single-step application (see ``grid-min-realized-degree``).  The
check reports the computed value and fails honestly rather than
adjusting either side; the note on the result records the discrepancy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import AlgorithmConfig, run_batch
from .errors import MpcCertError
from .model import LinearQuadraticInstance
from .riccati import FiniteHorizonSolver, LqLadderSolver
from .sweep import SweepReport, point_records, sweep, unit_circle, value_drop_grid

GRID_POINTS = 128


def reference_instance() -> LinearQuadraticInstance:
    """The two-state plant used by all bundled experiments."""
    return LinearQuadraticInstance(
        A=np.array([[1.0, 1.1], [-1.1, 1.0]]),
        B=np.array([[0.0], [1.0]]),
        Q=np.eye(2),
        R=np.array([[1.0]]),
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    note: str | None = None


def two_step_values(solver: FiniteHorizonSolver, x, horizon: int = 3):
    """Two-step degrees with the plan held versus re-planned after one step.

    Returns ``(v_held, alpha_held, v_replanned, alpha_replanned)`` where
    the ``v`` entries are the finite-horizon value at the state reached
    after two steps.  ``x`` is one state, giving floats, or a ``(B, n)``
    array of states, giving four ``(B,)`` arrays; the arithmetic on each
    row is the same.
    """
    X = np.asarray(x, dtype=float)
    sol = solver.plans(np.atleast_2d(X), horizon)
    v0 = sol.value
    v_held = solver.values_of(sol.trajectory[:, 2], horizon)
    cost_held = sol.stage_costs[:, 0] + sol.stage_costs[:, 1]
    alpha_held = (v0 - v_held) / cost_held

    sol2 = solver.plans(sol.trajectory[:, 1], horizon)
    v_replanned = solver.values_of(sol2.trajectory[:, 1], horizon)
    cost_replanned = sol.stage_costs[:, 0] + sol2.stage_costs[:, 0]
    alpha_replanned = (v0 - v_replanned) / cost_replanned
    out = (v_held, alpha_held, v_replanned, alpha_replanned)
    return out if X.ndim == 2 else tuple(float(v[0]) for v in out)


def _value_check(name, computed, expected, tol) -> CheckResult:
    return CheckResult(
        name=name,
        passed=abs(computed - expected) <= tol,
        detail=f"computed {computed:.9g}, expected {expected:.9g} within {tol:g}",
    )


def reference_checks(drop_grid_n: int = 41) -> list[CheckResult]:
    """Run the full bundle; returns one result per check."""
    lq = reference_instance()
    solver = LqLadderSolver(lq, 4)
    grid = unit_circle(GRID_POINTS)
    results: list[CheckResult] = []

    x_a = np.array([0.0, 1.0])
    x_b = np.array([1.0, 0.0])
    results.append(_value_check("value-at-(0,1)", solver.value_of(x_a, 3), 5.109994744, 1e-6))
    results.append(_value_check("value-at-(1,0)", solver.value_of(x_b, 3), 4.08117251, 1e-6))

    for label, x, expected in (
        ("(0,1)", x_a, (2.827656536, 0.5144, 2.83461176, 0.5136)),
        ("(1,0)", x_b, (1.22718283, 0.7470, 0.96290399, 0.7733)),
    ):
        v_held, a_held, v_repl, a_repl = two_step_values(solver, x)
        ok = (
            abs(v_held - expected[0]) <= 1e-6
            and abs(a_held - expected[1]) <= 5e-5
            and abs(v_repl - expected[2]) <= 1e-6
            and abs(a_repl - expected[3]) <= 5e-5
        )
        results.append(
            CheckResult(
                name=f"two-step-degrees-{label}",
                passed=ok,
                detail=(
                    f"held {v_held:.9g}/{a_held:.4f}, re-planned {v_repl:.9g}/{a_repl:.4f}; "
                    f"expected {expected[0]:.9g}/{expected[1]:.4f} and "
                    f"{expected[2]:.9g}/{expected[3]:.4f}"
                ),
            )
        )

    # One-step degree at startup over the circle, per planning horizon.
    startup = {}
    for n in (3, 4):
        plans = solver.plans(grid.points, n)
        v_next = solver.values_of(plans.trajectory[:, 1], n)
        startup[n] = (plans.value - v_next) / plans.stage_costs[:, 0]
    negative_n3 = int(np.sum(startup[3] < 0.0))
    negative_n4 = int(np.sum(startup[4] < 0.0))
    results.append(
        CheckResult(
            name="one-step-negative-set",
            passed=negative_n3 > 0 and negative_n4 == 0,
            detail=(
                f"horizon 3: {negative_n3} of {GRID_POINTS} points negative "
                f"(min {startup[3].min():.6g}); horizon 4: {negative_n4} negative "
                f"(min {startup[4].min():.6g})"
            ),
        )
    )

    two_step = two_step_values(solver, grid.points)[1]
    results.append(
        CheckResult(
            name="two-step-positive-everywhere",
            passed=bool(np.all(two_step > 0.0)),
            detail=f"min two-step degree over the circle {two_step.min():.6g}",
        )
    )

    # The three closed-loop experiments at horizon 3 run as one lockstep
    # batch, one block of circle points per configuration.
    zero_cfg = AlgorithmConfig(variant="alg2", horizon=3, alpha_bar=0.0)
    alg1_cfg = AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=0.01)
    watchdog_cfg = AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.01, forced_m=1)
    configs = (zero_cfg, alg1_cfg, watchdog_cfg)
    try:
        batch = run_batch(
            solver,
            np.tile(grid.points, (len(configs), 1)),
            [config for config in configs for _ in grid.points],
        )
        zero, alg1, watchdog = (
            batch.select(slice(k * GRID_POINTS, (k + 1) * GRID_POINTS)) for k in range(len(configs))
        )
        alg1_report, watchdog_report = (
            SweepReport(grid.name, cfg, tuple(point_records(block, grid.points)))
            for cfg, block in ((alg1_cfg, alg1), (watchdog_cfg, watchdog))
        )
    except (MpcCertError, np.linalg.LinAlgError):
        # As in a sweep, a failing point costs only its own record in the
        # two threshold experiments; the zero-threshold check counts whole
        # runs and lets its error through.
        zero = run_batch(solver, grid.points, zero_cfg)
        alg1_report, watchdog_report = (sweep(solver, grid, cfg) for cfg in (alg1_cfg, watchdog_cfg))

    # Re-planning variant at zero threshold: single-step schedules and
    # convergence everywhere.  Every interval spans at least one step, so
    # a run has only single-step intervals when it has as many intervals
    # as applied steps.
    all_ones = int(np.sum((zero.intervals > 0) & (zero.intervals == zero.applied_steps)))
    converged = zero.status.count("converged")
    results.append(
        CheckResult(
            name="zero-threshold-standard-mpc",
            passed=all_ones == GRID_POINTS and converged == GRID_POINTS,
            detail=(
                f"{all_ones}/{GRID_POINTS} single-step schedules, "
                f"{converged}/{GRID_POINTS} converged"
            ),
        )
    )

    failures = alg1_report.failure_indices()
    results.append(
        CheckResult(
            name="startup-failure-set",
            passed=len(failures) > 0,
            detail=f"{len(failures)} of {GRID_POINTS} points below threshold 0.01 at startup",
        )
    )

    cor3_min = watchdog_report.alpha_cor3_min()
    results.append(
        CheckResult(
            name="grid-min-realized-degree",
            passed=abs(cor3_min - 0.52307) <= 1e-3,
            detail=f"computed {cor3_min:.6g}, reference 0.52307 within 0.001",
            note=(
                "The implemented protocol (worst whole-run value-drop/cost "
                "quotient over the 128-point circle, single-step application, "
                "horizon 3) gives 0.666827.  It agrees to 1e-15 relative at "
                "every circle point with the closed form x0'P_3 x0 / x0'S x0 "
                "for the loop x+ = (A - B K_3) x, S its cost matrix.  The "
                "dynamic-programming first gain would give 0.530168, but it "
                "contradicts the two-step reference values.  No evaluated "
                "protocol reproduces the recorded 0.52307; the check fails "
                "honestly instead of fitting the figure."
            ),
        )
    )

    fa = alg1_report.failure_indices()
    fb = watchdog_report.failure_indices()
    same = fa == fb
    results.append(
        CheckResult(
            name="warning-set-coincidence",
            passed=same and len(fa) > 0,
            detail=(
                f"startup failure set has {len(fa)} points, warning set {len(fb)}; "
                f"{'identical' if same else 'different'}"
            ),
        )
    )

    _, drops_one = value_drop_grid(solver, 3, 1, n=drop_grid_n)
    _, drops_two = value_drop_grid(solver, 3, 2, n=drop_grid_n)
    increase_one = int(np.sum(drops_one < 0.0))
    increase_two = int(np.sum(drops_two < 0.0))
    results.append(
        CheckResult(
            name="value-drop-sign-pattern",
            passed=increase_one > 0 and increase_two == 0,
            detail=(
                f"single step: value increases at {increase_one} of {drop_grid_n * drop_grid_n} "
                f"grid states; two steps: {increase_two} (min drop {drops_two.min():.6g})"
            ),
        )
    )

    return results


def format_results(results) -> str:
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] {r.name}: {r.detail}")
        if r.note:
            lines.append(f"       note: {r.note}")
    passed = sum(r.passed for r in results)
    lines.append(f"{passed} of {len(results)} reference checks passed")
    return "\n".join(lines)

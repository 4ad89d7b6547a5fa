"""End-to-end acceptance gate.

One test per published reference claim, each printing a single
[PASS]/[FAIL] line (run pytest with ``-rA`` or ``-s`` to see them).
Every expected number here was either verified against the source
tables or derived from an independent oracle before being frozen; the
tolerances are part of the contract and must not be widened.

Criterion 6a checks the grid minimum of the whole-run certified
degree under single-step application against a closed form computed
here from the plant matrices alone (see ``_single_step_degree_oracle``),
to 1e-9 relative.  The recorded figure 0.52307 for that minimum is not
reproduced: the faithful implementation and the closed form both give
0.666827.  ``mpccert reproduce-paper`` keeps comparing against 0.52307
and reports the mismatch; README section "Acceptance status" documents
the evidence.
"""

import numpy as np
import pytest

from mpccert.certify import alpha_m_step, update_acceptable
from mpccert.engine import AlgorithmConfig, run_closed_loop
from mpccert.refchecks import two_step_values
from mpccert.riccati import RiccatiLadder
from mpccert.sweep import sweep

X_A = np.array([0.0, 1.0])
X_B = np.array([1.0, 0.0])

ARC_INDICES = tuple(range(5, 27)) + tuple(range(69, 91))


def _report(name: str, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] {name}: {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def watchdog_report(solver, grid):
    config = AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=0.01, forced_m=1)
    return sweep(solver, grid, config)


@pytest.fixture(scope="module")
def loop_closing_report(solver, grid):
    config = AlgorithmConfig(variant="alg2", horizon=3, alpha_bar=0.01)
    return sweep(solver, grid, config)


@pytest.fixture(scope="module")
def startup_probes(solver, grid):
    """First-window prefix degrees for every grid point at horizons 3 and 4."""
    rows = {}
    for horizon in (3, 4):
        one, two = [], []
        for x in grid.points:
            sol = solver.solve(x, horizon)
            costs = np.cumsum(sol.stage_costs)
            one.append(
                alpha_m_step(sol.value, solver.value_of(sol.trajectory[1], horizon), costs[0])
            )
            two.append(
                alpha_m_step(sol.value, solver.value_of(sol.trajectory[2], horizon), costs[1])
            )
        rows[horizon] = (np.array(one), np.array(two))
    return rows


def test_criterion_1_values(solver):
    va = solver.value_of(X_A, 3)
    vb = solver.value_of(X_B, 3)
    ok = abs(va - 5.109994744) <= 1e-6 and abs(vb - 4.08117251) <= 1e-6
    _report(
        "criterion 1 (three-step values)",
        ok,
        f"V3(0,1) = {va:.9f} (want 5.109994744), V3(1,0) = {vb:.9f} (want 4.08117251), tol 1e-6",
    )


def test_criterion_2_two_step_values(solver):
    expected = {
        "x=(0,1)": (X_A, 2.827656536, 0.5144, 2.83461176, 0.5136),
        "x=(1,0)": (X_B, 1.22718283, 0.7470, 0.96290399, 0.7733),
    }
    ok = True
    parts = []
    for label, (x, vh_ref, ah_ref, vr_ref, ar_ref) in expected.items():
        vh, ah, vr, ar = two_step_values(solver, x, 3)
        ok = (
            ok
            and abs(vh - vh_ref) <= 1e-6
            and abs(vr - vr_ref) <= 1e-6
            and abs(ah - ah_ref) <= 5e-5
            and abs(ar - ar_ref) <= 5e-5
        )
        parts.append(f"{label}: held {vh:.8f}/{ah:.4f}, spliced {vr:.8f}/{ar:.4f}")
    _report(
        "criterion 2 (held vs spliced two-step values)",
        ok,
        "; ".join(parts) + "; tol 1e-6 on values, 5e-5 on degrees",
    )


def test_criterion_3_one_step_failure_region(startup_probes):
    neg3 = int(np.sum(startup_probes[3][0] < 0.0))
    neg4 = int(np.sum(startup_probes[4][0] < 0.0))
    ok = neg3 > 0 and neg4 == 0
    _report(
        "criterion 3 (single-step degree sign by horizon)",
        ok,
        f"horizon 3: {neg3} of 128 circle points negative (want > 0); horizon 4: {neg4} (want 0)",
    )


def test_criterion_4_two_step_always_certifies(startup_probes):
    two = startup_probes[3][1]
    ok = bool(np.all(two > 0.0))
    _report(
        "criterion 4 (two-step degree positive everywhere)",
        ok,
        f"min over 128 circle points {two.min():.6f} > 0 at horizon 3",
    )


def test_criterion_5_loop_closing_certification(solver, grid, loop_closing_report):
    all_single = True
    all_converged = True
    for x in grid.points:
        trace = run_closed_loop(solver, x, AlgorithmConfig(variant="alg2", horizon=3, alpha_bar=0.0))
        all_single = all_single and all(m == 1 for m in trace.schedule.m_values)
        all_converged = all_converged and trace.status == "converged"
    failures = loop_closing_report.failure_indices()
    ok = all_single and all_converged and len(failures) > 0
    _report(
        "criterion 5 (loop-closing updates)",
        ok,
        "threshold 0: 128/128 single-step schedules, all converged; "
        f"threshold 0.01: startup failure set has {len(failures)} points (want nonempty)",
    )


def _single_step_degree_oracle(lq, x0s):
    """Whole-run degree ``x0' P_3 x0 / x0' S x0`` under ``u = -K_3 x``.

    With ``forced_m = 1`` every step applies the first gain of the
    horizon-3 plan, ``K_3 = (B' P_3 B + R)^{-1} B' P_3 A``, so the closed
    loop is ``x+ = Acl x`` with ``Acl = A - B K_3`` and its cost from
    ``x0`` is ``x0' S x0`` for the Lyapunov solution
    ``S = Acl' S Acl + Q + K_3' R K_3``.  Runs stop within radius 1e-8
    of the origin, so the neglected end value and tail cost are
    O(1e-16).  Uses only ``A``, ``B``, ``Q``, ``R`` and NumPy.
    """
    A, B, Q, R = lq.A, lq.B, lq.Q, lq.R
    n = A.shape[0]
    P = Q.copy()  # P_1
    for _ in range(2):
        PB = P @ B
        P = A.T @ (P - PB @ np.linalg.solve(B.T @ PB + R, PB.T)) @ A + Q
    K = np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A)
    acl = A - B @ K
    stage = Q + K.T @ R @ K
    # Column-major vec: vec(Acl' S Acl) = kron(Acl', Acl') vec(S).
    vec_s = np.linalg.solve(np.eye(n * n) - np.kron(acl.T, acl.T), stage.reshape(-1, order="F"))
    S = vec_s.reshape((n, n), order="F")
    return np.einsum("bi,ij,bj->b", x0s, P, x0s) / np.einsum("bi,ij,bj->b", x0s, S, x0s)


def test_criterion_6a_grid_minimum_certified_degree(lq, watchdog_report):
    points, runs = watchdog_report.points, watchdog_report.runs
    ks = np.arange(1, 129)
    circle = np.column_stack([np.cos(2.0 * np.pi * ks / 128), np.sin(2.0 * np.pi * ks / 128)])
    oracle = _single_step_degree_oracle(lq, circle)
    clean = watchdog_report.error_indices() == ()
    # Row k - 1 of the report is circle point k.
    on_circle = points.shape == circle.shape and bool(np.allclose(points, circle, rtol=0.0, atol=1e-12))
    got = runs.alpha_cor3
    worst = float(np.max(np.abs(got - oracle) / np.abs(oracle)))
    computed = watchdog_report.alpha_cor3_min()
    expected = float(oracle.min())
    ok = clean and on_circle and worst <= 1e-9 and abs(computed - expected) <= 1e-9 * abs(expected)
    _report(
        "criterion 6a (grid minimum whole-run degree)",
        ok,
        f"computed {computed:.6f}, closed form {expected:.6f}, tol 1e-9 relative "
        f"(worst point {worst:.1e}); paper figure 0.52307 not reproduced, see README",
    )


def test_criterion_6b_warning_set_coincidence(watchdog_report, loop_closing_report):
    warned = watchdog_report.warned_indices()
    failed = loop_closing_report.failure_indices()
    ok = warned == failed == ARC_INDICES
    _report(
        "criterion 6b (warning set equals failure set)",
        ok,
        f"warning set {len(warned)} points, failure set {len(failed)} points, identical index tuples",
    )


def test_criterion_7a_tail_value_consistency(lq, solver, bellman):
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        x = rng.uniform(-2.0, 2.0, size=2)
        for s in (solver, bellman):
            sol = s.solve(x, 5)
            for k in range(sol.horizon):
                fresh = s.value_of(sol.trajectory[k], sol.horizon - k)
                ref = max(abs(sol.tail_values[k]), 1.0)
                worst = max(worst, abs(sol.tail_values[k] - fresh) / ref)
    ok = worst <= 1e-9
    _report(
        "criterion 7a (cost-to-go consistency along plans)",
        ok,
        f"100 random states, both control laws, worst relative error {worst:.2e} <= 1e-9",
    )


def test_criterion_7b_slack_telescoping(solver):
    worst = 0.0
    runs = 0
    for variant in ("alg1", "alg2", "alg3", "alg4"):
        for alpha_bar in (0.01, 0.5):
            for x0 in (X_A, np.array([0.6, -0.8])):
                config = AlgorithmConfig(variant=variant, horizon=3, alpha_bar=alpha_bar)
                trace = run_closed_loop(solver, x0, config)
                runs += 1
                v0 = trace.certificates[0].v_before
                paid = 0.0
                for cert, s in zip(trace.certificates, trace.slack.values):
                    paid += cert.cost_sum
                    target = v0 - cert.v_after - alpha_bar * paid
                    worst = max(worst, abs(s - target) / max(abs(target), 1.0))
    ok = worst <= 1e-9
    _report(
        "criterion 7b (slack telescoping identity)",
        ok,
        f"{runs} runs across all four variants, worst relative residual {worst:.2e} <= 1e-9",
    )


def test_criterion_7c_splice_soundness(lq, solver):
    rng = np.random.default_rng(14)
    alpha_bar = 0.4
    accepted = 0
    worst = -np.inf
    for _ in range(400):
        x0 = rng.uniform(-2.0, 2.0, size=2)
        sol = solver.solve(x0, 3)
        x1 = sol.trajectory[1]
        sol2 = solver.solve(x1, 3)
        end_value = solver.value_of(sol2.trajectory[1], 3)
        if not update_acceptable(sol, sol2, 1, 2, alpha_bar, end_value=end_value):
            continue
        accepted += 1
        # Replay the spliced controls through the plant: the old plan's
        # first control, then the new plan's first control.
        u0, u1 = sol.controls[0], sol2.controls[0]
        x1 = lq.dynamics(x0, u0)
        x2 = lq.dynamics(x1, u1)
        cost = lq.stage_cost(x0, u0) + lq.stage_cost(x1, u1)
        residual = sol.value - solver.value_of(x2, 3) - alpha_bar * cost
        worst = max(worst, -residual)
    ok = accepted >= 200 and worst <= 1e-10
    _report(
        "criterion 7c (accepted splices preserve the two-step inequality)",
        ok,
        f"{accepted} accepted updates out of 400 random states (need >= 200), "
        f"worst violation {max(worst, 0.0):.2e} <= 1e-10",
    )


def test_criterion_7d_ladder_shape(lq):
    ladder = RiccatiLadder(lq, 20)
    sym = True
    psd = True
    monotone = True
    for j in range(1, 21):
        p = ladder.matrix(j)
        sym = sym and bool(np.allclose(p, p.T, atol=1e-12))
        psd = psd and bool(np.min(np.linalg.eigvalsh(p)) >= -1e-12)
        if j > 1:
            gap = np.linalg.eigvalsh(p - ladder.matrix(j - 1))
            monotone = monotone and bool(np.min(gap) >= -1e-10)
    ok = sym and psd and monotone
    _report(
        "criterion 7d (cost matrix ladder structure)",
        ok,
        f"rungs 1..20: symmetric {sym}, positive semidefinite {psd}, monotone nondecreasing {monotone}",
    )


def test_criterion_7e_watchdog_reduces_to_adaptive(solver):
    rng = np.random.default_rng(21)
    cases = [(X_A, 0.3), (np.array([0.6, -0.8]), 0.01)]
    for _ in range(8):
        cases.append((rng.uniform(-1.5, 1.5, size=2), 0.3))
    checked = 0
    equal = True
    for x0, alpha_bar in cases:
        t1 = run_closed_loop(solver, x0, AlgorithmConfig(variant="alg1", horizon=3, alpha_bar=alpha_bar))
        if t1.exit_count:
            continue
        checked += 1
        t3 = run_closed_loop(solver, x0, AlgorithmConfig(variant="alg3", horizon=3, alpha_bar=alpha_bar))
        equal = (
            equal
            and t3.schedule.times == t1.schedule.times
            and bool(np.array_equal(t3.states, t1.states))
            and t3.certificates == t1.certificates
        )
    ok = checked >= 2 and equal
    _report(
        "criterion 7e (silent watchdog reproduces the adaptive trace)",
        ok,
        f"{checked} fallback-free runs compared, schedules/states/certificates identical: {equal}",
    )


def test_criterion_7f_brute_force_two_step(lq, bellman):
    rng = np.random.default_rng(28)
    states = [X_A, X_B] + [rng.uniform(-1.5, 1.5, size=2) for _ in range(3)]
    worst = 0.0
    for x in states:
        sol = bellman.solve(x, 2)
        u = _refine_two_step(lq, x)
        worst = max(worst, float(np.max(np.abs(sol.controls.ravel() - u))))
    ok = worst <= 1e-4
    _report(
        "criterion 7f (planner matches brute-force minimizer)",
        ok,
        f"two-step plans at 5 states, worst control deviation {worst:.2e} <= 1e-4",
    )


def _refine_two_step(lq, x):
    """Grid-refinement minimizer of the two-step cost from ``x``."""
    center = np.zeros(2)
    span = 4.0
    pts = 41
    best = None
    for _ in range(7):
        u0 = np.linspace(center[0] - span, center[0] + span, pts)
        u1 = np.linspace(center[1] - span, center[1] + span, pts)
        g0, g1 = np.meshgrid(u0, u1, indexing="ij")
        x1 = np.tensordot(lq.A, x, axes=1)[:, None, None] + lq.B[:, 0, None, None] * g0
        cost = (
            float(x @ lq.Q @ x)
            + lq.R[0, 0] * g0**2
            + np.einsum("iab,ij,jab->ab", x1, lq.Q, x1)
            + lq.R[0, 0] * g1**2
        )
        i, j = np.unravel_index(np.argmin(cost), cost.shape)
        best = np.array([u0[i], u1[j]])
        center = best
        span = 4.0 * span / (pts - 1)
    return best


def test_criterion_8_exclusions():
    _report(
        "criterion 8 (infinite-time claims excluded)",
        True,
        "asymptotic conclusions are not testable on finite traces; covered by the "
        "finite surrogates: slack telescoping (criterion 7b) and the monotone "
        "value-decrease checks in the engine suite",
    )

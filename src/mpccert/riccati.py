"""Exact finite-horizon solvers for linear-quadratic plants.

The value of the ``N``-step problem without terminal weight is the
quadratic form ``x' P_N x``, where ``P_1 = Q`` and

    P_{j+1} = A'[P_j - P_j B (B' P_j B + R)^{-1} B' P_j] A + Q.

Two open-loop control laws are provided on top of the same ladder:

* :class:`LqLadderSolver` applies the descending-gain law: step ``k``
  of an ``N``-step plan uses the gain built from ``P_{N-k}``, and the
  final step applies zero control.
* :class:`LqBellmanSolver` applies the dynamic-programming minimiser:
  step ``k`` uses the gain built from ``P_{N-k-1}`` with ``P_0 = 0``.

Both report ``value = x' P_N x``.  The Bellman plan attains that value
exactly; the descending-gain plan is the law the closed-loop scheduler
applies, and its realized open-loop cost can exceed the value.

A solver builds one plan operator per horizon on the first request at
that horizon and keeps it: the matrices ``[-K; A]`` of every step, the
law's negated gain on top of ``A``, and the tail matrices ``P_N, ...,
P_1``.  Every step of every plan goes through one product with a
``[-K; A]``, which gives ``u = -K x`` and ``A x`` at once, plus the
plant's ``B u``.  :meth:`FiniteHorizonSolver.plan_step` takes one such
step of a ``(B, n)`` batch of states at one horizon, with the stage cost
and the value ``x_{k+1}' P_N x_{k+1}`` at the step's end;
:meth:`FiniteHorizonSolver.rollout` takes the same steps and keeps only
the states.  A :class:`PlanWalk` holds the plans of a batch and extends
them one step at a time through ``plan_step``, by as many steps as its
caller reads; rows may sit at different horizons, and each goes through
its own horizon's operator.  :meth:`FiniteHorizonSolver.plans` walks a
batch through whole plans at one horizon and
:meth:`FiniteHorizonSolver.solve` is its one-row case.
:meth:`FiniteHorizonSolver.values_of` evaluates ``x' P_N x`` on a
``(B, n)`` batch, at one horizon or one per row, and
:func:`value_drop_grid` maps the value drop after ``m`` applied steps
over a square grid of states with one ``rollout`` and two ``values_of``
calls.
Every product goes through the elementwise row kernel of
:mod:`mpccert.model` (:func:`~mpccert.model.matvec` and
:func:`~mpccert.model.quad_form`) on whole ``(B, n)`` arrays, and a
row's arithmetic does not depend on the batch around it.  So a batched
result equals the corresponding single-state result bit for bit, and a
plan's states are exactly what the plant's
:meth:`~mpccert.model.LinearQuadraticInstance.dynamics` gives when it
replays the plan's controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .model import LinearQuadraticInstance, matvec, quad_form


@dataclass(frozen=True)
class OpenLoopSolution:
    """An open-loop plan over a finite horizon.

    :meth:`FiniteHorizonSolver.plans` returns the same record for a
    batch of plans: every array below gains a leading batch axis and
    ``value`` is an array with one entry per plan.

    Attributes
    ----------
    horizon : int
        Number of control steps ``N``.
    controls : ndarray, shape (N, control_dim)
    trajectory : ndarray, shape (N + 1, state_dim)
        Predicted states, starting at the query state.
    stage_costs : ndarray, shape (N,)
        Realized stage cost along the plan.
    value : float
        ``x' P_N x`` at the query state.
    tail_values : ndarray, shape (N,)
        ``tail_values[k]`` is the value of the ``(N - k)``-step problem
        at ``trajectory[k]``.
    """

    horizon: int
    controls: np.ndarray
    trajectory: np.ndarray
    stage_costs: np.ndarray
    value: float
    tail_values: np.ndarray

    @property
    def realized_cost(self) -> float:
        return float(np.sum(self.stage_costs))


class RiccatiLadder:
    """The matrices ``P_0, P_1, ..., P_N`` of the value recursion.

    ``P_0`` is the zero matrix, ``P_1 = Q``.  Appending a rung ``P_j``
    solves ``B' P_j B + R`` once, against ``[B' P_j | B' P_j A]``: the
    first block gives the correction that builds ``P_{j+1}``, the second
    the feedback gain ``K_j = (B' P_j B + R)^{-1} B' P_j A``.
    """

    def __init__(self, lq: LinearQuadraticInstance, horizon: int):
        if horizon < 1:
            raise ConfigError(f"horizon must be at least 1, got {horizon}")
        self.lq = lq
        n = lq.state_dim
        self._matrices: list[np.ndarray] = []
        self._gains: list[np.ndarray] = []
        self._append(np.zeros((n, n)))
        self._append(lq.Q.copy())
        self.extend(horizon)

    @property
    def horizon(self) -> int:
        return len(self._matrices) - 1

    def _append(self, P: np.ndarray) -> None:
        """Add ``P`` as the next rung, with its gain and the reduced matrix for the rung after."""
        A, B, n = self.lq.A, self.lq.B, self.lq.state_dim
        PB = P @ B
        try:
            Y = np.linalg.solve(B.T @ PB + self.lq.R, np.hstack([PB.T, PB.T @ A]))
        except np.linalg.LinAlgError as exc:
            raise SolverError(
                f"singular control weight at ladder step {len(self._matrices)}"
            ) from exc
        self._matrices.append(P)
        self._gains.append(Y[:, n:])
        self._reduced = P - PB @ Y[:, :n]

    def extend(self, horizon: int) -> None:
        """Grow the ladder so that ``matrix(horizon)`` is available."""
        A, Q = self.lq.A, self.lq.Q
        while self.horizon < horizon:
            nxt = A.T @ self._reduced @ A + Q
            # Symmetrise to keep round-off from drifting over long ladders.
            self._append(0.5 * (nxt + nxt.T))

    def matrix(self, j: int) -> np.ndarray:
        """Return ``P_j`` for ``0 <= j <= horizon``."""
        if j < 0 or j > self.horizon:
            raise ConfigError(f"ladder index {j} outside [0, {self.horizon}]")
        return self._matrices[j]

    def gain(self, j: int) -> np.ndarray:
        """Return ``K_j`` for ``0 <= j <= horizon``; ``K_0`` is the zero gain."""
        self.matrix(j)
        return self._gains[j]

    def value(self, x, j: int):
        """Return ``x' P_j x``, row-wise when ``x`` stacks several states."""
        return quad_form(self.matrix(j), np.asarray(x, dtype=float))

    def matrices(self) -> list[np.ndarray]:
        """Return ``[P_1, ..., P_N]``."""
        return list(self._matrices[1:])


def riccati_fixed_point(lq: LinearQuadraticInstance) -> np.ndarray:
    """Iterate the ladder until it stops moving; the infinite-horizon limit.

    The ladder has settled once no entry of ``P_{j+1} - P_j`` exceeds
    1e-12 in magnitude; 10,000 steps without that raise ``SolverError``.
    """
    ladder = RiccatiLadder(lq, 1)
    for j in range(1, 10000):
        ladder.extend(j + 1)
        if np.max(np.abs(ladder.matrix(j + 1) - ladder.matrix(j))) <= 1e-12:
            return ladder.matrix(j + 1)
    raise SolverError("value recursion did not settle in 10000 steps")


class FiniteHorizonSolver:
    """Shared machinery for the two linear-quadratic planners.

    Instances keep one growing :class:`RiccatiLadder` and reuse it for
    every horizon up to the largest seen so far, plus one cached plan
    operator per horizon requested.
    """

    def __init__(self, lq: LinearQuadraticInstance, horizon: int = 1):
        self.lq = lq
        self.ladder = RiccatiLadder(lq, horizon)
        self._operators: dict[int, tuple[np.ndarray, ...]] = {}

    def _states(self, x, ndim: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        n = self.lq.state_dim
        if x.ndim != ndim or x.shape[-1] != n:
            want = f"({n},)" if ndim == 1 else f"(B, {n})"
            raise ConfigError(f"state must have shape {want}, got {x.shape}")
        return x

    def _values(self, x: np.ndarray, horizon: int):
        if horizon < 0:
            raise ConfigError(f"horizon must be nonnegative, got {horizon}")
        self.ladder.extend(max(horizon, 1))
        return self.ladder.value(x, horizon)

    def value_of(self, x, horizon: int) -> float:
        """Value of the ``horizon``-step problem at ``x``, no plan built."""
        return float(self._values(self._states(x, 1), horizon))

    def values_of(self, X, horizon) -> np.ndarray:
        """:meth:`value_of` at every row of the ``(B, n)`` array ``X``.

        ``horizon`` is one horizon for all rows or a ``(B,)`` array of them.
        """
        X = self._states(X, 2)
        out = np.empty(len(X))
        for N, rows in _horizon_groups(horizon, len(X)):
            out[rows] = self._values(X[rows], N)
        return out

    def _gain_index(self, horizon: int, k: int) -> int:
        raise NotImplementedError

    def _operator(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """``([-K_{g(N, k)}; A], P_{N-k})`` stacked over ``k < N``, built once per ``N``.

        Each step's negated gain sits on top of ``A``, so that one product
        gives both ``u_k`` and ``A x_k``.
        """
        op = self._operators.get(horizon)
        if op is None:
            if horizon < 1:
                raise ConfigError(f"horizon must be at least 1, got {horizon}")
            ladder, A = self.ladder, self.lq.A
            ladder.extend(horizon)
            steps = range(horizon)
            gains_a = np.stack([np.vstack([-ladder.gain(self._gain_index(horizon, k)), A]) for k in steps])
            tails = np.stack([ladder.matrix(horizon - k) for k in steps])
            op = self._operators[horizon] = (gains_a, tails)
        return op

    def _next_state(self, gain_a: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One plan step from the ``(B, n)`` states ``X`` through ``[-K; A]``; returns ``(u, x_next)``.

        The product gives ``u`` and ``A x`` with the operations of
        ``matvec``; ``+ B u`` is the sum ``dynamics`` forms.
        """
        u_ax = matvec(gain_a, X)
        c = self.lq.control_dim
        u = u_ax[:, :c]
        return u, u_ax[:, c:] + matvec(self.lq.B, u)

    def plan_step(self, X, horizon: int, k: int) -> tuple[np.ndarray, ...]:
        """Step ``k`` of the ``horizon``-step plans at the ``(B, n)`` states ``X``.

        Returns ``x_{k+1}``, ``u_k``, the stage cost and ``x_{k+1}' P_N
        x_{k+1}`` (the bits of :meth:`values_of`).
        """
        gains_a, tails = self._operator(horizon)
        u, x_next = self._next_state(gains_a[k], X)
        return x_next, u, self.lq.stage_cost(X, u), quad_form(tails[0], x_next)

    def plans(self, X, horizon: int) -> OpenLoopSolution:
        """Open-loop plans of the given length from every row of the ``(B, n)`` array ``X``.

        Every array field of the result gains a leading batch axis, and
        ``value`` is the ``(B,)`` array of ``x' P_N x``.
        """
        X = self._states(X, 2)
        if np.ndim(horizon):
            raise ConfigError(f"plans takes one horizon for all rows, got shape {np.shape(horizon)}")
        horizon = int(horizon)
        tails = self._operator(horizon)[1]
        walk = PlanWalk(self, X, horizon, horizon)
        walk.advance_to(horizon)
        tail_values = quad_form(tails, walk.trajectory[:, :horizon])
        return OpenLoopSolution(horizon, walk.controls, walk.trajectory, walk.stage_costs, walk.value, tail_values)

    def solve(self, x, horizon: int) -> OpenLoopSolution:
        """Build the open-loop plan of the given length from ``x``; :meth:`plans` with one row."""
        plan = self.plans(self._states(x, 1)[None], horizon)
        return OpenLoopSolution(
            horizon=plan.horizon,
            controls=plan.controls[0],
            trajectory=plan.trajectory[0],
            stage_costs=plan.stage_costs[0],
            value=float(plan.value[0]),
            tail_values=plan.tail_values[0],
        )

    def rollout(self, X, horizon: int, steps: int) -> np.ndarray:
        """States after ``steps`` steps of the ``horizon``-step plan from each row of ``X``.

        Row ``i`` equals ``solve(X[i], horizon).trajectory[steps]``; no
        plans, costs or values are stored.
        """
        gains_a = self._operator(horizon)[0]
        if not 0 <= steps <= horizon:
            raise ConfigError(f"steps must lie in [0, {horizon}], got {steps}")
        x = self._states(X, 2)
        for gain_a in gains_a[:steps]:
            # Drop u at once: it is a view that keeps the step's product
            # alive, which on large batches costs the next step fresh pages.
            x = self._next_state(gain_a, x)[1]
        return np.array(x)


class LqLadderSolver(FiniteHorizonSolver):
    """Planner using the descending-gain law.

    Step ``k`` of an ``N``-step plan applies ``u = -K_{N-k} x``; the
    last step applies zero control (the index reaches ``K_1``-territory
    but the law switches off instead).  This is the law the closed-loop
    scheduler commits to.
    """

    def _gain_index(self, horizon: int, k: int) -> int:
        if k == horizon - 1:
            return 0  # zero gain: no control on the final step
        return horizon - k


class LqBellmanSolver(FiniteHorizonSolver):
    """Planner using the dynamic-programming minimiser.

    Step ``k`` applies ``u = -K_{N-k-1} x`` with ``K_0 = 0``.  The plan
    attains ``value`` exactly, which makes this solver the reference
    for optimality cross-checks.
    """

    def _gain_index(self, horizon: int, k: int) -> int:
        return horizon - k - 1


class PlanWalk:
    """The plans of a ``(B, n)`` batch of states at one or per-row horizons, built step by step.

    :meth:`advance` builds step ``k = steps`` through
    :meth:`FiniteHorizonSolver.plan_step`, once per horizon group, up to
    ``width`` steps.  Column ``k`` of ``controls``, ``stage_costs``,
    ``ends`` (``x_{k+1}' P_N x_{k+1}``) and ``prefix_costs`` (the bits of
    ``np.cumsum`` of the stage costs), and ``trajectory[:, k + 1]``, hold
    step ``k`` of the rows it reached.  ``value`` is ``x_0' P_N x_0``,
    computed unless the caller has those bits.  :meth:`restart` reuses
    the arrays without zeroing, so a column past a row's walked steps
    holds zero or an earlier walk's value (finite, nonnegative); a reader
    of whole columns must discard those rows, as the engine's
    ``deciding`` mask and ``[:w]`` trace slices do.  ``buffers`` from
    :meth:`allocate` may have more rows than ``X``; the walk uses the
    first ``len(X)``, so a caller can keep one set while its batch shrinks.
    """

    def __init__(self, solver: FiniteHorizonSolver, X: np.ndarray, horizon, width: int, value=None, buffers=None):
        rows, n, c = len(X), solver.lq.state_dim, solver.lq.control_dim
        self.solver, self.width, self.horizon = solver, width, horizon
        self.groups = _horizon_groups(horizon, rows)
        trajectory, controls, columns = buffers or self.allocate(rows, width, n, c)
        self.trajectory, self.controls = trajectory[:rows], controls[:rows]
        self.stage_costs, self.ends, self.prefix_costs = columns[..., :rows].transpose(0, 2, 1)
        self.restart(X, value)

    @staticmethod
    def allocate(rows: int, width: int, n: int, c: int) -> tuple[np.ndarray, ...]:
        """Zeroed trajectory, controls and ``(3, width, rows)`` columns, row axis innermost."""
        return np.zeros((rows, width + 1, n)), np.zeros((rows, width, c)), np.zeros((3, width, rows))

    def restart(self, X: np.ndarray, value=None) -> None:
        """Start the walk afresh from the states ``X``, valued ``value`` when given."""
        self.steps, self.value = 0, self.solver.values_of(X, self.horizon) if value is None else value
        self.trajectory[:, 0] = X

    def advance(self, rows: np.ndarray | None = None) -> None:
        """Build the next step of the rows in the boolean mask ``rows`` (every row when ``None``).

        A walk at one horizon steps every row, which costs no more than a
        subset; a walk at mixed horizons steps the masked rows only.
        """
        k = self.steps
        mixed = len(self.groups) > 1 and rows is not None
        for N, at in self.groups:
            if mixed:
                at = at[rows[at]]
                if not at.size:
                    continue
            x_next, u, cost, end = self.solver.plan_step(self.trajectory[at, k], N, k)
            self.trajectory[at, k + 1] = x_next
            self.controls[at, k] = u
            self.stage_costs[at, k] = cost
            self.ends[at, k] = end
            self.prefix_costs[at, k] = cost if k == 0 else self.prefix_costs[at, k - 1] + cost
        self.steps = k + 1

    def advance_to(self, steps) -> None:
        """Walk on until row ``i`` has ``steps[i]`` steps (one count for all rows, or one per row)."""
        steps = np.broadcast_to(steps, self.value.shape)
        while self.steps < steps.max(initial=0):
            self.advance(steps > self.steps)


def value_drop_grid(
    solver: FiniteHorizonSolver,
    horizon: int,
    m: int,
    n: int = 101,
) -> tuple[np.ndarray, np.ndarray]:
    """Map of the value drop after ``m`` applied steps on a square grid.

    Returns ``(axis, drops)`` where ``axis`` has ``n`` points spanning
    ``[-1.5, 1.5]`` and ``drops[i, j]`` is the drop at the state
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
    axis = np.linspace(-1.5, 1.5, n)
    states = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    after = solver.rollout(states, horizon, m)
    drops = solver.values_of(states, horizon) - solver.values_of(after, horizon)
    return axis, drops.reshape(n, n)


def _horizon_groups(horizon, rows: int) -> list[tuple[int, slice | np.ndarray]]:
    """The ``rows`` rows grouped by horizon: ``(N, rows at horizon N)``, shortest first.

    ``horizon`` is one horizon for all rows or a ``(rows,)`` integer array
    of them.  When every row shares ``N`` the one group is
    ``(N, slice(None))``, else each group's rows are an index array.
    """
    h = np.asarray(horizon)
    if h.ndim:
        if h.shape != (rows,) or rows == 0 or h.dtype.kind not in "iu":
            raise ConfigError(f"need one integer horizon per row of {rows}, got {h.dtype} {h.shape}")
        if (h != h[0]).any():
            return [(n, np.flatnonzero(h == n)) for n in np.unique(h).tolist()]
    return [(int(h.flat[0]), slice(None))]

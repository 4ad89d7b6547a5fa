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

A solver keeps one step-kernel table indexed by ladder rung, rebuilt only
when a step needs a rung past it: the stack ``[-K_j; A; Q]`` of every
rung (a negated gain on top of ``A`` and ``Q``) plus one zero stack, the
matrices ``P_j`` and ``[B; R]``.
:meth:`FiniteHorizonSolver.plan_step`, the one step of every plan,
takes step ``k`` from states held as the columns of an ``(n, B)`` array
at one horizon or one per column: each column reads the stack of the
rung its law picks at ``(N, k)``, the zero stack once ``k >= N``.  One
product with the stack gives ``u_k``, ``A x_k`` and ``Q x_k``, one with
``[B; R]`` gives ``B u_k`` and ``R u_k``, and it writes ``x_{k+1}``,
``u_k``, the stage cost, the end value ``x_{k+1}' P_N x_{k+1}`` and the
prefix cost into the views it is given.  A :class:`PlanWalk` holds a
batch's plans step-major, the row axis last, and steps every row through
``plan_step`` as far as its caller reads, and ``plans`` walks whole
plans.  ``values_of`` evaluates ``x' P_N x``.  ``rollout`` and
:func:`value_drop_grid` use no table: one column step moves coordinate
columns through ``-K`` from the ladder and the plant's ``A`` and ``B``.
Every product multiplies each matrix entry by a row or column of states
in one ufunc and adds the terms of each sum left to right, as
:mod:`mpccert.model` does, so a row's bits do not depend on the batch
around it: a batched result equals the single-state one, and a plan's
states are what the plant's ``dynamics`` gives when it replays the
plan's controls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SolverError
from .model import LinearQuadraticInstance, _add_terms, column_matvec, quad_form


@dataclass(frozen=True, eq=False)
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
        """Grow the ladder so that ``matrix(horizon)`` is available.

        A rung that is not finite raises ``SolverError``: the recursion
        overflowed, and every value and plan built on it would be NaN.
        That check stands in for NumPy's overflow warning on the rung.
        """
        A, Q = self.lq.A, self.lq.Q
        while self.horizon < horizon:
            with np.errstate(over="ignore", invalid="ignore"):
                nxt = A.T @ self._reduced @ A + Q
            if not np.isfinite(nxt).all():
                j = self.horizon + 1
                raise SolverError(f"value recursion overflows at ladder step {j}: P_{j} is not finite")
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
    every horizon up to the largest seen so far, plus one step-kernel
    table indexed by ladder rung (:meth:`_table`).
    """

    def __init__(self, lq: LinearQuadraticInstance, horizon: int = 1):
        self.lq = lq
        self.ladder = RiccatiLadder(lq, horizon)
        self._kernel: tuple[np.ndarray, ...] | None = None

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

        ``horizon`` is one horizon for all rows or a ``(B,)`` array of
        them; per-row horizons give one :func:`quad_form` over the rows'
        own ``P_N``.
        """
        X = self._states(X, 2)
        horizon = _horizon(horizon, len(X))
        if isinstance(horizon, int):
            return self._values(X, horizon)
        if horizon.min() < 0:
            raise ConfigError(f"horizon must be nonnegative, got {horizon.min()}")
        return quad_form(self._table(int(horizon.max()))[2][1].take(horizon, axis=-1).T, X)

    def _gain_index(self, horizon, k: int):
        """The rung of the gain at step ``k`` of the ``horizon``-step plan, for one horizon or an array of them."""
        raise NotImplementedError

    def _table(self, horizon: int) -> tuple:
        """The step kernel of every rung, laid out for :meth:`plan_step`, rebuilt when ``horizon`` is past it.

        ``(inputs, (stacks, ends), tables)``: ``stacks[j] = [-K_j; A; Q]``
        for every rung ``j`` of the ladder, then one zero stack,
        ``ends[j] = P_j`` and ``inputs = [B; R]``, each ``(r, c)`` matrix
        as a contiguous ``(c, r, 1)`` array, so that term ``i`` of ``M x``
        is ``M[i] * x[i]`` broadcast over the columns of ``x``.  ``tables``
        joins ``stacks`` and ``ends`` along that last axis, for gathers of
        one rung per column.  A solver that only calls :meth:`rollout`
        never builds it.
        """
        table = self._kernel
        if table is None or len(table[1][1]) <= horizon:
            ladder, lq = self.ladder, self.lq
            ladder.extend(max(horizon, 1))
            rungs = range(ladder.horizon + 1)
            mats = [np.vstack([-ladder.gain(j), lq.A, lq.Q]) for j in rungs], [ladder.matrix(j) for j in rungs]
            stacks, ends = ([np.ascontiguousarray(M.T)[..., None] for M in group] for group in mats)
            stacks.append(np.zeros_like(stacks[0]))
            inputs = np.ascontiguousarray(np.vstack([lq.B, lq.R]).T)[..., None]
            table = self._kernel = inputs, (stacks, ends), (np.concatenate(stacks, axis=-1), np.concatenate(ends, axis=-1))
        return table

    def plan_step(self, X: np.ndarray, horizon, k: int, out: tuple) -> None:
        """Step ``k`` of the ``horizon``-step plans from the columns of the ``(n, B)`` array ``X``.

        ``horizon`` is one horizon for all columns or a ``(B,)`` array of
        them.  One horizon broadcasts its rung's stack and ``P_N``; per-row
        horizons gather each column's own, and a column at ``k >= N``
        takes the zero stack, so it holds zero state, control and cost.
        ``out`` is ``(x_next, u, cost, end, prefix, paid)``: the step
        writes ``x_{k+1}``, ``u_k``, the stage cost,
        ``x_{k+1}' P_N x_{k+1}`` and ``paid + cost`` (``cost`` at
        ``k = 0``, where ``paid`` is ``None``) into the first five, each
        column with the bits of ``lq.dynamics``, ``lq.stage_cost``,
        :meth:`values_of` and ``np.cumsum`` on it alone.
        """
        x_next, u, cost, end, prefix, paid = out
        c, n = self.lq.control_dim, self.lq.state_dim
        if isinstance(horizon, int):
            inputs, (stacks, ends), _ = self._table(horizon)
            step, end_form = stacks[self._gain_index(horizon, k) if k < horizon else -1], ends[horizon]
        else:
            inputs, _, (stacks, ends) = self._table(int(horizon.max()))
            rung = np.where(k < horizon, self._gain_index(horizon, k), -1)
            step, end_form = stacks.take(rung, axis=-1), ends.take(horizon, axis=-1)
        y = _add_terms(step * X[:, None])  # [u; A x; Q x]
        u[...] = y[:c]
        z = _add_terms(inputs * u[:, None])  # [B u; R u]
        np.add(y[c : c + n], z[:n], out=x_next)
        np.add(_add_terms(X * y[c + n :]), _add_terms(u * z[n:]), out=cost)
        _add_terms(x_next * _add_terms(end_form * x_next[:, None]), out=end)
        _add_terms([cost] if paid is None else [paid, cost], out=prefix)

    def plans(self, X, horizon: int) -> OpenLoopSolution:
        """Open-loop plans of the given length from every row of the ``(B, n)`` array ``X``.

        Every array field of the result gains a leading batch axis, and
        ``value`` is the ``(B,)`` array of ``x' P_N x``.
        """
        X = self._states(X, 2)
        if np.ndim(horizon) or horizon < 1:
            raise ConfigError(f"plans takes one horizon for all rows, at least 1, got {horizon}")
        horizon = int(horizon)
        walk = PlanWalk(self, X, horizon, horizon)
        walk.advance_to(horizon)
        tails = np.stack([self.ladder.matrix(j) for j in range(horizon, 0, -1)])
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
        if not 0 <= steps <= horizon or horizon < 1:
            raise ConfigError(f"steps must lie in [0, {horizon}] and horizon must be positive, got {steps}")
        return np.stack(self._column_steps(list(self._states(X, 2).T), horizon, steps), axis=-1)

    def _column_steps(self, columns: list, horizon: int, steps: int) -> list[np.ndarray]:
        """Move the list of coordinate columns ``steps`` steps along the ``horizon``-step plan, in place, with the bits of ``plans``."""
        self.ladder.extend(horizon)
        for k in range(steps):
            u = column_matvec(-self.ladder.gain(self._gain_index(horizon, k)), columns)
            columns[:] = column_matvec(self.lq.A, columns)
            for ax, b_i in zip(columns, self.lq.B):  # B u one row at a time holds one column fewer
                ax += column_matvec([b_i], u)[0]
        return columns


class LqLadderSolver(FiniteHorizonSolver):
    """Planner using the descending-gain law.

    Step ``k`` of an ``N``-step plan applies ``u = -K_{N-k} x``; the
    last step applies zero control (the index reaches ``K_1``-territory
    but the law switches off instead).  This is the law the closed-loop
    scheduler commits to.
    """

    def _gain_index(self, horizon, k: int):
        return (horizon - k) * (k != horizon - 1)  # zero gain: no control on the final step


class LqBellmanSolver(FiniteHorizonSolver):
    """Planner using the dynamic-programming minimiser.

    Step ``k`` applies ``u = -K_{N-k-1} x`` with ``K_0 = 0``.  The plan
    attains ``value`` exactly, which makes this solver the reference
    for optimality cross-checks.
    """

    def _gain_index(self, horizon, k: int):
        return horizon - k - 1


class PlanWalk:
    """The plans of a ``(B, n)`` batch of states at one or per-row horizons, built step by step.

    ``step_major`` holds them with the row axis last: states
    ``(width + 1, n, rows)``, controls ``(width, c, rows)`` and
    ``(3, width, rows)`` stage costs, ends (``x_{k+1}' P_N x_{k+1}``) and
    prefix costs (the bits of ``np.cumsum``).  :meth:`advance` writes step
    ``k = steps`` of every row into them through one
    :meth:`FiniteHorizonSolver.plan_step`, up to ``width`` steps; a row
    stepped past its horizon holds zero state, control and cost.
    ``trajectory``, ``controls``, ``stage_costs``, ``ends`` and
    ``prefix_costs`` are the same arrays indexed by row first.  ``value``
    is ``x_0' P_N x_0``, computed unless the caller has those bits.
    ``horizon`` is the one horizon of every row as an ``int``, else the
    ``(rows,)`` array of them.  :meth:`restart` reuses the arrays without
    zeroing, so a step past the walked ones holds zero or an earlier
    walk's value (finite, nonnegative), and a reader of whole rows must
    discard the steps past each row's own length, as the traces' rebuilt
    prefix degrees do.  ``buffers`` from
    :meth:`allocate` may have more rows than ``X``; the walk uses the
    first ``len(X)``, so a caller can keep one set while its batch
    shrinks.
    """

    def __init__(self, solver: FiniteHorizonSolver, X: np.ndarray, horizon, width: int, value=None, buffers=None):
        rows, n, c = len(X), solver.lq.state_dim, solver.lq.control_dim
        self.solver, self.width, self.horizon = solver, width, _horizon(horizon, rows)
        self.step_major = states, inputs, columns = [b[..., :rows] for b in buffers or self.allocate(rows, width, n, c)]
        self.trajectory, self.controls = states.transpose(2, 0, 1), inputs.transpose(2, 0, 1)
        self.stage_costs, self.ends, self.prefix_costs = columns.transpose(0, 2, 1)
        self.restart(X, value)

    @staticmethod
    def allocate(rows: int, width: int, n: int, c: int) -> tuple[np.ndarray, ...]:
        """Zeroed step-major states, controls and columns, row axis last."""
        return np.zeros((width + 1, n, rows)), np.zeros((width, c, rows)), np.zeros((3, width, rows))

    def restart(self, X: np.ndarray, value=None) -> None:
        """Start the walk afresh from the states ``X``, valued ``value`` when given."""
        self.steps, self.value = 0, self.solver.values_of(X, self.horizon) if value is None else value
        self.step_major[0][0] = X.T

    def advance(self) -> None:
        """Build the next step of every row, in place."""
        k = self.steps
        states, inputs, columns = self.step_major
        paid = columns[2, k - 1] if k else None
        self.solver.plan_step(states[k], self.horizon, k, (states[k + 1], inputs[k], *columns[:, k], paid))
        self.steps = k + 1

    def advance_to(self, steps) -> None:
        """Walk on until row ``i`` has ``steps[i]`` steps (one count for all rows, or one per row)."""
        for _ in range(self.steps, int(np.max(steps, initial=0))):
            self.advance()


_GRID_BLOCK = 4096  # states per value_drop_grid block: 32 KiB per coordinate column


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
    ``m`` steps of the plan increases the finite-horizon value.  Blocks
    of ``_GRID_BLOCK // n`` grid rows (at least one), held as coordinate
    columns, take ``rollout``'s column steps, so every entry has the bits
    of ``values_of(x) - values_of(rollout(x))``.  For ``n <= _GRID_BLOCK``
    no temporary outgrows a 32 KiB column: a pass maps no heap pages.
    """
    if solver.lq.state_dim != 2:
        raise ConfigError(
            f"value_drop_grid needs a 2-state plant, got state_dim={solver.lq.state_dim}"
        )
    if horizon < 2:
        raise ConfigError(f"value_drop_grid needs horizon >= 2, got {horizon}")
    if not 1 <= m < horizon:
        raise ConfigError(f"m must lie in [1, {horizon - 1}], got {m}")
    solver.ladder.extend(horizon)
    P = solver.ladder.matrix(horizon)
    axis, drops = np.linspace(-1.5, 1.5, n), np.empty((n, n))

    def value(x, out=None):  # x' P x on columns, in the order of quad_form
        return _add_terms([np.multiply(y_i, x_i, out=y_i) for y_i, x_i in zip(column_matvec(P, x), x)], out=out)

    rows = max(1, _GRID_BLOCK // max(n, 1))
    for i in range(0, n, rows):
        first, out = axis[i : i + rows], drops[i : i + rows].reshape(-1)
        states = [np.repeat(first, n), np.tile(axis, len(first))]
        value(states, out=out)
        np.subtract(out, value(solver._column_steps(states, horizon, m)), out=out)
    return axis, drops


def _horizon(horizon, rows: int) -> int | np.ndarray:
    """``horizon`` checked as one horizon for ``rows`` rows or a ``(rows,)`` integer array: an ``int`` when all rows share it."""
    h = np.asarray(horizon)
    if h.ndim:
        if h.shape != (rows,) or rows == 0 or h.dtype.kind not in "iu":
            raise ConfigError(f"need one integer horizon per row of {rows}, got {h.dtype} {h.shape}")
        if (h != h[0]).any():
            return h.astype(np.intp)
    return int(h.flat[0])

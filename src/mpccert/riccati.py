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

A solver builds one plan operator per horizon on the first request and
keeps it: the stacks ``[-K; A; Q]`` of every step (the law's negated gain
on top of ``A`` and ``Q``) and the tail matrices ``P_N, ..., P_1``.
:meth:`FiniteHorizonSolver.plan_step`, the step kernel of every plan,
takes step ``k`` from states held as the columns of an ``(n, B)`` array:
one product with the step's stack gives ``u_k``, ``A x_k`` and ``Q x_k``,
one with ``[B; R]`` gives ``B u_k`` and ``R u_k``, and it writes
``x_{k+1}``, ``u_k``, the stage cost, the end value
``x_{k+1}' P_N x_{k+1}`` and the prefix cost into the views it is given.
A :class:`PlanWalk` holds a batch's plans step-major, the row axis last,
and extends them through ``plan_step`` as far as its caller reads, each
row at its own horizon, and ``plans`` walks whole plans.  ``values_of``
evaluates ``x' P_N x``.  ``rollout`` and :func:`value_drop_grid` use no
operator: one column step moves coordinate columns through ``-K`` from the
ladder and the plant's ``A`` and ``B``.  Every product multiplies
each matrix entry by a row or column of states in one ufunc and adds the
terms of each sum left to right, as :mod:`mpccert.model` does, so a
row's bits do not depend on the batch around it: a batched result equals
the single-state one, and a plan's states are what the plant's
``dynamics`` gives when it replays the plan's controls.
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
        """
        A, Q = self.lq.A, self.lq.Q
        while self.horizon < horizon:
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
    every horizon up to the largest seen so far, plus one cached plan
    operator per horizon requested.
    """

    def __init__(self, lq: LinearQuadraticInstance, horizon: int = 1):
        self.lq = lq
        self.ladder = RiccatiLadder(lq, horizon)
        self._operators: dict[int, tuple[np.ndarray, ...]] = {}
        self._kernels: dict[int, tuple[np.ndarray, ...]] = {}

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
        """``(stacks, tails)``, built once per ``N``: ``stacks[k] = [-K_{g(N, k)}; A; Q]``, ``tails = P_N..P_1``."""
        op = self._operators.get(horizon)
        if op is None:
            if horizon < 1:
                raise ConfigError(f"horizon must be at least 1, got {horizon}")
            ladder, lq = self.ladder, self.lq
            ladder.extend(horizon)
            gains = [-ladder.gain(self._gain_index(horizon, k)) for k in range(horizon)]
            stacks = np.stack([np.vstack([gain, lq.A, lq.Q]) for gain in gains])
            tails = np.stack([ladder.matrix(j) for j in range(horizon, 0, -1)])
            op = self._operators[horizon] = (stacks, tails)
        return op

    def _kernel(self, horizon: int) -> tuple[np.ndarray, ...]:
        """The stacks, ``P_N`` and ``[B; R]`` laid out for :meth:`plan_step`, built at its first call at ``horizon``.

        Each ``(..., r, c)`` matrix ``M`` is laid out ``(..., c, r, 1)``, so
        that term ``j`` of ``M x`` is ``M[..., j, :, :] * x[j]``.  A solver
        that only calls :meth:`rollout` never builds them.
        """
        forms = self._kernels.get(horizon)
        if forms is None:
            stacks, tails = self._operator(horizon)
            mats = stacks, tails[0], np.vstack([self.lq.B, self.lq.R])
            forms = self._kernels[horizon] = tuple(np.ascontiguousarray(M.swapaxes(-1, -2))[..., None] for M in mats)
        return forms

    def plan_step(self, X: np.ndarray, horizon: int, k: int, out: tuple) -> None:
        """Step ``k`` of the ``horizon``-step plans from the columns of the ``(n, B)`` array ``X``.

        ``out`` is ``(x_next, u, cost, end, prefix, paid)``: the step
        writes ``x_{k+1}``, ``u_k``, the stage cost,
        ``x_{k+1}' P_N x_{k+1}`` and ``paid + cost`` (``cost`` at
        ``k = 0``, where ``paid`` is ``None``) into the first five, each
        column with the bits of ``lq.dynamics``, ``lq.stage_cost``,
        :meth:`values_of` and ``np.cumsum`` on it alone.
        """
        x_next, u, cost, end, prefix, paid = out
        c, n = self.lq.control_dim, self.lq.state_dim
        columns, end_form, inputs = self._kernel(horizon)
        y = _add_terms(columns[k] * X[:, None])  # [u; A x; Q x]
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
        if np.ndim(horizon):
            raise ConfigError(f"plans takes one horizon for all rows, got shape {np.shape(horizon)}")
        horizon = int(horizon)
        walk = PlanWalk(self, X, horizon, horizon)
        walk.advance_to(horizon)
        tail_values = quad_form(self._operator(horizon)[1], walk.trajectory[:, :horizon])
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

    ``step_major`` holds them with the row axis last: states
    ``(width + 1, n, rows)``, controls ``(width, c, rows)`` and
    ``(3, width, rows)`` stage costs, ends (``x_{k+1}' P_N x_{k+1}``) and
    prefix costs (the bits of ``np.cumsum``).  :meth:`advance` writes step
    ``k = steps`` into them through :meth:`FiniteHorizonSolver.plan_step`,
    once per horizon group, up to ``width`` steps.  ``trajectory``,
    ``controls``, ``stage_costs``, ``ends`` and ``prefix_costs`` are the
    same arrays indexed by row first.  ``value`` is ``x_0' P_N x_0``,
    computed unless the caller has those bits.  :meth:`restart` reuses the
    arrays without zeroing, so a step past a row's walked ones holds zero
    or an earlier walk's value (finite, nonnegative); a reader of whole
    columns must discard those rows, as the engine's ``deciding`` mask
    does, and a reader of whole rows the steps past each row's horizon, as
    the traces' rebuilt prefix degrees do.  ``buffers`` from
    :meth:`allocate` may have more rows than ``X``; the walk uses the first
    ``len(X)``, so a caller can keep one set while its batch shrinks.
    """

    def __init__(self, solver: FiniteHorizonSolver, X: np.ndarray, horizon, width: int, value=None, buffers=None):
        rows, n, c = len(X), solver.lq.state_dim, solver.lq.control_dim
        self.solver, self.width, self.horizon = solver, width, horizon
        self.step_major = states, inputs, columns = [b[..., :rows] for b in buffers or self.allocate(rows, width, n, c)]
        self.groups = _horizon_groups(horizon, rows)
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

    def advance(self, rows: np.ndarray | None = None) -> None:
        """Build the next step of the rows in the boolean mask ``rows`` (every row when ``None``).

        A walk at one horizon steps every row in place, which costs no
        more than a subset; a walk at mixed horizons steps the masked rows
        of each group into temporaries and scatters them.
        """
        k = self.steps
        states, inputs, columns = self.step_major
        paid = columns[2, k - 1] if k else None
        if len(self.groups) == 1:
            self.solver.plan_step(states[k], self.groups[0][0], k, (states[k + 1], inputs[k], *columns[:, k], paid))
        else:
            for N, at in self.groups:
                at = at if rows is None else at[rows[at]]
                if not at.size:
                    continue
                x_next, u, step = (np.empty((len(a), at.size)) for a in (states[k], inputs[k], columns[:, k]))
                self.solver.plan_step(states[k][:, at], N, k, (x_next, u, *step, None if paid is None else paid[at]))
                states[k + 1][:, at], inputs[k][:, at], columns[:, k, at] = x_next, u, step
        self.steps = k + 1

    def advance_to(self, steps) -> None:
        """Walk on until row ``i`` has ``steps[i]`` steps (one count for all rows, or one per row)."""
        steps = np.broadcast_to(steps, self.value.shape)
        while self.steps < steps.max(initial=0):
            self.advance(steps > self.steps)


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

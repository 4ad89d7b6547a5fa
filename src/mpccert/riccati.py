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
that horizon and keeps it: the negated gains ``-K`` of every step, taken
from the law's gain index, and the tail matrices ``P_N, ..., P_1``.
:meth:`FiniteHorizonSolver.plan_step` builds one step of the plans of a
``(B, n)`` batch of states at one horizon, and also returns the value
``x_{k+1}' P_N x_{k+1}`` at the step's end.  A :class:`PlanWalk` holds
the plans of a batch and extends them one step at a time through it, by
as many steps as its caller reads; rows at different horizons go
through their own horizon's operator.
:meth:`FiniteHorizonSolver.plans` walks every row through its whole
plan and :meth:`FiniteHorizonSolver.solve` is its one-row case;
:meth:`FiniteHorizonSolver.rollout` walks a batch without storing plans,
and :meth:`FiniteHorizonSolver.values_of` evaluates ``x' P_N x`` on a
batch.  ``plans`` and ``values_of`` also take one horizon per row; plans
are then padded with zeros to the call's longest horizon.
Every product goes through the elementwise row kernel of
:mod:`mpccert.model` (:func:`~mpccert.model.matvec` and
:func:`~mpccert.model.quad_form`): each step forms ``u = -K x`` and the
plant's own ``A x + B u``, on whole ``(B, n)`` arrays, and a row's
arithmetic does not depend on the batch around it.  So a batched
result equals the corresponding single-state result bit for bit, and a
plan's states are exactly what :func:`mpccert.model.step` gives when it
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

    With one horizon per row, ``horizon`` is that ``(B,)`` array and the
    arrays run to the longest of them.  A row at horizon ``N`` is zero
    from step ``N`` on in ``controls``, ``stage_costs`` and
    ``tail_values``, and from ``trajectory[N + 1]`` on.

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

    horizon: int | np.ndarray
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


def riccati_fixed_point(
    lq: LinearQuadraticInstance, tol: float = 1e-12, max_iterations: int = 10000
) -> np.ndarray:
    """Iterate the ladder until it stops moving; the infinite-horizon limit."""
    ladder = RiccatiLadder(lq, 1)
    for j in range(1, max_iterations):
        ladder.extend(j + 1)
        if np.max(np.abs(ladder.matrix(j + 1) - ladder.matrix(j))) <= tol:
            return ladder.matrix(j + 1)
    raise SolverError(f"value recursion did not settle in {max_iterations} steps")


class FiniteHorizonSolver:
    """Shared machinery for the two linear-quadratic planners.

    Instances keep one growing :class:`RiccatiLadder` and reuse it for
    every horizon up to the largest seen so far, plus one cached plan
    operator per horizon requested.
    """

    def __init__(self, lq: LinearQuadraticInstance, horizon: int = 1):
        self.lq = lq
        self.model = lq.to_model()
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

        ``X`` may also hold several states per row, ``(B, ..., n)``, and the
        result then has shape ``X.shape[:-1]``.  ``horizon`` is one horizon
        for all rows or a ``(B,)`` array of them.
        """
        X = self._states(X, max(np.ndim(X), 2))
        horizon = self._per_row(horizon, len(X))
        if np.ndim(horizon) == 0:
            return self._values(X, horizon)
        out = np.empty(X.shape[:-1])
        for n, rows in _by_horizon(horizon):
            out[rows] = self._values(X[rows], n)
        return out

    @staticmethod
    def _per_row(horizon, rows: int):
        """``horizon`` as one int when every row shares it, else as a ``(rows,)`` array."""
        h = np.asarray(horizon)
        if h.ndim == 0:
            return int(h)
        if h.shape != (rows,) or rows == 0 or h.dtype.kind not in "iu":
            raise ConfigError(f"need one integer horizon per row of {rows}, got {h.dtype} {h.shape}")
        return int(h[0]) if (h == h[0]).all() else h

    def _gain_index(self, horizon: int, k: int) -> int:
        raise NotImplementedError

    def _operator(self, horizon: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(-K_{g(N, k)}, [-K_{g(N, k)}; A], P_{N-k})`` stacked over ``k < N``, built once per ``N``.

        The middle stack puts each step's gain on top of ``A``, so that one
        product gives both ``u_k`` and ``A x_k``.
        """
        op = self._operators.get(horizon)
        if op is None:
            if horizon < 1:
                raise ConfigError(f"horizon must be at least 1, got {horizon}")
            ladder, A = self.ladder, self.lq.A
            ladder.extend(horizon)
            steps = range(horizon)
            neg_gains = np.stack([-ladder.gain(self._gain_index(horizon, k)) for k in steps])
            tails = np.stack([ladder.matrix(horizon - k) for k in steps])
            gains_a = np.concatenate([neg_gains, np.broadcast_to(A, (horizon,) + A.shape)], axis=1)
            op = self._operators[horizon] = (neg_gains, gains_a, tails)
        return op

    def _step(self, neg_gain: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``u = -K x`` to row states ``(..., n)``; returns ``(u, x_next)``."""
        u = matvec(neg_gain, x)
        return u, self.lq.dynamics(x, u)

    def plan_step(self, X, horizon: int, k: int) -> tuple[np.ndarray, ...]:
        """Step ``k`` of the ``horizon``-step plans at the ``(B, n)`` states ``X``.

        Returns ``x_{k+1}``, ``u_k``, the stage cost and ``x_{k+1}' P_N
        x_{k+1}`` (the bits of :meth:`values_of`).  One product with
        ``[-K_k; A]`` gives ``u_k`` and ``A x_k`` with the operations of
        ``matvec``; ``+ B u_k`` is the sum ``dynamics`` forms.
        """
        _, gains_a, tails = self._operator(horizon)
        c = self.lq.control_dim
        u_ax = matvec(gains_a[k], X)
        u = u_ax[:, :c]
        x_next = u_ax[:, c:] + matvec(self.lq.B, u)
        return x_next, u, self.lq.stage_cost(X, u), quad_form(tails[0], x_next)

    def plans(self, X, horizon) -> OpenLoopSolution:
        """Open-loop plans of the given length from every row of the ``(B, n)`` array ``X``.

        Every array field of the result gains a leading batch axis, and
        ``value`` is the ``(B,)`` array of ``x' P_N x``.  ``horizon`` is one
        horizon for all rows or a ``(B,)`` array of them; rows of mixed
        horizons are padded as :class:`OpenLoopSolution` describes, and
        each row gets the same bits as a call at its own horizon.
        """
        X = self._states(X, 2)
        horizon = self._per_row(horizon, len(X))
        if np.min(horizon) < 1:
            raise ConfigError(f"horizon must be at least 1, got {np.min(horizon)}")
        longest = int(np.max(horizon))
        walk = PlanWalk(self, X, horizon, longest)
        walk.advance_to(horizon)
        tail_values = np.zeros((len(X), longest))
        for N, rows in [(horizon, slice(None))] if np.ndim(horizon) == 0 else _by_horizon(horizon):
            tail_values[rows, :N] = quad_form(self._operator(N)[2], walk.trajectory[rows, :N])
        return OpenLoopSolution(horizon, walk.controls, walk.trajectory, walk.stage_costs, walk.value, tail_values)

    def solve(self, x, horizon: int) -> OpenLoopSolution:
        """Build the open-loop plan of the given length from ``x``; :meth:`plans` with one row."""
        plan = self.plans(self._states(x, 1)[None], horizon)
        return OpenLoopSolution(
            horizon=horizon,
            controls=plan.controls[0],
            trajectory=plan.trajectory[0],
            stage_costs=plan.stage_costs[0],
            value=float(plan.value[0]),
            tail_values=plan.tail_values[0],
        )

    def rollout(self, X, horizon: int, steps: int) -> np.ndarray:
        """States after ``steps`` steps of the ``horizon``-step plan from each row of ``X``.

        Row ``i`` equals ``solve(X[i], horizon).trajectory[steps]``; no
        full plans are stored.
        """
        neg_gains = self._operator(horizon)[0]
        if not 0 <= steps <= horizon:
            raise ConfigError(f"steps must lie in [0, {horizon}], got {steps}")
        x = self._states(X, 2)
        for neg_gain in neg_gains[:steps]:
            _, x = self._step(neg_gain, x)
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

    :meth:`advance` builds step ``k = steps`` of the given rows through
    :meth:`FiniteHorizonSolver.plan_step`, once per horizon among them, up
    to ``width`` steps.  Column ``k`` of ``controls``, ``stage_costs``,
    ``ends`` (``x_{k+1}' P_N x_{k+1}``) and ``prefix_costs`` (the bits of
    ``np.cumsum`` of the stage costs), and ``trajectory[:, k + 1]``, hold
    step ``k`` of the rows it reached and zeros elsewhere.  ``value`` is
    ``x_0' P_N x_0``, computed unless the caller has those bits.
    """

    def __init__(self, solver: FiniteHorizonSolver, X: np.ndarray, horizon, width: int, value=None):
        rows, n, c = len(X), solver.lq.state_dim, solver.lq.control_dim
        self.solver, self.horizon, self.steps = solver, horizon, 0
        self.value = solver.values_of(X, horizon) if value is None else value
        self.trajectory = np.zeros((rows, width + 1, n))
        self.trajectory[:, 0] = X
        self.controls = np.zeros((rows, width, c))
        # Row axis innermost, so that each step writes whole columns.
        self.stage_costs, self.ends, self.prefix_costs = np.zeros((3, width, rows)).transpose(0, 2, 1)

    def advance(self, rows=slice(None)) -> None:
        """Build the next step of the rows ``rows`` (a slice or indices)."""
        k = self.steps
        X = self.trajectory[rows, k]
        if np.ndim(self.horizon) == 0:
            parts = [(rows, self.solver.plan_step(X, self.horizon, k))]
        else:
            at = np.arange(len(self.value))[rows]
            parts = [(at[sub], self.solver.plan_step(X[sub], N, k)) for N, sub in _by_horizon(self.horizon[at])]
        for at, (x_next, u, cost, end) in parts:
            self.trajectory[at, k + 1] = x_next
            self.controls[at, k] = u
            self.stage_costs[at, k] = cost
            self.ends[at, k] = end
            self.prefix_costs[at, k] = cost if k == 0 else self.prefix_costs[at, k - 1] + cost
        self.steps = k + 1

    def advance_to(self, steps) -> None:
        """Walk on until row ``i`` has ``steps[i]`` steps (one count for all rows, or one per row)."""
        steps = np.asarray(steps)
        while self.steps < steps.max():
            short = steps > self.steps
            self.advance(slice(None) if short.all() else np.flatnonzero(short))


def _by_horizon(horizon: np.ndarray):
    """``(N, rows at horizon N)`` for each distinct horizon of a per-row array, shortest first."""
    for n in np.unique(horizon).tolist():
        yield n, np.flatnonzero(horizon == n)

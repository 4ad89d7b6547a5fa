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
:meth:`FiniteHorizonSolver.plans` walks a ``(B, n)`` batch of states
through the operator and :meth:`FiniteHorizonSolver.solve` is its
one-row case; :meth:`FiniteHorizonSolver.rollout` walks a batch without
storing plans, and :meth:`FiniteHorizonSolver.values_of` evaluates
``x' P_N x`` on a batch.  Every product goes through the elementwise row
kernel of :mod:`mpccert.model` (:func:`~mpccert.model.matvec` and
:func:`~mpccert.model.quad_form`): each step applies ``u = -K x`` and
then the plant's own ``A x + B u``, on whole ``(B, n)`` arrays, and a
row's arithmetic does not depend on the batch around it.  So a batched
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

    ``P_0`` is the zero matrix, ``P_1 = Q``.  Feedback gains
    ``K_j = (B' P_j B + R)^{-1} B' P_j A`` are cached on first use.
    """

    def __init__(self, lq: LinearQuadraticInstance, horizon: int):
        if horizon < 1:
            raise ConfigError(f"horizon must be at least 1, got {horizon}")
        self.lq = lq
        n = lq.state_dim
        self._matrices = [np.zeros((n, n)), lq.Q.copy()]
        self._gains: dict[int, np.ndarray] = {}
        self.extend(horizon)

    @property
    def horizon(self) -> int:
        return len(self._matrices) - 1

    def extend(self, horizon: int) -> None:
        """Grow the ladder so that ``matrix(horizon)`` is available."""
        A, B, Q, R = self.lq.A, self.lq.B, self.lq.Q, self.lq.R
        while self.horizon < horizon:
            P = self._matrices[-1]
            PB = P @ B
            try:
                correction = PB @ np.linalg.solve(B.T @ PB + R, PB.T)
            except np.linalg.LinAlgError as exc:
                raise SolverError(
                    f"singular control weight at ladder step {self.horizon}"
                ) from exc
            nxt = A.T @ (P - correction) @ A + Q
            # Symmetrise to keep round-off from drifting over long ladders.
            self._matrices.append(0.5 * (nxt + nxt.T))

    def matrix(self, j: int) -> np.ndarray:
        """Return ``P_j`` for ``0 <= j <= horizon``."""
        if j < 0 or j > self.horizon:
            raise ConfigError(f"ladder index {j} outside [0, {self.horizon}]")
        return self._matrices[j]

    def gain(self, j: int) -> np.ndarray:
        """Return ``K_j``; ``K_0`` is the zero gain."""
        if j not in self._gains:
            P = self.matrix(j)
            B, R, A = self.lq.B, self.lq.R, self.lq.A
            self._gains[j] = np.linalg.solve(B.T @ P @ B + R, B.T @ P @ A)
        return self._gains[j]

    def value(self, x, j: int):
        """Return ``x' P_j x``, row-wise when ``x`` stacks several states."""
        return quad_form(self.matrix(j), np.asarray(x, dtype=float))

    def matrices(self) -> list[np.ndarray]:
        """Return ``[P_1, ..., P_N]``."""
        return list(self._matrices[1:])


def riccati_ladder(lq: LinearQuadraticInstance, horizon: int) -> RiccatiLadder:
    """Compute the value recursion up to the given horizon."""
    return RiccatiLadder(lq, horizon)


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
        self._operators: dict[int, tuple[np.ndarray, np.ndarray]] = {}

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

    def values_of(self, X, horizon: int) -> np.ndarray:
        """:meth:`value_of` at every row of the ``(B, n)`` array ``X``."""
        return self._values(self._states(X, 2), horizon)

    def _gain_index(self, horizon: int, k: int) -> int:
        raise NotImplementedError

    def _operator(self, horizon: int) -> tuple[np.ndarray, np.ndarray]:
        """``(-K_{g(N, k)}, P_{N-k})`` stacked over ``k < N``, built once per ``N``."""
        op = self._operators.get(horizon)
        if op is None:
            if horizon < 1:
                raise ConfigError(f"horizon must be at least 1, got {horizon}")
            ladder = self.ladder
            ladder.extend(horizon)
            steps = range(horizon)
            neg_gains = np.stack([-ladder.gain(self._gain_index(horizon, k)) for k in steps])
            tails = np.stack([ladder.matrix(horizon - k) for k in steps])
            op = self._operators[horizon] = (neg_gains, tails)
        return op

    def _step(self, neg_gain: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Apply ``u = -K x`` to row states ``(..., n)``; returns ``(u, x_next)``."""
        u = matvec(neg_gain, x)
        return u, self.lq.dynamics(x, u)

    def plans(self, X, horizon: int) -> OpenLoopSolution:
        """Open-loop plans of the given length from every row of the ``(B, n)`` array ``X``.

        Every array field of the result gains a leading batch axis, and
        ``value`` is the ``(B,)`` array of ``x' P_N x``.
        """
        neg_gains, tails = self._operator(horizon)
        X = self._states(X, 2)
        trajectory = np.empty((len(X), horizon + 1, self.lq.state_dim))
        controls = np.empty((len(X), horizon, self.lq.control_dim))
        trajectory[:, 0] = X
        for k, neg_gain in enumerate(neg_gains):
            controls[:, k], trajectory[:, k + 1] = self._step(neg_gain, trajectory[:, k])
        tail_values = quad_form(tails, trajectory[:, :-1])
        return OpenLoopSolution(
            horizon=horizon,
            controls=controls,
            trajectory=trajectory,
            stage_costs=self.lq.stage_cost(trajectory[:, :-1], controls),
            value=tail_values[:, 0],
            tail_values=tail_values,
        )

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
        neg_gains, _ = self._operator(horizon)
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


def lq_solve(
    lq: LinearQuadraticInstance, x, horizon: int, law: str = "ladder"
) -> OpenLoopSolution:
    """One-shot plan from a bare instance; ``law`` picks the solver class."""
    if law == "ladder":
        return LqLadderSolver(lq, horizon).solve(x, horizon)
    if law == "bellman":
        return LqBellmanSolver(lq, horizon).solve(x, horizon)
    raise ConfigError(f"unknown law {law!r}, expected 'ladder' or 'bellman'")


def solve(solver: FiniteHorizonSolver, x, horizon: int) -> OpenLoopSolution:
    """Module-level alias for ``solver.solve(x, horizon)``."""
    return solver.solve(x, horizon)

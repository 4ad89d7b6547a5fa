"""Runtime performance certificates.

Everything here is built from one measured quantity: over a stretch of
applied controls, the drop in the finite-horizon value compared against
the stage cost paid.  The ratio of the two is the certified degree of
suboptimality ``alpha``; its surplus over a required threshold
``alpha_bar``, weighted by the cost paid, is the slack ``rho`` that the
watchdog variants bank and spend.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .riccati import OpenLoopSolution

#: Absolute tolerance of every acceptance inequality evaluated in floating
#: point: the alg2 budget rule, the alg4 account and the horizon-shrink
#: check each accept when they fail by at most this much.
CERT_SLACK = 1e-10

_CSV_COLUMNS = ("n", "sigma_n", "m_n", "v_before", "v_after", "cost_sum", "alpha", "rho", "s_n")


def alpha_m_step(v_before: float, v_after: float, cost_sum: float) -> float:
    """Certified suboptimality degree over one stretch.

    ``(v_before - v_after) / cost_sum``; a stretch with zero cost is at
    the equilibrium already and certifies 1.  Negative cost sums are
    rejected, stage costs are nonnegative by construction.
    """
    return float(alpha_m_steps(np.array([v_before - v_after]), np.array([cost_sum]))[0])


def alpha_m_steps(drops: np.ndarray, cost_sums: np.ndarray) -> np.ndarray:
    """:func:`alpha_m_step` over several stretches, given their drops ``v_before - v_after``."""
    if (cost_sums > 0.0).all():
        return drops / cost_sums
    negative = cost_sums < 0.0
    if negative.any():
        raise ConfigError(f"cost_sum must be nonnegative, got {cost_sums[negative][0]}")
    # Zero-cost stretches keep the 1.0 that ``out`` starts with.
    return np.divide(drops, cost_sums, out=np.ones_like(cost_sums, dtype=float), where=cost_sums != 0.0)


@dataclass(frozen=True)
class Certificate:
    """Descent record for one closed interval of applied controls.

    Attributes
    ----------
    n : int
        Interval index, counting from 0.
    sigma : int
        Closed-loop time at which the interval starts.
    m : int
        Number of applied steps in the interval.
    v_before, v_after : float
        Finite-horizon value at the interval's endpoints.
    cost_sum : float
        Stage cost paid over the interval.
    alpha : float
        ``(v_before - v_after) / cost_sum`` (1 on a zero-cost interval).
    rho : float
        ``v_before - v_after - alpha_bar * cost_sum``.
    """

    n: int
    sigma: int
    m: int
    v_before: float
    v_after: float
    cost_sum: float
    alpha: float
    rho: float

    @classmethod
    def build(
        cls,
        n: int,
        sigma: int,
        m: int,
        v_before: float,
        v_after: float,
        cost_sum: float,
        alpha_bar: float,
    ) -> "Certificate":
        """The certificate of one interval; ``alpha_m_step`` rejects a negative ``cost_sum``."""
        return cls(
            n=n,
            sigma=sigma,
            m=m,
            v_before=v_before,
            v_after=v_after,
            cost_sum=cost_sum,
            alpha=alpha_m_step(v_before, v_after, cost_sum),
            rho=v_before - v_after - alpha_bar * cost_sum,
        )


@dataclass
class SlackAccumulator:
    """Running sum of interval slacks, with its full history.

    ``values[i]`` is the accumulated slack after interval ``i``;
    ``total`` is the current sum (0 before anything is added).
    """

    total: float = 0.0
    values: list[float] = field(default_factory=list)

    def add(self, rho_value: float) -> float:
        self.total += rho_value
        self.values.append(self.total)
        return self.total


# np.sum adds fewer terms than this one by one from the first; from this
# many on it adds them pairwise.
_PAIRWISE = 8


def row_sums(a: np.ndarray, length, start=None) -> np.ndarray:
    """``np.sum(a[i, start[i]:start[i] + length[i]])`` for every row ``i`` of ``a``.

    ``start`` defaults to 0.  Rows of equal length are summed as one
    C-contiguous block: ``np.sum`` over its last axis reduces each row
    exactly like the 1-D sum of that row (pairwise from 8 terms on,
    which :func:`np_sums` adds to left-to-right running sums), so
    the result does not depend on which rows share a call.  Padding rows
    to a common length with zeros would not keep that.
    """
    length = np.asarray(length)
    start = np.zeros_like(length) if start is None else np.asarray(start)
    if length.size and length.min() == length.max():
        return _block_sums(a, np.arange(len(a)), start, int(length[0]))
    out = np.empty(len(a))
    for n in set(length.tolist()):
        sel = np.flatnonzero(length == n)
        out[sel] = _block_sums(a, sel, start[sel], n)
    return out


def _block_sums(a: np.ndarray, rows: np.ndarray, start: np.ndarray, n: int) -> np.ndarray:
    """:func:`row_sums` of the given rows, all of length ``n``."""
    if n == 1:
        # The sum of one term adds it to 0.0, as np.sum does (-0.0 gives 0.0).
        return 0.0 + a[rows, start]
    return np.sum(a[rows[:, None], start[:, None] + np.arange(n)], axis=1)


def np_sums(sums: np.ndarray, bound: int, a: np.ndarray, start, end, rows=None, at=None) -> np.ndarray:
    """``sums`` made ``np.sum(a[rows[p], start[p]:end[p]])``, with ``p = at[i]`` for entry ``i``, in place.

    ``sums[i]`` holds that sum from 0.0 left to right, which below 8 terms
    is ``np.sum``'s already; only longer rows are summed again.  ``start``
    None starts every row at 0, and ``rows`` and ``at`` default to every
    row.  ``bound`` is an int no length exceeds: below 8, nothing is read.
    """
    if bound >= _PAIRWISE:
        p = slice(None) if at is None else at
        length = end[p] - (0 if start is None else start[p])
        long = (length >= _PAIRWISE).nonzero()[0]
        if long.size:
            q = long if at is None else at[long]
            sums[long] = row_sums(a[q if rows is None else rows[q]], length[long], None if start is None else start[q])
    return sums


def update_acceptable(
    sol_old: OpenLoopSolution,
    sol_new: OpenLoopSolution,
    j: int | np.ndarray,
    m: int | np.ndarray,
    alpha_bar: float,
    *,
    end_value: float | np.ndarray,
) -> bool | np.ndarray:
    """Decide whether a mid-stretch re-plan may replace the running plan.

    ``sol_old`` is the committed plan, of which ``j`` steps have been
    applied; ``sol_new`` is a fresh plan from the state reached after
    those ``j`` steps.  The candidate applies ``m - j`` steps of the new
    plan, ending at a state whose finite-horizon value the caller passes
    as ``end_value``.  Accept when the budget inequality

        end_value + alpha_bar * (paid + planned) <= sol_old.value

    holds up to :data:`CERT_SLACK`, where ``paid`` is the cost of the old
    prefix and ``planned`` the cost of the new segment.

    With batches of plans (see ``FiniteHorizonSolver.plans``), ``j``,
    ``m`` and ``end_value`` hold one entry per plan and the answer is a
    boolean array; single plans give a ``bool``.

    The engine applies the same rule through :func:`budget_met` on its
    running interval costs and the re-plan walk's prefix sums, and never
    calls this function.  It stays as the rule stated on whole plans: the
    benchmark's tracer wraps it by name in ``mpccert.engine``, and tests
    pin the alg2 budget rule through it.
    """
    j, m = np.asarray(j), np.asarray(m)
    if np.any(j < 1) or np.any(j >= m):
        raise ConfigError(f"need 1 <= j < m, got j={j}, m={m}")
    if np.any(m - j > sol_new.horizon):
        raise ConfigError(
            f"candidate needs {m - j} steps but the new plan has {sol_new.horizon}"
        )
    paid = row_sums(np.atleast_2d(sol_old.stage_costs), np.atleast_1d(j))
    planned = row_sums(np.atleast_2d(sol_new.stage_costs), np.atleast_1d(m - j))
    ok = budget_met(end_value, alpha_bar, paid, planned, sol_old.value)
    return ok if j.ndim else bool(ok[0])


def budget_met(end_value, alpha_bar, paid, planned, value):
    """The budget inequality of :func:`update_acceptable`, elementwise on arrays.

    ``end_value + alpha_bar * (paid + planned) <= value`` up to :data:`CERT_SLACK`,
    where ``value`` is the committed plan's value at its start.

    The rule does reject re-plans of exact linear-quadratic plans: no run
    on the bundled plant meets a rejection, but random plants do, such as
    the 4-state, two-control plant that ``tests/test_oracle.py`` pins at
    N = 4, alpha_bar 0.6 and forced length 2 (1 of 24 re-plans rejected).
    """
    return end_value + alpha_bar * (paid + planned) <= value + CERT_SLACK


def certificates_to_csv(certificates, slack_values, path) -> None:
    """Write interval certificates as CSV, one row per interval.

    ``slack_values[i]`` is the accumulated slack after interval ``i``
    (as kept by :class:`SlackAccumulator`).
    """
    if len(slack_values) != len(certificates):
        raise ConfigError(
            f"{len(certificates)} certificates but {len(slack_values)} slack values"
        )
    lines = [",".join(_CSV_COLUMNS)] + [
        f"{cert.n:d},{cert.sigma:d},{cert.m:d},"
        f"{cert.v_before:.17g},{cert.v_after:.17g},{cert.cost_sum:.17g},"
        f"{cert.alpha:.17g},{cert.rho:.17g},{s:.17g}"
        for cert, s in zip(certificates, slack_values)
    ]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")

"""Plant models and stage costs.

The one plant type is :class:`LinearQuadraticInstance`: linear dynamics
``x_next = A x + B u`` with the quadratic stage cost ``x'Qx + u'Ru``,
at rest at the origin, where the cost vanishes.  Its dynamics and stage
cost work row-wise on whole batches of states and controls.
:func:`load_plant` reads one from a plant description file.

Every product of a matrix with states or controls goes through one row
kernel, :func:`matvec`, with :func:`row_dot` and :func:`quad_form` on top
of it, through its column form :func:`column_matvec`, or through the plan
step of :mod:`mpccert.riccati`.  All of them work on whole batches with
elementwise ufuncs, one IEEE multiply or add per element, and add the
terms of each sum left to right, in :func:`_add_terms` or, on columns, in
place.  A row therefore gives the same bits whether it is a lone vector,
a row of a batch or part of a strided view, and a batch
costs a fixed number of ufunc calls however many rows it holds, where a
stacked ``@`` makes one BLAS call per row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, PlantFormatError


def _add_terms(terms, out=None):
    """``terms[0] + terms[1] + ...``, added left to right; the last sum, or the one term, goes into ``out``."""
    acc = terms[0]
    for j in range(1, len(terms)):
        acc = np.add(acc, terms[j], out=out if j == len(terms) - 1 else None)
    if out is not None and len(terms) == 1:
        out[...] = acc
    return acc


def matvec(M: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``M x`` for every row of ``x``: ``(..., r, c)`` and ``(..., c)`` give ``(..., r)``.

    One ufunc multiplies every entry ``M[..., i, j]`` by the column
    ``x[..., j]``; the ``c`` terms of output ``i`` are then added left to
    right, ``((M_i0 x_0 + M_i1 x_1) + M_i2 x_2) + ...``.  ``M`` is one
    matrix or a stack of matrices that broadcasts against the leading
    axes of ``x``.  The products are laid out in Fortran order, which
    keeps the row axis innermost, so each ufunc runs one long loop, and
    summed over their transpose, whose first axis is the term axis.
    """
    return _add_terms(np.multiply(M, x[..., None, :], order="F").T).T


def column_matvec(M: np.ndarray, columns) -> list[np.ndarray]:
    """``M x`` on states held as columns (``columns[j]`` is coordinate ``j`` of every state).

    Returns one new column per row of ``M``, summed left to right in place:
    the order and bits of :func:`matvec`, at most two columns live per sum.
    """
    out = []
    for row in M:
        acc = row[0] * columns[0]
        for m, x in zip(row[1:], columns[1:]):
            acc += m * x
        out.append(acc)
    return out


def row_dot(x: np.ndarray, y: np.ndarray):
    """``x' y`` for every row: ``x_0 y_0 + x_1 y_1 + ...``, added left to right."""
    return _add_terms(np.multiply(x, y, order="F").T).T


def quad_form(P: np.ndarray, X: np.ndarray):
    """``x' P x`` for every row ``x`` of ``X``, as ``row_dot(x, matvec(P, x))``.

    The summation order is fixed: ``y_i = P_i0 x_0 + P_i1 x_1 + ...`` and
    then ``x_0 y_0 + x_1 y_1 + ...``, each left to right.  ``P`` is one
    matrix or a stack of matrices that broadcasts against the leading
    axes of ``X``.  A single vector gives a NumPy scalar.
    """
    return row_dot(X, matvec(P, X))


def _check_symmetric(mat: np.ndarray, name: str) -> None:
    if not np.allclose(mat, mat.T, atol=1e-12, rtol=0.0):
        raise ConfigError(f"{name} must be symmetric")


@dataclass(frozen=True, eq=False)
class LinearQuadraticInstance:
    """Linear plant ``x+ = A x + B u`` with cost ``x'Qx + u'Ru``.

    ``Q`` must be symmetric positive semidefinite and ``R`` symmetric
    positive definite.  The equilibrium is the origin.  The plant keeps
    read-only copies of the four arrays it is given, so nothing built
    from them can go stale: :mod:`mpccert.riccati` keeps the plant's one
    Riccati ladder, shared by every solver of the plant, in ``_ladder``.

    Attributes
    ----------
    A : ndarray, shape (n, n)
    B : ndarray, shape (n, m)
    Q : ndarray, shape (n, n)
    R : ndarray, shape (m, m)
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    _ladder: object = field(default=None, init=False, repr=False)

    def __post_init__(self):
        a, b, q, r = (np.array(mat, dtype=float, ndmin=2) for mat in (self.A, self.B, self.Q, self.R))
        n = a.shape[0]
        if a.shape != (n, n):
            raise ConfigError(f"A must be square, got shape {a.shape}")
        if b.shape[0] != n:
            raise ConfigError(f"B must have {n} rows, got shape {b.shape}")
        m = b.shape[1]
        if n < 1 or m < 1:
            raise ConfigError(f"state_dim and control_dim must be positive, got {n} and {m}")
        if q.shape != (n, n):
            raise ConfigError(f"Q must have shape ({n}, {n}), got {q.shape}")
        if r.shape != (m, m):
            raise ConfigError(f"R must have shape ({m}, {m}), got {r.shape}")
        for name, mat in (("A", a), ("B", b), ("Q", q), ("R", r)):
            if not np.isfinite(mat).all():
                raise ConfigError(f"{name} must have finite entries")
        _check_symmetric(q, "Q")
        _check_symmetric(r, "R")
        if np.min(np.linalg.eigvalsh(q)) < -1e-12:
            raise ConfigError("Q must be positive semidefinite")
        if np.min(np.linalg.eigvalsh(r)) <= 0.0:
            raise ConfigError("R must be positive definite")
        for name, mat in (("A", a), ("B", b), ("Q", q), ("R", r)):
            mat.setflags(write=False)
            object.__setattr__(self, name, mat)

    @property
    def state_dim(self) -> int:
        return self.A.shape[0]

    @property
    def control_dim(self) -> int:
        return self.B.shape[1]

    def dynamics(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """``A x + B u`` through :func:`matvec`, row-wise on ``(..., n)`` states."""
        return matvec(self.A, x) + matvec(self.B, u)

    def stage_cost(self, x: np.ndarray, u: np.ndarray):
        """``x'Qx + u'Ru``, row-wise when ``x`` and ``u`` stack several rows."""
        return quad_form(self.Q, x) + quad_form(self.R, u)


_SCALAR_KEYS = ("state_dim", "control_dim")
_BLOCK_KEYS = ("A", "B", "Q", "R", "equilibrium_state", "equilibrium_control")


def load_plant(path) -> LinearQuadraticInstance:
    """Parse a plant description file.

    The format is line oriented.  ``state_dim`` and ``control_dim`` are
    scalars on one line; ``A``, ``B``, ``Q`` and ``R`` are section
    headers followed by one matrix row per line.  Optional sections
    ``equilibrium_state`` and ``equilibrium_control`` each take a single
    row (the linear-quadratic family requires these to be zero, so they
    exist mostly for documentation).  ``#`` starts a comment.  Errors
    carry the offending 1-based line number.
    """
    scalars: dict[str, int] = {}
    blocks: dict[str, list[list[float]]] = {}
    current: str | None = None

    try:
        # A byte that is not UTF-8 reads as a lone surrogate, so its line is known.
        fh = open(path, encoding="utf-8", errors="surrogateescape")
    except OSError as exc:
        raise PlantFormatError(f"cannot read plant file {path}: {exc}") from exc
    with fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(raw[exc.start]) - 0xDC00
                raise PlantFormatError(f"byte 0x{byte:02x} is not UTF-8 text", line=lineno) from None
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if tokens[0] in _SCALAR_KEYS:
                key = tokens[0]
                if key in scalars:
                    raise PlantFormatError(f"duplicate {key}", line=lineno)
                if len(tokens) != 2:
                    raise PlantFormatError(f"expected '{key} <int>'", line=lineno)
                try:
                    scalars[key] = int(tokens[1])
                except ValueError:
                    raise PlantFormatError(
                        f"invalid integer {tokens[1]!r} for {key}", line=lineno
                    ) from None
                current = None
                continue
            if tokens[0] in _BLOCK_KEYS:
                if len(tokens) != 1:
                    raise PlantFormatError(
                        f"section header {tokens[0]!r} takes no values on its line",
                        line=lineno,
                    )
                if tokens[0] in blocks:
                    raise PlantFormatError(f"duplicate section {tokens[0]}", line=lineno)
                current = tokens[0]
                blocks[current] = []
                continue
            # Anything else must be a numeric row of the current section.
            if current is None:
                raise PlantFormatError(f"unexpected content {text!r}", line=lineno)
            try:
                row = [float(tok) for tok in tokens]
            except ValueError:
                raise PlantFormatError(
                    f"invalid number in row {text!r}", line=lineno
                ) from None
            if not np.isfinite(row).all():
                raise PlantFormatError(f"non-finite number in row {text!r}", line=lineno)
            rows = blocks[current]
            if rows and len(rows[0]) != len(row):
                raise PlantFormatError(
                    f"row has {len(row)} entries, expected {len(rows[0])}",
                    line=lineno,
                )
            rows.append(row)

    for key in _SCALAR_KEYS:
        if key not in scalars:
            raise PlantFormatError(f"missing {key}")
    for key in ("A", "B", "Q", "R"):
        if key not in blocks or not blocks[key]:
            raise PlantFormatError(f"missing section {key}")

    n, m = scalars["state_dim"], scalars["control_dim"]
    shapes = {"A": (n, n), "B": (n, m), "Q": (n, n), "R": (m, m)}
    mats = {}
    for key, want in shapes.items():
        mat = np.array(blocks[key], dtype=float)
        if mat.shape != want:
            raise PlantFormatError(f"section {key} has shape {mat.shape}, expected {want}")
        mats[key] = mat
    for key, dim in (("equilibrium_state", n), ("equilibrium_control", m)):
        if key in blocks:
            vec = np.array(blocks[key], dtype=float).ravel()
            if vec.shape != (dim,):
                raise PlantFormatError(f"section {key} must have {dim} entries")
            if np.max(np.abs(vec)) > 0.0:
                raise PlantFormatError(
                    f"{key} must be zero for a linear-quadratic plant"
                )

    return LinearQuadraticInstance(A=mats["A"], B=mats["B"], Q=mats["Q"], R=mats["R"])

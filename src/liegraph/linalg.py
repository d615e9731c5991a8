"""Exact rational matrices, reduced row echelon form, and canonical subspaces.

Everything downstream is a rank decision, so all arithmetic is over
``fractions.Fraction`` and every subspace is kept in a canonical RREF
basis: two subspaces are equal iff their basis matrices are identical.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

Scalar = Fraction
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_scalar(x) -> Fraction:
    """Coerce ints, Fractions and "p/q" strings to an exact rational."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def as_vector(v: Iterable) -> Vector:
    return tuple(as_scalar(x) for x in v)


class Matrix:
    """Immutable row-major matrix of exact rationals."""

    __slots__ = ("rows", "cols", "_e")

    def __init__(self, rows: int, cols: int, entries: Sequence):
        entries = tuple(as_scalar(x) for x in entries)
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        self.rows = rows
        self.cols = cols
        self._e = entries

    @classmethod
    def _trusted(cls, rows: int, cols: int, entries: tuple) -> "Matrix":
        """Wrap a tuple of rows * cols Fractions without coercing or checking.

        Only for results of operations on Matrix entries, which are
        Fractions already."""
        m = object.__new__(cls)
        m.rows = rows
        m.cols = cols
        m._e = entries
        return m

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [tuple(r) for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [x for r in rows for x in r])

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    def __getitem__(self, rc: tuple[int, int]) -> Fraction:
        r, c = rc
        return self._e[r * self.cols + c]

    def row(self, r: int) -> Vector:
        return self._e[r * self.cols : (r + 1) * self.cols]

    def column(self, c: int) -> Vector:
        return tuple(self._e[r * self.cols + c] for r in range(self.rows))

    def row_list(self) -> list[Vector]:
        return [self.row(r) for r in range(self.rows)]

    def flatten(self) -> Vector:
        """Row-major flattening; the convention for all spans of matrices."""
        return self._e

    def transpose(self) -> "Matrix":
        e, cols, rows = self._e, self.cols, self.rows
        return Matrix._trusted(cols, rows, tuple(
            e[r * cols + c] for c in range(cols) for r in range(rows)))

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix._trusted(self.rows, self.cols, tuple(
            a + b if b else a for a, b in zip(self._e, other._e)))

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_shape(other)
        return Matrix._trusted(self.rows, self.cols, tuple(
            a - b if b else a for a, b in zip(self._e, other._e)))

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(self.rows, self.cols, tuple(-a for a in self._e))

    def scale(self, s) -> "Matrix":
        s = as_scalar(s)
        return Matrix._trusted(self.rows, self.cols, tuple(s * a for a in self._e))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        k_dim, n = self.cols, other.cols
        # nonzero (column, entry) pairs of each row of the right operand
        right = [[(c, b) for c, b in enumerate(other._e[k * n:(k + 1) * n]) if b]
                 for k in range(other.rows)]
        out = []
        for r in range(self.rows):
            acc = [ZERO] * n
            for k, a in enumerate(self._e[r * k_dim:(r + 1) * k_dim]):
                if a:
                    for c, b in right[k]:
                        acc[c] += a * b
            out.extend(acc)
        return Matrix._trusted(self.rows, n, tuple(out))

    def apply(self, v: Sequence) -> Vector:
        """Matrix-vector product."""
        v = as_vector(v)
        if len(v) != self.cols:
            raise ValueError(f"vector length {len(v)} != cols {self.cols}")
        nz = [(c, x) for c, x in enumerate(v) if x]
        e, cols = self._e, self.cols
        out = []
        for r in range(self.rows):
            base = r * cols
            acc = ZERO
            for c, x in nz:
                a = e[base + c]
                if a:
                    acc += a * x
            out.append(acc)
        return tuple(out)

    def commutator(self, other: "Matrix") -> "Matrix":
        return self @ other - other @ self

    def is_zero(self) -> bool:
        return not any(self._e)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self._e == other._e)

    def __hash__(self):
        return hash((self.rows, self.cols, self._e))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _check_shape(self, other: "Matrix"):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ValueError("vstack of nothing")
    cols = mats[0].cols
    if any(m.cols != cols for m in mats):
        raise ValueError("column count mismatch")
    rows = []
    for m in mats:
        rows.extend(m.row_list())
    return Matrix.from_rows(rows)


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place Gauss-Jordan to unique RREF. Returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    # drop all-zero rows up front; typical inputs here are sparse systems
    rows = [r for r in rows if any(r)]
    pivots: list[int] = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        prow = rows[pr]
        inv = ONE / prow[pc]
        if inv != ONE:
            for c in range(pc, ncols):
                if prow[c]:
                    prow[c] *= inv
        nzc = [c for c in range(pc, ncols) if prow[c]]
        for r in range(len(rows)):
            if r == pr:
                continue
            f = rows[r][pc]
            if f:
                rr = rows[r]
                for c in nzc:
                    rr[c] -= f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    rows = [r for r in rows[:pr]]
    return rows, pivots


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Unique reduced row echelon form of m (zero rows kept) and pivot columns."""
    rows, pivots = _rref_rows([list(m.row(r)) for r in range(m.rows)])
    out = rows + [[ZERO] * m.cols for _ in range(m.rows - len(rows))]
    return Matrix.from_rows(out) if out else Matrix.zero(0, m.cols), pivots


def rank(m: Matrix) -> int:
    return len(_rref_rows([list(m.row(r)) for r in range(m.rows)])[1])


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """One solution of m x = b (free variables zeroed), or None if inconsistent."""
    b = as_vector(b)
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = [list(m.row(r)) + [b[r]] for r in range(m.rows)]
    rows, pivots = _rref_rows(aug)
    x = [ZERO] * m.cols
    for r, pc in enumerate(pivots):
        if pc == m.cols:  # pivot in the rhs column: inconsistent
            return None
        x[pc] = rows[r][m.cols]
    return tuple(x)


class Subspace:
    """A subspace of Q^n held as an RREF row basis; equality is syntactic."""

    __slots__ = ("ambient_dim", "basis", "_rows")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols != ambient_dim:
            raise ValueError("basis width != ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis  # trusted canonical; use from_rows to canonicalize
        self._rows = None  # (pivot, nonzero (column, entry) pairs) per row

    @classmethod
    def from_rows(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        vecs = [list(as_vector(v)) for v in vectors]
        for v in vecs:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
        rows, _ = _rref_rows(vecs)
        return cls(ambient_dim, Matrix.from_rows(rows) if rows else Matrix.zero(0, ambient_dim))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.zero(0, ambient_dim))

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def basis_vectors(self) -> list[Vector]:
        return self.basis.row_list()

    def coordinates(self, v: Sequence) -> Optional[Vector]:
        """Coordinates of v in the basis, or None if v is not in the span.

        In RREF each basis row is 1 at its pivot column and every other row
        is 0 there, so the coordinate of a row is the entry of v at its
        pivot. One exact reconstruction confirms that v lies in the span.
        """
        v = as_vector(v)
        if len(v) != self.ambient_dim:
            raise ValueError(
                f"vector length {len(v)} != ambient dimension {self.ambient_dim}")
        if self._rows is None:
            self._rows = []
            for row in self.basis.row_list():
                nz = [(c, x) for c, x in enumerate(row) if x]
                self._rows.append((nz[0][0], nz))
        coords = []
        recon = [ZERO] * self.ambient_dim
        for pivot, nz in self._rows:
            a = v[pivot]
            coords.append(a)
            if a:
                for c, x in nz:
                    recon[c] += a * x
        return tuple(coords) if tuple(recon) == v else None

    def contains_vector(self, v: Sequence) -> bool:
        return self.coordinates(v) is not None

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.basis_vectors())

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.basis == other.basis)

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def _check_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch {self.ambient_dim} vs {other.ambient_dim}")

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of {v : m v = 0}."""
    rows, pivots = _rref_rows([list(m.row(r)) for r in range(m.rows)])
    free = [c for c in range(m.cols) if c not in pivots]
    vecs = []
    for fc in free:
        v = [ZERO] * m.cols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -rows[r][fc]
        vecs.append(v)
    return Subspace.from_rows(m.cols, vecs)

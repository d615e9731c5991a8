"""Exact rational matrices, reduced row echelon form, and canonical subspaces.

Everything downstream is a rank decision, so all arithmetic is exact: a
scalar is an ``int`` or a ``fractions.Fraction``, never a float.
``as_scalar`` is the one way in, and gives an ``int`` for every integral
value; the one division, ``sparse_rref``'s scaling of a new pivot row, goes
through ``Fraction`` and hands back an ``int`` again when the quotient is
integral. Nothing else normalises: sums, differences and products of ints
stay ints, but arithmetic on Fractions can leave an integral ``Fraction``
such as ``Fraction(2, 1)``. Almost every entry of the systems solved here
is a small integer, and ``int`` arithmetic skips the ``Fraction`` object
work. ``str``, ``==`` and ``hash`` agree between an ``int`` and the equal
``Fraction``, so which type an entry has never shows in an output or in a
comparison.

A Matrix is its nonzeros: per row, the (column, entry) pairs in column
order, with no zero entry. Every operation reads that form and builds its
result from it alone, ``Matrix(cols, nonzeros)``, whose row count is the
number of rows given; ``Matrix.from_rows`` is the one way in from dense
entries. Equality and hashing compare the stored form, so no zero entry is
stored, tested or copied. A subspace is likewise kept as the rows of its
canonical RREF basis, as the kernel gives them: two subspaces are equal iff
these rows are equal. A vector's coordinates are its nonzero terms
``((i, a), ...)``, read at the pivots off its ``{column: entry}``
nonzeros, and combinations take terms. A matrix's dense forms,
``Matrix.row`` and ``flatten``, are views built on request, for printing,
the benchmark's trace counters and tests; a subspace has none.

All elimination is done by one sparse Gauss-Jordan kernel, ``sparse_rref``,
on rows held as ``{column: nonzero entry}``: the systems solved here are
almost all zeros (a Leibniz row of G has a few nonzeros among n² columns),
and the kernel never touches a zero. The RREF of a row space is
unique, so it gives the same canonical basis as any exact Gauss-Jordan
elimination. ``rank``, ``solve``, ``sparse_nullspace`` and ``span`` call
it. ``span`` is the one way to canonicalize rows into a ``Subspace``;
``Subspace.from_rows`` hands it dense vectors. ``sparse_nullspace`` takes
sparse rows and ``common_kernel`` the nonzeros of several matrices, so a
system built sparse or held as matrices is never stacked dense.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Scalar = Union[int, Fraction]
Vector = tuple[Scalar, ...]
SparseRow = dict[int, Scalar]  # column -> nonzero entry
Terms = tuple[tuple[int, Scalar], ...]  # nonzero (index, entry), index increasing

ZERO = 0


def as_scalar(x) -> Scalar:
    """Coerce ints, Fractions and "p/q" strings to an exact rational: an
    int when the value is integral (a bool becomes 0 or 1), else a Fraction."""
    if type(x) is int:
        return x
    if isinstance(x, (int, str)):
        x = Fraction(x)
    elif not isinstance(x, Fraction):
        raise TypeError(f"not an exact rational: {x!r}")
    return x.numerator if x.denominator == 1 else x


def as_vector(v: Iterable) -> Vector:
    return tuple(as_scalar(x) for x in v)


class Matrix:
    """Immutable matrix of exact rationals (ints and Fractions), held as its
    nonzeros: per row, the (column, entry) pairs in column order, with no
    zero entry. Matrix(cols, nonzeros) takes that stored form as it is and
    checks nothing, and rows is len(nonzeros): every operation builds its
    result this way from entries that are exact already. from_rows is the
    one way in from dense entries. Equality and hashing read (cols,
    nonzeros); row and flatten are dense views built on request."""

    __slots__ = ("rows", "cols", "nonzeros")

    def __init__(self, cols: int, nonzeros: tuple):
        self.rows = len(nonzeros)
        self.cols = cols
        self.nonzeros = nonzeros

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        """The matrix of dense rows, each entry made exact by as_scalar."""
        rows = [as_vector(r) for r in rows]
        if not rows:
            raise ValueError("from_rows needs at least one row")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(ncols, tuple(tuple([(c, x) for c, x in enumerate(r) if x])
                                for r in rows))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(cols, ((),) * rows)

    def row(self, r: int) -> Vector:
        return _dense(self.nonzeros[r], self.cols)

    def flatten(self) -> Vector:
        """Row-major dense view: entry (r, c) at r * cols + c, the index by
        which a span of matrices keys their nonzeros."""
        return tuple(x for r in range(self.rows) for x in self.row(r))

    def transpose(self) -> "Matrix":
        out = [[] for _ in range(self.cols)]
        for r, row in enumerate(self.nonzeros):
            for c, x in row:
                out[c].append((r, x))
        return Matrix(self.rows, tuple(map(tuple, out)))

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        out = []
        for a, b in zip(self.nonzeros, other.nonzeros):
            acc = dict(a)
            for c, x in b:
                acc[c] = acc.get(c, ZERO) + x
            out.append(acc)
        return Matrix(self.cols, _packed(out))

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, s) -> "Matrix":
        s = as_scalar(s)
        if not s:
            return Matrix.zero(self.rows, self.cols)
        return Matrix(self.cols, tuple(tuple([(c, s * x) for c, x in row])
                                       for row in self.nonzeros))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} @ {other.shape}")
        right, out = other.nonzeros, []
        for row in self.nonzeros:
            acc: SparseRow = {}
            for k, a in row:
                for c, b in right[k]:
                    acc[c] = acc.get(c, ZERO) + a * b
            out.append(acc)
        return Matrix(other.cols, _packed(out))

    def commutator(self, other: "Matrix", first: int = 0) -> "Matrix":
        """Rows first … n−1 of self @ other − other @ self, an (n − first) × n
        Matrix, each row summed into one accumulator; both must be square of
        the same size n. first = 0 gives the whole commutator."""
        n = self.rows
        if self.shape != other.shape or self.cols != n:
            raise ValueError(f"no commutator of {self.shape} and {other.shape}")
        a_nz, b_nz = self.nonzeros, other.nonzeros
        out = []
        for r in range(first, n):
            acc: SparseRow = {}
            for k, a in a_nz[r]:
                for c, b in b_nz[k]:
                    acc[c] = acc.get(c, ZERO) + a * b
            for k, b in b_nz[r]:
                for c, a in a_nz[k]:
                    acc[c] = acc.get(c, ZERO) - b * a
            out.append(acc)
        return Matrix(n, _packed(out))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.cols == other.cols
                and self.nonzeros == other.nonzeros)

    def __hash__(self):
        return hash((self.cols, self.nonzeros))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in self.row(r)) for r in range(self.rows))
        return f"Matrix({self.rows}x{self.cols}: {body})"


def _packed(rows: Iterable[Mapping[int, Scalar]]) -> tuple:
    """Per {column: entry} row, its nonzero (column, entry) pairs in column
    order: the stored form of a Matrix."""
    return tuple([tuple(sorted([(c, x) for c, x in r.items() if x])) if r else ()
                  for r in rows])


def sparse_rref(rows: Iterable[Mapping[int, Scalar]]
                ) -> tuple[list[SparseRow], list[int]]:
    """The nonzero rows of the unique RREF of the given sparse rows, in pivot
    order, and their pivot columns. The input rows are not changed.

    The pivot rows are kept fully reduced: 1 at their pivot, 0 at every
    other pivot column. So one pass of subtractions clears every pivot
    column from an incoming row, and what is left has non-pivot columns
    only. If it is nonzero, its smallest column becomes a new pivot: the
    row is scaled to 1 there, and the column is cleared from every pivot
    row that holds it. Each pivot row only ever gains columns larger than
    its pivot, so at the end the rows are in reduced row echelon form and
    span the input's row space; that form is unique, so the result is the
    canonical basis whatever the order of the input rows.
    """
    piv: dict[int, SparseRow] = {}
    for src in rows:
        r = {c: x for c, x in src.items() if x}
        for c in [c for c in r if c in piv]:
            # the other pivot rows are 0 at c, so r[c] is still r's own entry
            _subtract(r, r[c], piv[c])
        if not r:
            continue
        p = min(r)
        lead = r[p]
        if lead != 1:
            r = {k: as_scalar(Fraction(x) / lead) for k, x in r.items()}
        for row in piv.values():
            if p in row:
                _subtract(row, row[p], r)
        piv[p] = r
    pivots = sorted(piv)
    return [piv[p] for p in pivots], pivots


def _subtract(row: SparseRow, f: Scalar, other: Mapping[int, Scalar]) -> None:
    """row -= f * other, in place, keeping only nonzero entries."""
    for k, v in other.items():
        x = row.get(k, ZERO) - f * v
        if x:
            row[k] = x
        else:
            del row[k]


def _dense(row: Iterable[tuple[int, Scalar]], ncols: int) -> Vector:
    """The vector of width ncols with the given (column, entry) pairs."""
    v = [ZERO] * ncols
    for c, x in row:
        v[c] = x
    return tuple(v)


def rank(m: Matrix) -> int:
    return len(sparse_rref(dict(row) for row in m.nonzeros)[1])


def solve(m: Matrix, b: Sequence) -> Optional[Vector]:
    """One solution of m x = b (free variables zeroed), or None if inconsistent."""
    b = as_vector(b)
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    aug = [dict(row) for row in m.nonzeros]
    for row, x in zip(aug, b):
        if x:
            row[m.cols] = x
    rows, pivots = sparse_rref(aug)
    if pivots and pivots[-1] == m.cols:  # pivot in the rhs column: inconsistent
        return None
    x = [ZERO] * m.cols
    for row, pc in zip(rows, pivots):
        x[pc] = row.get(m.cols, ZERO)
    return tuple(x)


class Subspace:
    """A subspace of Q^n held as its canonical RREF basis: per row, its
    nonzero (column, entry) pairs in column order, the pivot's 1 first;
    pivot_row maps each pivot column to its row. It has no dense view: the
    rows, and the coordinates _coordinates reads, are nonzero terms."""

    __slots__ = ("ambient_dim", "rows", "pivot_row")

    def __init__(self, ambient_dim: int, rows: tuple):
        self.ambient_dim = ambient_dim
        self.rows = rows  # trusted canonical; use span to canonicalize
        self.pivot_row = {row[0][0]: i for i, row in enumerate(rows)}

    @classmethod
    def from_rows(cls, ambient_dim: int, vectors: Sequence[Sequence]) -> "Subspace":
        """The span of dense vectors of length ambient_dim, through span: a
        plain Subspace, on whichever class it is called."""
        rows = []
        for v in vectors:
            v = as_vector(v)
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
            rows.append({c: x for c, x in enumerate(v) if x})
        return span(ambient_dim, rows)

    @property
    def dim(self) -> int:
        return len(self.rows)

    def combination(self, terms: Iterable[tuple[int, Scalar]]) -> SparseRow:
        """sum of a * (basis row i) over the terms (i, a), as {column: entry}."""
        v: SparseRow = {}
        for i, a in terms:
            for c, x in self.rows[i]:
                v[c] = v.get(c, ZERO) + a * x
        return {c: x for c, x in v.items() if x}

    def _coordinates(self, v: Mapping[int, Scalar]) -> Optional[Terms]:
        """The nonzero coordinates (i, a), i increasing, of the vector whose
        nonzeros are v, {column: entry}, or None if it is not in the span.

        In RREF each basis row is 1 at its pivot column and every other row
        is 0 there, so the coordinate of a row is the entry of v at its
        pivot: only v's nonzeros at pivots give terms. One exact
        reconstruction confirms that v lies in the span."""
        index = self.pivot_row
        terms = tuple(sorted([(index[c], x) for c, x in v.items() if c in index]))
        return terms if self.combination(terms) == v else None

    def __eq__(self, other) -> bool:
        return (isinstance(other, Subspace)
                and self.ambient_dim == other.ambient_dim
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ambient_dim, self.rows))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"


def span(ambient_dim: int, rows: Iterable[Mapping[int, Scalar]]) -> Subspace:
    """The span of sparse {column: entry} rows in Q^ambient_dim, reduced to
    its canonical basis: the one way to canonicalize rows."""
    return Subspace(ambient_dim, _packed(sparse_rref(rows)[0]))


def nullspace(m: Matrix) -> Subspace:
    """Canonical basis of {v : m v = 0}."""
    return common_kernel((m,))


def common_kernel(mats: Sequence[Matrix]) -> Subspace:
    """Canonical basis of {v : M v = 0 for every M in mats}, equal-width
    matrices, from the rows of their nonzeros; no stacked copy is built."""
    return sparse_nullspace(mats[0].cols,
                            (dict(row) for m in mats for row in m.nonzeros))


def sparse_nullspace(ncols: int, rows: Iterable[Mapping[int, Scalar]]) -> Subspace:
    """Canonical basis of the common kernel of sparse rows of width ncols.

    Each free column f of the rows' RREF gives the kernel vector that is 1
    at f and minus the RREF's column f at the pivots."""
    reduced, pivots = sparse_rref(rows)
    pivot_set = set(pivots)
    kernel = {f: {f: 1} for f in range(ncols) if f not in pivot_set}
    for p, row in zip(pivots, reduced):
        for c, x in row.items():
            if c != p:
                kernel[c][p] = -x
    return span(ncols, kernel.values())

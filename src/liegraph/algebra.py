"""Lie algebras from structure constants: brackets, ad, center, Der(G).

A LieAlgebra holds its structure constants once, sparse: pairs[i][j] is
the nonzero (k, c) of [e_i, e_j] = sum_k c e_k. Every reader in the package
(bracket, ad, the Jacobi check, the cocycle rule, semidirect products, the
printers) walks these pairs and never touches a zero. The dense table
c[i][j][k] is only a view, built on first read for tests and oracles.
Antisymmetry holds by construction and Jacobi is checked in full when an
algebra is built, so downstream code never rechecks either.

A Representation is a Lie algebra acting on Q^n. Its invariants, 1-cocycles
and 1-coboundaries (Chevalley-Eilenberg) are computed in one place: for the
adjoint action of G they are the center, Der(G) and the inner derivations,
and dtheory reads the d-analogues off the natural action of Der(G) on G.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Callable, NamedTuple, Optional, Sequence

from .linalg import (ONE, Matrix, Scalar, SparseRow, Subspace, Vector, ZERO,
                     as_vector, nullspace, rank, rref_kernel, solve,
                     sparse_rref, vstack)


class LieError(Exception):
    """Base class for construction/validation failures."""


class IndexOutOfRange(LieError):
    pass


class AntisymmetryConflict(LieError):
    pass


class JacobiViolation(LieError):
    def __init__(self, triple: tuple[int, int, int], residual: Vector):
        self.triple = triple
        self.residual = residual
        super().__init__(
            f"Jacobi identity fails on basis triple {triple}, residual {residual}")


class NotClosed(LieError):
    def __init__(self, pair: tuple[int, int], witness: Matrix):
        self.pair = pair
        self.witness = witness
        super().__init__(f"commutator of basis elements {pair} escapes the span")


class DependentBasis(LieError):
    pass


class InternalConsistencyError(LieError):
    """A solve that must succeed by construction failed; data is corrupted."""


Terms = tuple[tuple[int, Scalar], ...]  # nonzero (k, c), k increasing


class LieAlgebra:
    """Structure constants held once, as the nonzero terms of each bracket:
    pairs[i][j] gives [e_i, e_j] = sum of c e_k over its (k, c), and
    pairs[j][i] is its negation. Build one with make_lie_algebra,
    lie_algebra_from_table or semidirect, which check Jacobi.

    Equality and hashing read (dim, basis_names, pairs) alone; the views
    built on first read (table, adjoint) never take part."""

    def __init__(self, dim: int, basis_names: tuple[str, ...],
                 pairs: tuple[tuple[Terms, ...], ...]):
        self.dim = dim
        self.basis_names = basis_names
        self.pairs = pairs

    def __eq__(self, other) -> bool:
        return (isinstance(other, LieAlgebra) and self.dim == other.dim
                and self.basis_names == other.basis_names
                and self.pairs == other.pairs)

    def __hash__(self):
        return hash((self.dim, self.basis_names, self.pairs))

    @cached_property
    def table(self) -> tuple:
        """Dense view: table[i][j] is the n coefficients of [e_i, e_j].
        Built on first read, for tests and oracles; the package reads pairs."""
        def dense(terms: Terms) -> Vector:
            v = [ZERO] * self.dim
            for k, c in terms:
                v[k] = c
            return tuple(v)
        return tuple(tuple(dense(t) for t in row) for row in self.pairs)

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        x, y = as_vector(x), as_vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length != dim")
        out = [ZERO] * self.dim
        y_nz = [(j, yj) for j, yj in enumerate(y) if yj]
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.pairs[i]
            for j, yj in y_nz:
                s = xi * yj
                for k, c in row[j]:
                    out[k] += s * c
        return tuple(out)

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y]: entry (k, j) is the e_k term of [x, e_j]."""
        x = as_vector(x)
        n = self.dim
        if len(x) != n:
            raise ValueError("vector length != dim")
        e = [ZERO] * (n * n)
        for i, xi in enumerate(x):
            if xi:
                for j, terms in enumerate(self.pairs[i]):
                    for k, c in terms:
                        e[k * n + j] += xi * c
        return Matrix._trusted(n, n, tuple(e))

    @cached_property
    def adjoint(self) -> Representation:
        """G acting on itself by ad, built on first read."""
        return Representation(
            tuple(self.ad(_unit(self.dim, i)) for i in range(self.dim)), self)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


def _unit(n: int, j: int) -> Vector:
    return tuple(ONE if t == j else ZERO for t in range(n))


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


def _terms(vec: Vector) -> Terms:
    return tuple((k, c) for k, c in enumerate(vec) if c)


def _negated(terms: Terms) -> Terms:
    return tuple((k, -c) for k, c in terms)


def _validate_jacobi(n: int, pairs) -> None:
    """Raise JacobiViolation on the first basis triple i < j < l, in
    combinations order, whose cyclic sum [e_i,[e_j,e_l]] + ... is nonzero."""
    for i, j, l in combinations(range(n), 3):
        acc: dict[int, Scalar] = {}
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            for t, coeff in pairs[b][c]:
                for k, ck in pairs[a][t]:
                    acc[k] = acc.get(k, ZERO) + coeff * ck
        if any(acc.values()):
            raise JacobiViolation((i, j, l),
                                  tuple(acc.get(k, ZERO) for k in range(n)))


def _from_brackets(n: int, upper: dict[tuple[int, int], Terms],
                   basis_names: Optional[Sequence[str]]) -> LieAlgebra:
    """The algebra with [e_i, e_j] = upper[i, j] for i < j (absent pairs
    commute), after the full Jacobi check."""
    rows = [[()] * n for _ in range(n)]
    for (i, j), terms in upper.items():
        rows[i][j] = terms
        rows[j][i] = _negated(terms)
    pairs = tuple(tuple(r) for r in rows)
    _validate_jacobi(n, pairs)
    names = tuple(basis_names) if basis_names is not None else _default_names(n)
    if len(names) != n:
        raise LieError("basis_names length != dim")
    return LieAlgebra(n, names, pairs)


def lie_algebra_from_table(table,
                           basis_names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Validate a full n x n x n table c[i][j][k] (shape, antisymmetry,
    Jacobi) and wrap it."""
    n = len(table)
    if any(len(row) != n or any(len(v) != n for v in row) for row in table):
        raise LieError(f"structure constants must form a {n} x {n} x {n} table")
    return make_lie_algebra(
        n, [(i, j, table[i][j]) for i in range(n) for j in range(n)], basis_names)


def make_lie_algebra(n: int, brackets: Sequence[tuple[int, int, Sequence]],
                     basis_names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Build an algebra from sparse (i, j, [e_i,e_j]-coefficients) entries.

    The antisymmetric completion is automatic; giving both (i,j) and (j,i)
    inconsistently, or a nonzero (i,i), raises AntisymmetryConflict.
    """
    if n <= 0:
        raise LieError("dimension must be positive")
    seen: dict[tuple[int, int], Terms] = {}
    for (i, j, vec) in brackets:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"bracket indices ({i},{j}) out of range for dim {n}")
        vec = as_vector(vec)
        if len(vec) != n:
            raise LieError(f"bracket result for ({i},{j}) has length {len(vec)}, want {n}")
        terms = _terms(vec)
        key, val = ((i, j), terms) if i < j else ((j, i), _negated(terms))
        if key in seen:
            if seen[key] != val:
                raise AntisymmetryConflict(
                    f"pair {key} given twice with inconsistent values")
            continue
        seen[key] = val
    for i in range(n):
        if seen.get((i, i)):
            raise AntisymmetryConflict(f"c[{i}][{i}] != -c[{i}][{i}]")
    return _from_brackets(n, seen, basis_names)


def semidirect(k: LieAlgebra, v: LieAlgebra,
               action: Callable[[int, int], Vector]) -> LieAlgebra:
    """The semidirect product k ⋉ v on k's basis followed by v's.

    k and v keep their own brackets, and [k_i, v_j] = action(i, j), given
    as coordinates in v's basis; action must make k act on v by derivations.
    """
    m, n = k.dim, v.dim
    upper = {(i, j): k.pairs[i][j] for i, j in combinations(range(m), 2)}
    for i in range(m):
        for j in range(n):
            vec = as_vector(action(i, j))
            if len(vec) != n:
                raise LieError(f"action({i},{j}) has length {len(vec)}, want {n}")
            upper[i, m + j] = tuple((m + t, c) for t, c in enumerate(vec) if c)
    for i, j in combinations(range(n), 2):
        upper[m + i, m + j] = tuple((m + t, c) for t, c in v.pairs[i][j])
    return _from_brackets(m + n, upper, k.basis_names + v.basis_names)


def abelian(n: int) -> LieAlgebra:
    return make_lie_algebra(n, [])


class Representation:
    """A Lie algebra L acting on V = Q^n: rho[i] is the n x n matrix of L's
    i-th basis element. A linear map phi: L -> V is held as the n x m matrix
    whose column t is phi(e_t), flattened row-major (phi[k][t] at k*m + t).

    algebra is L, whose structure constants only the cocycle rule reads.

    The cocycle rule is built as the sparse rows of cocycle_system, which
    has two readers. cocycles() reduces them once (cocycle_rref) and takes
    their common kernel; for the adjoint action of G the reduced rows are
    the Leibniz rule of G, whose kernel is Der(G), and fullgraph reads them
    again as equations. fullgraph.der_cg_blocks reads the rows of G acting
    on C(G) through C(G)'s adjoint: the rule on δ restricted to G.

    is_cocycle(phi) needs no rows: it evaluates the rule on phi directly,
    walking the algebra's pairs and the nonzeros of rho, so checking a map
    on a large algebra never builds that algebra's system.
    """

    def __init__(self, rho: tuple[Matrix, ...], algebra: LieAlgebra):
        self.rho = rho
        self.algebra = algebra

    def invariants(self) -> Subspace:
        """{v : rho_i v = 0 for every i}, the kernel of the stacked rho."""
        return nullspace(vstack(self.rho))

    @cached_property
    def cocycle_system(self) -> tuple[SparseRow, ...]:
        """The cocycle rule as sparse rows over the entries of phi: one row
        per basis pair i < j and coordinate k of
        phi([e_i, e_j]) - rho_i phi(e_j) + rho_j phi(e_i), read off the
        nonzero structure constants and the nonzero entries of rho. Rows
        that are identically zero are left out."""
        rho, s = self.rho, self.algebra.pairs
        m, n = len(rho), rho[0].rows
        rows = []
        for i, j in combinations(range(m), 2):
            for k in range(n):
                row = {k * m + t: c for t, c in s[i][j]}
                for a, c in rho[i].nonzeros[k]:
                    row[a * m + j] = row.get(a * m + j, ZERO) - c
                for a, c in rho[j].nonzeros[k]:
                    row[a * m + i] = row.get(a * m + i, ZERO) + c
                row = {col: c for col, c in row.items() if c}
                if row:
                    rows.append(row)
        return tuple(rows)

    @cached_property
    def cocycle_rref(self) -> tuple[list[SparseRow], list[int]]:
        """The RREF of the cocycle system and its pivot columns: the same
        equations, reduced, built once."""
        return sparse_rref(self.cocycle_system)

    def cocycles(self) -> Subspace:
        """The 1-cocycles, the kernel of the cocycle system."""
        return rref_kernel(self.rho[0].rows * len(self.rho), *self.cocycle_rref)

    def coboundary(self, v: Sequence) -> Matrix:
        """The cocycle e_i -> -rho_i v."""
        return Matrix.from_rows([tuple(-c for c in r.apply(v))
                                 for r in self.rho]).transpose()

    def coboundaries(self) -> Subspace:
        """The span of the coboundaries of V's basis vectors. The
        coboundary of e_k is -rho_i[a][k] at (a, i), read off the
        nonzeros of rho."""
        m, n = len(self.rho), self.rho[0].rows
        flat: list[SparseRow] = [{} for _ in range(n)]
        for i, r in enumerate(self.rho):
            for a, row in enumerate(r.nonzeros):
                for k, c in row:
                    flat[k][a * m + i] = -c
        return Subspace._span(n * m, flat)

    @cached_property
    def _rho_columns(self) -> tuple[tuple[list[tuple[int, Scalar]], ...], ...]:
        """Per basis element i and column k, the nonzero (a, rho_i[a][k])."""
        n = self.rho[0].rows
        out = []
        for r in self.rho:
            cols: tuple[list, ...] = tuple([] for _ in range(n))
            for a, row in enumerate(r.nonzeros):
                for k, c in row:
                    cols[k].append((a, c))
            out.append(cols)
        return tuple(out)

    def is_cocycle(self, phi: Matrix) -> bool:
        """phi([e_i, e_j]) = rho_i phi(e_j) - rho_j phi(e_i) for every i < j,
        summed from the nonzero terms of [e_i, e_j], the nonzero entries of
        phi's columns and the nonzero entries of rho in those columns."""
        m = len(self.rho)
        if phi.shape != (self.rho[0].rows, m):
            raise ValueError(f"a map to Q^{self.rho[0].rows} from a "
                             f"{m}-dim algebra cannot be {phi.shape}")
        cols: list[list[tuple[int, Scalar]]] = [[] for _ in range(m)]
        for k, row in enumerate(phi.nonzeros):
            for t, x in row:
                cols[t].append((k, x))
        s, rcols = self.algebra.pairs, self._rho_columns
        for i, j in combinations(range(m), 2):
            if not (s[i][j] or cols[i] or cols[j]):
                continue
            acc: dict[int, Scalar] = {}
            for t, c in s[i][j]:
                for k, x in cols[t]:
                    acc[k] = acc.get(k, ZERO) + c * x
            for k, x in cols[j]:
                for a, c in rcols[i][k]:
                    acc[a] = acc.get(a, ZERO) - c * x
            for k, x in cols[i]:
                for a, c in rcols[j][k]:
                    acc[a] = acc.get(a, ZERO) + c * x
            if any(acc.values()):
                return False
        return True


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}: the invariants of the adjoint action."""
    return g.adjoint.invariants()


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    return Subspace._span(g.dim, [dict(g.pairs[i][j])
                                  for i, j in combinations(range(g.dim), 2)])


class MatrixSpan:
    """A span of equal-shape matrices, held as the canonical RREF basis of
    their row-major flattenings; coordinates are read at its pivots."""

    def __init__(self, shape: tuple[int, int], flat_span: Subspace):
        self.shape = shape
        self.flat_span = flat_span  # in Q^(rows * cols)

    @property
    def dim(self) -> int:
        return self.flat_span.dim

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        """The basis matrices, in canonical order."""
        return tuple(Matrix._trusted(*self.shape, v)
                     for v in self.flat_span.basis_vectors())

    def matrix_of(self, coords: Sequence) -> Matrix:
        """The matrix of a coordinate vector in the canonical basis."""
        coords = as_vector(coords)
        if len(coords) != self.dim:
            raise ValueError(
                f"{len(coords)} coordinates for a span of dimension {self.dim}")
        e = [ZERO] * (self.shape[0] * self.shape[1])
        for c, row in zip(coords, self.flat_span.basis.nonzeros):
            if c:
                for t, x in row:
                    e[t] += c * x
        return Matrix._trusted(*self.shape, tuple(e))

    def coordinates(self, m: Matrix) -> Vector:
        """Coordinates of a matrix known to lie in the span; raises otherwise."""
        coords = self.flat_span._coordinates(m.flatten())
        if coords is None:
            raise InternalConsistencyError(
                f"matrix does not lie in the span of {type(self).__name__}")
        return coords

    def lie_algebra(self, bracket: Callable[[int, int], Matrix],
                    prefix: str) -> LieAlgebra:
        """The span as a Lie algebra with basis names prefix1, prefix2, ...;
        bracket(i, j) is the matrix of the bracket of basis elements i < j."""
        upper = {(i, j): _terms(self.coordinates(bracket(i, j)))
                 for i, j in combinations(range(self.dim), 2)}
        return _from_brackets(
            self.dim, upper, tuple(f"{prefix}{i + 1}" for i in range(self.dim)))


class DerivationAlgebra(MatrixSpan):
    """Der(G) in the canonical basis of the adjoint cocycle system's kernel."""

    def __init__(self, shape: tuple[int, int], flat_span: Subspace,
                 parent: LieAlgebra):
        super().__init__(shape, flat_span)
        self.parent = parent

    @cached_property
    def as_lie_algebra(self) -> LieAlgebra:
        """Commutator structure constants in this basis, built on first read."""
        b = self.matrices
        return self.lie_algebra(lambda i, j: b[i].commutator(b[j]), "D")

    @cached_property
    def ad_coordinates(self) -> Matrix:
        """The m x n matrix whose column t is the coordinates of ad(e_t)."""
        return Matrix.from_rows([self.coordinates_of(r)
                                 for r in self.parent.adjoint.rho]).transpose()

    @cached_property
    def natural(self) -> Representation:
        """Der(G) acting on G."""
        return Representation(self.matrices, self.as_lie_algebra)

    # bound here, not inherited: bench/trace_cli.py traces it through
    # this class's __dict__, as it does DDerivationSpace.coordinates_of
    coordinates_of = MatrixSpan.coordinates


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """Der(G): the 1-cocycles of the adjoint action, whose cocycle rule is
    the Leibniz rule; basis in canonical RREF order of flattenings."""
    sol = g.adjoint.cocycles()
    if sol.dim == 0:
        # cannot happen for dim >= 1 over Q (ad(g) or a grading derivation is nonzero)
        raise InternalConsistencyError("empty derivation algebra")
    return DerivationAlgebra((g.dim, g.dim), sol, g)


def inner_derivations(g: LieAlgebra) -> Subspace:
    """Span in Q^(n^2) of the flattened ad(e_i), the adjoint coboundaries."""
    return g.adjoint.coboundaries()


def induced_lie_structure(matrices: Sequence[Matrix],
                          basis_names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Structure constants of a list of matrices closed under commutators.

    Raises DependentBasis if the flattenings are dependent, NotClosed (with
    the offending pair and commutator) if a commutator leaves the span.
    """
    m = len(matrices)
    if m == 0:
        raise LieError("empty basis")
    flat = Matrix.from_rows([mat.flatten() for mat in matrices])
    if rank(flat) != m:
        raise DependentBasis("flattened matrices are linearly dependent")
    cols = flat.transpose()
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for i, j in combinations(range(m), 2):
        comm = matrices[i].commutator(matrices[j])
        coords = solve(cols, comm.flatten())
        if coords is None:
            raise NotClosed((i, j), comm)
        table[i][j] = list(coords)
        table[j][i] = [-c for c in coords]
    return lie_algebra_from_table(table, basis_names)


class CompletenessEvidence(NamedTuple):
    complete: bool
    center_dim: int
    der_dim: int
    inner_dim: int


def is_complete(g: LieAlgebra, der_dim: int, z: Subspace) -> CompletenessEvidence:
    """Trivial center z and every derivation inner. The inner derivations
    always lie in Der(G), so they are all of it iff their dimension is
    der_dim = dim Der(G)."""
    inner = inner_derivations(g)
    return CompletenessEvidence(z.dim == 0 and inner.dim == der_dim, z.dim,
                                der_dim, inner.dim)

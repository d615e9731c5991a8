"""Lie algebras from structure constants: brackets, ad, center, Der(G).

A LieAlgebra holds its structure constants once, sparse: pairs[i][j] is
the nonzero (k, c) of [e_i, e_j] = sum_k c e_k. Every reader in the package
(_ad and adjoint, the Jacobi check, the cocycle rule, semidirect products,
the printers) walks these pairs and never touches a zero. The dense table
c[i][j][k] is only a view, built on first read for tests and oracles.
Antisymmetry holds by construction. The Jacobi identity is scanned, on
every basis triple i < j < l, only where structure constants enter the
program: _validate_jacobi runs in make_lie_algebra and in
catalog.parse_algebra_file, and nowhere else. Every table the program
derives is a Lie algebra by construction, and its builder's docstring
holds the proof: a commutator table of matrices (MatrixSpan.lie_algebra,
for Der(G) and the d-bracket), and a semidirect product whose action is
one by derivations and a homomorphism (semidirect, for C(G) and H).

A Lie algebra L acting on Q^n is given by rho, the n x n matrices of its
basis elements. Its 1-cocycle rule (cocycle_system) and 1-coboundary
(coboundary) are written once, and the invariants are
linalg.common_kernel(rho). With rho = g.adjoint they give the center and
Der(G), and the adjoint coboundaries are the ad(e_k) that span the inner
derivations; dtheory reads the d-analogues off Der(G) acting on G,
rho = der.matrices.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .linalg import (Matrix, Scalar, SparseRow, Subspace, Terms, Vector, ZERO,
                     _dense, _packed, as_vector, common_kernel, rank, solve,
                     sparse_nullspace)


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
        super().__init__(f"Jacobi identity fails on basis triple {triple}, "
                         f"residual ({', '.join(map(str, residual))})")


class InternalConsistencyError(LieError):
    """A solve that must succeed by construction failed; data is corrupted."""


class LieAlgebra:
    """Structure constants held once, as the nonzero terms of each bracket:
    pairs[i][j] gives [e_i, e_j] = sum of c e_k over its (k, c), and
    pairs[j][i] is its negation. Build one with make_lie_algebra,
    lie_algebra_from_table, catalog.parse_algebra_file, semidirect or
    MatrixSpan.lie_algebra.

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
        Built on first read, for tests, oracles and the benchmark's trace
        counter; the package reads pairs."""
        return tuple(tuple(_dense(t, self.dim) for t in row) for row in self.pairs)

    def _ad(self, x: Iterable[tuple[int, Scalar]]) -> Matrix:
        """Matrix of y -> [x, y], x the element whose nonzero coordinates
        are the (i, x_i) terms: entry (k, j) is the e_k term of [x, e_j]."""
        n = self.dim
        rows: list[SparseRow] = [{} for _ in range(n)]
        for i, xi in x:
            for j, terms in enumerate(self.pairs[i]):
                for k, c in terms:
                    rows[k][j] = rows[k].get(j, ZERO) + xi * c
        return Matrix._trusted(n, n, _packed(rows))

    @cached_property
    def adjoint(self) -> tuple[Matrix, ...]:
        """ad(e_i) for each i, built on first read: pairs[i], whose row j is
        the terms of [e_i, e_j], is the stored form of ad(e_i) transposed."""
        n = self.dim
        return tuple(Matrix._trusted(n, n, row).transpose() for row in self.pairs)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


def _negated(terms: Terms) -> Terms:
    return tuple((k, -c) for k, c in terms)


def _validate_jacobi(g: LieAlgebra) -> LieAlgebra:
    """g, after a scan of every basis triple i < j < l; raise
    JacobiViolation on the first whose cyclic sum [e_i,[e_j,e_l]] + ... is
    nonzero. Its only callers are make_lie_algebra and
    catalog.parse_algebra_file, where structure constants enter."""
    n, pairs = g.dim, g.pairs
    for i, j, l in combinations(range(n), 3):
        jl, li, ij = pairs[j][l], pairs[l][i], pairs[i][j]
        if not (jl or li or ij):
            continue
        acc: dict[int, Scalar] = {}
        for a, inner in ((i, jl), (j, li), (l, ij)):
            for t, coeff in inner:
                for k, ck in pairs[a][t]:
                    acc[k] = acc.get(k, ZERO) + coeff * ck
        if any(acc.values()):
            raise JacobiViolation((i, j, l),
                                  tuple(acc.get(k, ZERO) for k in range(n)))
    return g


def _from_brackets(n: int, upper: dict[tuple[int, int], Terms],
                   basis_names: Optional[Sequence[str]]) -> LieAlgebra:
    """The algebra with [e_i, e_j] = upper[i, j] for i < j (absent pairs
    commute); its Jacobi identity is the caller's to check or prove."""
    rows = [[()] * n for _ in range(n)]
    for (i, j), terms in upper.items():
        rows[i][j] = terms
        rows[j][i] = _negated(terms)
    names = tuple(basis_names) if basis_names is not None else _default_names(n)
    if len(names) != n:
        raise LieError("basis_names length != dim")
    return LieAlgebra(n, names, tuple(tuple(r) for r in rows))


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
        terms = tuple((k, c) for k, c in enumerate(vec) if c)
        if i == j and terms:
            raise AntisymmetryConflict(f"c[{i}][{i}] != -c[{i}][{i}]")
        key, val = ((i, j), terms) if i < j else ((j, i), _negated(terms))
        if key in seen:
            if seen[key] != val:
                raise AntisymmetryConflict(
                    f"pair {key} given twice with inconsistent values")
            continue
        seen[key] = val
    return _validate_jacobi(_from_brackets(n, seen, basis_names))


def semidirect(k: LieAlgebra, v: LieAlgebra,
               action: Callable[[int, int], Terms]) -> LieAlgebra:
    """The semidirect product k ⋉ v on k's basis followed by v's.

    k and v keep their own brackets, and [k_i, v_j] = action(i, j), given
    as Terms in v's basis. Only the action's indices are checked. The
    result is a Lie algebra iff k and v are, each k_i acts by a derivation
    of v, and i -> action(i, .) is a homomorphism k -> Der(v) (Jacobson,
    Lie Algebras, 1962, Ch. I): a triple inside k or inside v is Jacobi in
    its factor, one with two elements of v in it is the derivation rule,
    and one with two of k is the homomorphism rule. That is the caller's
    precondition, and nothing here scans a triple: each caller proves it
    in its own docstring (fullgraph.build_full_graph, dtheory.build_h).
    """
    m, n = k.dim, v.dim
    upper = {(i, j): k.pairs[i][j] for i, j in combinations(range(m), 2)}
    for i in range(m):
        for j in range(n):
            upper[i, m + j] = terms = tuple((m + t, c) for t, c in action(i, j))
            if any(not m <= t < m + n for t, _ in terms):
                raise LieError(f"action({i},{j}) has an index outside range({n})")
    for i, j in combinations(range(n), 2):
        upper[m + i, m + j] = tuple((m + t, c) for t, c in v.pairs[i][j])
    return _from_brackets(m + n, upper, k.basis_names + v.basis_names)


def cocycle_system(rho: Sequence[Matrix],
                   algebra: LieAlgebra) -> Iterator[SparseRow]:
    """The 1-cocycle rule of L = algebra acting on V = Q^n, rho[i] the
    n x n matrix of L's i-th basis element. A linear map phi: L -> V is the
    n x m matrix whose column t is phi(e_t), flattened row-major (phi[k][t]
    at k*m + t). The rule is made one sparse row at a time, for its reader
    to reduce as it comes: one row per basis pair i < j and coordinate k of
    phi([e_i, e_j]) - rho_i phi(e_j) + rho_j phi(e_i), read off the nonzero
    structure constants and the nonzero entries of rho. Rows that are
    identically zero are left out."""
    s = algebra.pairs
    m, n = len(rho), rho[0].rows
    for i, j in combinations(range(m), 2):
        for k in range(n):
            row = {k * m + t: c for t, c in s[i][j]}
            for a, c in rho[i].nonzeros[k]:
                row[a * m + j] = row.get(a * m + j, ZERO) - c
            for a, c in rho[j].nonzeros[k]:
                row[a * m + i] = row.get(a * m + i, ZERO) + c
            row = {col: c for col, c in row.items() if c}
            if row:
                yield row


def coboundary(rho: Sequence[Matrix], v: Sequence) -> Matrix:
    """The cocycle e_i -> -rho_i v: its column i holds, for each nonzero
    row k of rho_i, minus that row's product with the entries of v."""
    n = rho[0].cols
    if len(v) != n:
        raise ValueError(f"vector length {len(v)} != cols {n}")
    cols = [[(k, x) for k, row in enumerate(r.nonzeros)
             if (x := -sum(a * v[c] for c, a in row))] for r in rho]
    return Matrix._trusted(len(rho), rho[0].rows,
                           tuple(map(tuple, cols))).transpose()


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}: the common kernel of the adjoint."""
    return common_kernel(g.adjoint)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    return Subspace._span(g.dim, [dict(g.pairs[i][j])
                                  for i, j in combinations(range(g.dim), 2)])


def _flat(m: Matrix) -> SparseRow:
    """m's nonzeros keyed by their row-major index r * cols + c."""
    return {r * m.cols + c: x for r, row in enumerate(m.nonzeros) for c, x in row}


def _unflat(shape: tuple[int, int], flat: Iterable[tuple[int, Scalar]]) -> Matrix:
    """The matrix of (row-major index, nonzero entry) pairs, index increasing."""
    rows: list[list] = [[] for _ in range(shape[0])]
    for i, x in flat:
        r, c = divmod(i, shape[1])
        rows[r].append((c, x))
    return Matrix._trusted(*shape, tuple(map(tuple, rows)))


class MatrixSpan:
    """A span of equal-shape matrices, held as the canonical RREF basis of
    their row-major flattenings; terms_of reads coordinates at its pivots,
    as nonzero terms, and matrix_of takes such terms back to the matrix."""

    def __init__(self, shape: tuple[int, int], flat_span: Subspace):
        self.shape = shape
        self.flat_span = flat_span  # in Q^(rows * cols)

    @property
    def dim(self) -> int:
        return self.flat_span.dim

    @cached_property
    def matrices(self) -> tuple[Matrix, ...]:
        """The basis matrices, in canonical order."""
        return tuple(_unflat(self.shape, row) for row in self.flat_span.rows)

    def matrix_of(self, terms: Terms) -> Matrix:
        """The matrix whose canonical coordinates are the nonzero terms
        (i, a), as terms_of gives them: its inverse on the span."""
        return _unflat(self.shape,
                       sorted(self.flat_span.combination(terms).items()))

    def terms_of(self, m: Matrix) -> Terms:
        """The nonzero coordinates (i, a), i increasing, of a matrix known to
        lie in the span; raises otherwise."""
        terms = self.flat_span._coordinates(_flat(m))
        if terms is None:
            raise InternalConsistencyError(
                f"matrix does not lie in the span of {type(self).__name__}")
        return terms

    def coordinates(self, m: Matrix) -> Vector:
        """Dense view of terms_of, for tests and for bench/trace_cli.py,
        which traces it as coordinates_of."""
        return _dense(self.terms_of(m), self.dim)

    def lie_algebra(self, bracket: Callable[[int, int], Matrix],
                    prefix: str) -> LieAlgebra:
        """The span as a Lie algebra, basis names prefix1, prefix2, ..., with
        bracket(i, j) the matrix of [b_i, b_j], i < j. terms_of reads each
        bracket back by exact reconstruction, so the span is closed under it.
        Jacobi is not scanned: each caller's bracket is the commutator of an
        associative product, which satisfies it (DerivationAlgebra's and
        DDerivationSpace's as_lie_algebra)."""
        upper = {(i, j): self.terms_of(bracket(i, j))
                 for i, j in combinations(range(self.dim), 2)}
        return _from_brackets(
            self.dim, upper, tuple(f"{prefix}{i + 1}" for i in range(self.dim)))


class DerivationAlgebra(MatrixSpan):
    """Der(G), for G = parent, in the canonical basis of the adjoint cocycle
    system's kernel; only that span is kept, not the system."""

    def __init__(self, shape: tuple[int, int], flat_span: Subspace,
                 parent: LieAlgebra):
        super().__init__(shape, flat_span)
        self.parent = parent

    @cached_property
    def as_lie_algebra(self) -> LieAlgebra:
        """Commutator table, built on first read. It needs no Jacobi scan:
        the bracket is the matrix commutator, read back at the span's pivots
        and confirmed by exact reconstruction, and the commutator of any
        associative product satisfies Jacobi."""
        b = self.matrices
        return self.lie_algebra(lambda i, j: b[i].commutator(b[j]), "D")

    @cached_property
    def columns(self) -> tuple[tuple[Terms, ...], ...]:
        """columns[i][t], the nonzero terms (k, D_i[k][t]) of column t of
        basis derivation D_i: the form in which C(G)'s bracket, S's Der rows
        and H's action read Der(G) acting on G, built once."""
        return tuple(d.transpose().nonzeros for d in self.matrices)

    @cached_property
    def ad_coordinates(self) -> Matrix:
        """The m x n matrix whose column t is the coordinates of ad(e_t),
        built as its transpose, whose row t is the terms of ad(e_t)."""
        return Matrix._trusted(self.parent.dim, self.dim, tuple(
            map(self.terms_of, self.parent.adjoint))).transpose()

    # bound here, not inherited: bench/trace_cli.py traces it through
    # this class's __dict__, as it does DDerivationSpace.coordinates_of
    coordinates_of = MatrixSpan.coordinates


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """Der(G): the 1-cocycles of the adjoint action, whose cocycle rule is
    the Leibniz rule, streamed into the kernel; basis in canonical RREF
    order of flattenings."""
    sol = sparse_nullspace(g.dim * g.dim, cocycle_system(g.adjoint, g))
    if sol.dim == 0:
        # cannot happen for dim >= 1 over Q (ad(g) or a grading derivation is nonzero)
        raise InternalConsistencyError("empty derivation algebra")
    return DerivationAlgebra((g.dim, g.dim), sol, g)


def inner_derivations(g: LieAlgebra) -> Subspace:
    """Span in Q^(n^2) of the flattened ad(e_k), the adjoint coboundaries:
    the coboundary of e_k maps e_i to -[e_i, e_k] = [e_k, e_i], so it is
    ad(e_k)."""
    return Subspace._span(g.dim * g.dim, map(_flat, g.adjoint))


def induced_lie_structure(matrices: Sequence[Matrix],
                          basis_names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Structure constants of a list of matrices closed under commutators.

    Raises LieError if the flattenings are dependent or if a commutator
    leaves the span, naming the pair of basis elements.
    """
    m = len(matrices)
    if m == 0:
        raise LieError("empty basis")
    flat = Matrix.from_rows([mat.flatten() for mat in matrices])
    if rank(flat) != m:
        raise LieError("flattened matrices are linearly dependent")
    cols = flat.transpose()
    table = [[[ZERO] * m for _ in range(m)] for _ in range(m)]
    for i, j in combinations(range(m), 2):
        comm = matrices[i].commutator(matrices[j])
        coords = solve(cols, comm.flatten())
        if coords is None:
            raise LieError(
                f"commutator of basis elements ({i}, {j}) escapes the span")
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
    der_dim = dim Der(G); x -> ad(x) has kernel the center, so that
    dimension is dim G - dim z."""
    inner_dim = g.dim - z.dim
    return CompletenessEvidence(z.dim == 0 and inner_dim == der_dim, z.dim,
                                der_dim, inner_dim)

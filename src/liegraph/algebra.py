"""Lie algebras from structure constants: brackets, ad, center, Der(G).

A LieAlgebra is a validated antisymmetric table c[i][j][k] with
[e_i, e_j] = sum_k c[i][j][k] e_k; Jacobi is checked at construction so
downstream code never rechecks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Callable, Optional, Sequence

from .linalg import (Matrix, Subspace, Vector, ZERO, as_scalar, as_vector,
                     nullspace, rank, solve, vstack)


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


@dataclass(frozen=True)
class LieAlgebra:
    dim: int
    basis_names: tuple[str, ...]
    table: tuple  # table[i][j] = tuple of n coefficients of [e_i, e_j]

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        x, y = as_vector(x), as_vector(y)
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("vector length != dim")
        out = [ZERO] * self.dim
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                row = self.table[i][j]
                s = xi * yj
                for k, ck in enumerate(row):
                    if ck:
                        out[k] += s * ck
        return tuple(out)

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y]."""
        x = as_vector(x)
        if len(x) != self.dim:
            raise ValueError("vector length != dim")
        cols = [self.bracket(x, _unit(self.dim, j)) for j in range(self.dim)]
        return Matrix(self.dim, self.dim,
                      [cols[c][r] for r in range(self.dim) for c in range(self.dim)])

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, basis={list(self.basis_names)})"


def _unit(n: int, j: int) -> Vector:
    return tuple(Fraction(1) if t == j else ZERO for t in range(n))


def _default_names(n: int) -> tuple[str, ...]:
    return tuple(f"e{i + 1}" for i in range(n))


def _validate_jacobi(n: int, table) -> None:
    for i, j, l in combinations(range(n), 3):
        acc = [ZERO] * n
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            inner = table[b][c]
            for t, coeff in enumerate(inner):
                if coeff:
                    outer = table[a][t]
                    for k, ck in enumerate(outer):
                        if ck:
                            acc[k] += coeff * ck
        if any(acc):
            raise JacobiViolation((i, j, l), tuple(acc))


def lie_algebra_from_table(table, basis_names: Optional[Sequence[str]] = None,
                           check_antisymmetry: bool = True) -> LieAlgebra:
    """Validate a full c[i][j][k] table (antisymmetry + Jacobi) and wrap it."""
    n = len(table)
    if n == 0:
        raise LieError("dimension 0 is not supported")
    tbl = tuple(tuple(tuple(as_scalar(c) for c in table[i][j]) for j in range(n))
                for i in range(n))
    if check_antisymmetry:
        for i in range(n):
            for j in range(i, n):
                if any(a != -b for a, b in zip(tbl[i][j], tbl[j][i])):
                    raise AntisymmetryConflict(f"c[{i}][{j}] != -c[{j}][{i}]")
    _validate_jacobi(n, tbl)
    names = tuple(basis_names) if basis_names is not None else _default_names(n)
    if len(names) != n:
        raise LieError("basis_names length != dim")
    return LieAlgebra(n, names, tbl)


def make_lie_algebra(n: int, brackets: Sequence[tuple[int, int, Sequence]],
                     basis_names: Optional[Sequence[str]] = None) -> LieAlgebra:
    """Build an algebra from sparse (i, j, [e_i,e_j]-coefficients) entries.

    The antisymmetric completion is automatic; giving both (i,j) and (j,i)
    inconsistently raises AntisymmetryConflict.
    """
    if n <= 0:
        raise LieError("dimension must be positive")
    table = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    seen: dict[tuple[int, int], Vector] = {}
    for (i, j, vec) in brackets:
        if not (0 <= i < n and 0 <= j < n):
            raise IndexOutOfRange(f"bracket indices ({i},{j}) out of range for dim {n}")
        vec = as_vector(vec)
        if len(vec) != n:
            raise LieError(f"bracket result for ({i},{j}) has length {len(vec)}, want {n}")
        if i == j:
            if any(vec):
                raise AntisymmetryConflict(f"[e_{i},e_{i}] must vanish")
            continue
        key, val = ((i, j), vec) if i < j else ((j, i), tuple(-c for c in vec))
        if key in seen:
            if seen[key] != val:
                raise AntisymmetryConflict(
                    f"pair {key} given twice with inconsistent values")
            continue
        seen[key] = val
    for (i, j), vec in seen.items():
        if any(vec):  # zero pairs keep the shared ZERO entries
            table[i][j] = list(vec)
            table[j][i] = [-c for c in vec]
    return lie_algebra_from_table(table, basis_names, check_antisymmetry=False)


def semidirect(k: LieAlgebra, v: LieAlgebra,
               action: Callable[[int, int], Vector]) -> LieAlgebra:
    """The semidirect product k ⋉ v on k's basis followed by v's.

    k and v keep their own brackets, and [k_i, v_j] = action(i, j), given
    as coordinates in v's basis; action must make k act on v by derivations.
    """
    m, n = k.dim, v.dim
    pad_k, pad_v = (ZERO,) * n, (ZERO,) * m
    brackets = [(i, j, k.table[i][j] + pad_k)
                for i, j in combinations(range(m), 2)]
    brackets += [(i, m + j, pad_v + action(i, j))
                 for i in range(m) for j in range(n)]
    brackets += [(m + i, m + j, pad_v + v.table[i][j])
                 for i, j in combinations(range(n), 2)]
    return make_lie_algebra(m + n, brackets, k.basis_names + v.basis_names)


def abelian(n: int) -> LieAlgebra:
    return make_lie_algebra(n, [])


def center(g: LieAlgebra) -> Subspace:
    """{x : [x, y] = 0 for all y}, as the kernel of the stacked ad maps."""
    stacked = vstack([g.ad(_unit(g.dim, i)) for i in range(g.dim)])
    return nullspace(stacked)


def derived_subalgebra(g: LieAlgebra) -> Subspace:
    vecs = [g.table[i][j] for i, j in combinations(range(g.dim), 2)]
    return Subspace.from_rows(g.dim, vecs)


@dataclass(frozen=True)
class Derivation:
    """An n x n matrix satisfying the Leibniz rule on its algebra."""
    algebra: LieAlgebra
    matrix: Matrix

    def __post_init__(self):
        if self.matrix.shape != (self.algebra.dim, self.algebra.dim):
            raise LieError("derivation matrix has wrong shape")

    def is_leibniz(self) -> bool:
        n = self.algebra.dim
        for i, j in combinations(range(n), 2):
            lhs = self.matrix.apply(self.algebra.table[i][j])
            rhs_l = self.algebra.bracket(self.matrix.column(i), _unit(n, j))
            rhs_r = self.algebra.bracket(_unit(n, i), self.matrix.column(j))
            if any(a != b + c for a, b, c in zip(lhs, rhs_l, rhs_r)):
                return False
        return True


@dataclass(frozen=True)
class MatrixSpan:
    """A span of equal-shape matrices, held as the canonical RREF basis of
    their row-major flattenings; coordinates are read at its pivots."""
    shape: tuple[int, int]
    flat_span: Subspace  # in Q^(rows * cols)

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
        out = Matrix.zero(*self.shape)
        for c, b in zip(as_vector(coords), self.matrices):
            if c:
                out = out + b.scale(c)
        return out

    def coordinates(self, m: Matrix) -> Vector:
        """Coordinates of a matrix known to lie in the span; raises otherwise."""
        coords = self.flat_span.coordinates(m.flatten())
        if coords is None:
            raise InternalConsistencyError(
                f"matrix does not lie in the span of {type(self).__name__}")
        return coords

    def lie_algebra(self, bracket: Callable[[int, int], Matrix],
                    prefix: str) -> LieAlgebra:
        """The span as a Lie algebra with basis names prefix1, prefix2, ...;
        bracket(i, j) is the matrix of the bracket of basis elements i < j."""
        return make_lie_algebra(
            self.dim, [(i, j, self.coordinates(bracket(i, j)))
                       for i, j in combinations(range(self.dim), 2)],
            tuple(f"{prefix}{i + 1}" for i in range(self.dim)))


@dataclass(frozen=True)
class DerivationAlgebra(MatrixSpan):
    """Der(G) in the canonical basis of the Leibniz system's kernel."""
    parent: LieAlgebra

    @cached_property
    def basis(self) -> tuple[Derivation, ...]:
        return tuple(Derivation(self.parent, m) for m in self.matrices)

    @cached_property
    def as_lie_algebra(self) -> LieAlgebra:
        """Commutator structure constants in this basis, built on first read."""
        b = self.matrices
        return self.lie_algebra(lambda i, j: b[i].commutator(b[j]), "D")

    # defined here, not inherited: bench/trace_cli.py traces it through
    # this class's __dict__, as it does DDerivationSpace.coordinates_of
    def coordinates_of(self, m: Matrix) -> Vector:
        """Coordinates of a matrix known to lie in the span; raises otherwise."""
        return self.coordinates(m)


def _leibniz_system(g: LieAlgebra) -> Matrix:
    """Linear system on D[a][b] (flattened a*n+b) expressing the Leibniz rule.

    For each basis pair i<j and output coordinate k:
        sum_t c[i][j][t] D[k][t] - sum_a D[a][i] c[a][j][k] - sum_a D[a][j] c[i][a][k] = 0
    """
    n = g.dim
    rows = []
    for i, j in combinations(range(n), 2):
        cij = g.table[i][j]
        for k in range(n):
            row = [ZERO] * (n * n)
            for t, ct in enumerate(cij):
                if ct:
                    row[k * n + t] += ct
            for a in range(n):
                caj = g.table[a][j][k]
                if caj:
                    row[a * n + i] -= caj
                cia = g.table[i][a][k]
                if cia:
                    row[a * n + j] -= cia
            rows.append(row)
    if not rows:
        rows = [[ZERO] * (n * n)]
    return Matrix.from_rows(rows)


def derivation_algebra(g: LieAlgebra) -> DerivationAlgebra:
    """Solve the Leibniz system; basis in canonical RREF order of flattenings."""
    sol = nullspace(_leibniz_system(g))
    if sol.dim == 0:
        # cannot happen for dim >= 1 over Q (ad(g) or a grading derivation is nonzero)
        raise InternalConsistencyError("empty derivation algebra")
    return DerivationAlgebra((g.dim, g.dim), sol, g)


def inner_derivations(g: LieAlgebra) -> Subspace:
    """Span in Q^(n^2) of the flattened ad(e_i)."""
    vecs = [g.ad(_unit(g.dim, i)).flatten() for i in range(g.dim)]
    return Subspace.from_rows(g.dim * g.dim, vecs)


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
    return lie_algebra_from_table(table, basis_names, check_antisymmetry=False)


@dataclass(frozen=True)
class CompletenessEvidence:
    complete: bool
    center_dim: int
    der_dim: int
    inner_dim: int


def is_complete(g: LieAlgebra,
                der: Optional[DerivationAlgebra] = None) -> CompletenessEvidence:
    """Trivial center and every derivation inner."""
    if der is None:
        der = derivation_algebra(g)
    return completeness(g, der, center(g))


def completeness(g: LieAlgebra, der: DerivationAlgebra,
                 z: Subspace) -> CompletenessEvidence:
    """is_complete from the derivation algebra and the center z of g."""
    inner = inner_derivations(g)
    all_inner = inner == der.flat_span
    return CompletenessEvidence(z.dim == 0 and all_inner, z.dim, der.dim, inner.dim)

"""Cocycle maps Der(G) -> G, their bracket, the Der(G)-action, and H.

A "d-derivation" is a linear map L from the derivation algebra to the
algebra itself with L([D1,D2]) = D1(L(D2)) - D2(L(D1)); equivalently a
degree-1 cocycle of Der(G) with coefficients in G. They carry a bracket
    [L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D)))
and Der(G) acts on them by D(L) = D∘L - L∘ad(D), which lets the two fit
together into a semidirect product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Optional, Sequence

from .linalg import Matrix, Subspace, Vector, ZERO, as_vector, nullspace
from .algebra import (Derivation, DerivationAlgebra, InternalConsistencyError,
                      LieAlgebra, derivation_algebra, lie_algebra_from_table,
                      _unit)


@dataclass(frozen=True)
class DDerivation:
    """Column j of ``matrix`` is the image of the j-th canonical Der basis
    element, as a vector of the parent algebra."""
    parent: LieAlgebra
    der: DerivationAlgebra
    matrix: Matrix  # n x m

    def __post_init__(self):
        if self.matrix.shape != (self.parent.dim, self.der.dim):
            raise ValueError("d-derivation matrix has wrong shape")

    def value(self, der_coords: Sequence) -> Vector:
        """Image of the derivation with the given canonical coordinates."""
        return self.matrix.apply(der_coords)

    def is_cocycle(self) -> bool:
        s = self.der.as_lie_algebra
        for i, j in combinations(range(self.der.dim), 2):
            lhs = self.matrix.apply(s.table[i][j])
            rhs = _pair_rhs(self, i, j)
            if lhs != rhs:
                return False
        return True


def _pair_rhs(l: DDerivation, i: int, j: int) -> Vector:
    di = l.der.basis[i].matrix
    dj = l.der.basis[j].matrix
    a = di.apply(l.matrix.column(j))
    b = dj.apply(l.matrix.column(i))
    return tuple(x - y for x, y in zip(a, b))


def d_center(g: LieAlgebra, der: Optional[DerivationAlgebra] = None) -> Subspace:
    """{x : D x = 0 for every derivation D}; kernel of the stacked Der basis."""
    if der is None:
        der = derivation_algebra(g)
    stacked_rows = []
    for d in der.basis:
        stacked_rows.extend(d.matrix.row_list())
    return nullspace(Matrix.from_rows(stacked_rows))


def inner_d_derivation(g: LieAlgebra, der: DerivationAlgebra,
                       x: Sequence) -> DDerivation:
    """L_x with L_x(D) = -D(x)."""
    x = as_vector(x)
    if len(x) != g.dim:
        raise ValueError("vector length != dim")
    cols = [tuple(-v for v in d.matrix.apply(x)) for d in der.basis]
    n, m = g.dim, der.dim
    return DDerivation(g, der, Matrix(n, m, [cols[c][r] for r in range(n) for c in range(m)]))


def _cocycle_system(g: LieAlgebra, der: DerivationAlgebra) -> Matrix:
    """Constraints on L[a][b] (flattened a*m+b), one n-block per Der pair i<j:
        sum_t s[i][j][t] L[k][t] - (D_i L[:,j])_k + (D_j L[:,i])_k = 0
    """
    n, m = g.dim, der.dim
    s = der.as_lie_algebra.table
    rows = []
    for i, j in combinations(range(m), 2):
        di = der.basis[i].matrix
        dj = der.basis[j].matrix
        for k in range(n):
            row = [ZERO] * (n * m)
            for t, st in enumerate(s[i][j]):
                if st:
                    row[k * m + t] += st
            for a in range(n):
                if di[k, a]:
                    row[a * m + j] -= di[k, a]
                if dj[k, a]:
                    row[a * m + i] += dj[k, a]
            rows.append(row)
    if not rows:
        rows = [[ZERO] * (n * m)]
    return Matrix.from_rows(rows)


@dataclass(frozen=True)
class DDerivationSpace:
    parent: LieAlgebra
    der: DerivationAlgebra
    basis: tuple[DDerivation, ...]  # canonical RREF order of flattenings
    flat_span: Subspace  # in Q^(n*m)
    inner: Subspace  # flattened inner d-derivations, subspace of flat_span

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def as_lie_algebra(self) -> Optional[LieAlgebra]:
        """The d_bracket structure constants in this basis, built on first
        read; None only if the space is zero."""
        p = self.dim
        if p == 0:
            return None
        table = [[[ZERO] * p for _ in range(p)] for _ in range(p)]
        for i, j in combinations(range(p), 2):
            coords = self.coordinates_of(d_bracket(self.basis[i], self.basis[j]))
            table[i][j] = list(coords)
            table[j][i] = [-c for c in coords]
        return lie_algebra_from_table(
            table, tuple(f"L{i + 1}" for i in range(p)), check_antisymmetry=False)

    def matrix_of(self, coords: Sequence) -> Matrix:
        coords = as_vector(coords)
        n, m = self.parent.dim, self.der.dim
        out = Matrix.zero(n, m)
        for c, l in zip(coords, self.basis):
            if c:
                out = out + l.matrix.scale(c)
        return out

    def coordinates_of(self, l: DDerivation) -> Vector:
        coords = self.flat_span.coordinates(l.matrix.flatten())
        if coords is None:
            raise InternalConsistencyError("map does not lie in the cocycle space")
        return coords


def d_derivations(g: LieAlgebra,
                  der: Optional[DerivationAlgebra] = None) -> DDerivationSpace:
    """Solve the cocycle system and span the inner d-derivations."""
    if der is None:
        der = derivation_algebra(g)
    n, m = g.dim, der.dim
    span = nullspace(_cocycle_system(g, der))
    basis = tuple(DDerivation(g, der, Matrix(n, m, v)) for v in span.basis_vectors())
    inner = Subspace.from_rows(
        n * m, [inner_d_derivation(g, der, _unit(n, i)).matrix.flatten()
                for i in range(n)])
    return DDerivationSpace(g, der, basis, span, inner)


def d_bracket(l1: DDerivation, l2: DDerivation) -> DDerivation:
    """[L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D)))."""
    if l1.parent is not l2.parent and l1.parent != l2.parent:
        raise ValueError("mismatched parents")
    g, der = l1.parent, l1.der
    n, m = g.dim, der.dim
    cols = []
    for j in range(m):
        a1 = der.coordinates_of(g.ad(l2.matrix.column(j)))
        a2 = der.coordinates_of(g.ad(l1.matrix.column(j)))
        v1 = l1.matrix.apply(a1)
        v2 = l2.matrix.apply(a2)
        cols.append(tuple(x - y for x, y in zip(v1, v2)))
    return DDerivation(g, der, Matrix(n, m, [cols[c][r] for r in range(n) for c in range(m)]))


def der_action(d: Derivation, l: DDerivation) -> DDerivation:
    """D(L) = D∘L - L∘ad(D), ad(D) taken inside Der(G)."""
    g, der = l.parent, l.der
    m = der.dim
    ad_d_cols = [der.coordinates_of(d.matrix.commutator(der.basis[j].matrix))
                 for j in range(m)]
    ad_d = Matrix(m, m, [ad_d_cols[c][r] for r in range(m) for c in range(m)])
    return DDerivation(g, der, d.matrix @ l.matrix - l.matrix @ ad_d)


def d_algebra(g: LieAlgebra,
              space: Optional[DDerivationSpace] = None) -> LieAlgebra:
    """The cocycle space as a Lie algebra in its canonical basis."""
    if space is None:
        space = d_derivations(g)
    if space.as_lie_algebra is None:
        raise ValueError("zero-dimensional cocycle space has no algebra value")
    return space.as_lie_algebra


@dataclass(frozen=True)
class SemidirectSum:
    """H = Der(G) ⋉ cocycle space, on the concatenated canonical bases."""
    parent: LieAlgebra
    der: DerivationAlgebra
    dspace: DDerivationSpace
    algebra: LieAlgebra  # dimension m + p
    der_embed: tuple[int, ...]  # coordinate positions of the Der block
    dd_embed: tuple[int, ...]  # coordinate positions of the cocycle block

    def split(self, coords: Sequence) -> tuple[Vector, Vector]:
        coords = as_vector(coords)
        m = self.der.dim
        return coords[:m], coords[m:]


def build_h(g: LieAlgebra, der: Optional[DerivationAlgebra] = None,
            dspace: Optional[DDerivationSpace] = None) -> SemidirectSum:
    """Bracket on pairs (D, L):
        [(D1,L1),(D2,L2)] = ([D1,D2], [L1,L2] + D1(L2) - D2(L1))
    """
    if der is None:
        der = derivation_algebra(g)
    if dspace is None:
        dspace = d_derivations(g, der)
    m, p = der.dim, dspace.dim
    total = m + p
    table = [[[ZERO] * total for _ in range(total)] for _ in range(total)]
    s = der.as_lie_algebra.table
    for i, j in combinations(range(m), 2):
        for k, c in enumerate(s[i][j]):
            table[i][j][k] = c
            table[j][i][k] = -c
    for i in range(m):
        for j in range(p):
            act = dspace.coordinates_of(der_action(der.basis[i], dspace.basis[j]))
            for k, c in enumerate(act):
                table[i][m + j][m + k] = c
                table[m + j][i][m + k] = -c
    if dspace.as_lie_algebra is not None:
        t = dspace.as_lie_algebra.table
        for i, j in combinations(range(p), 2):
            for k, c in enumerate(t[i][j]):
                table[m + i][m + j][m + k] = c
                table[m + j][m + i][m + k] = -c
    names = tuple(f"D{i + 1}" for i in range(m)) + tuple(f"L{i + 1}" for i in range(p))
    alg = lie_algebra_from_table(table, names, check_antisymmetry=False)
    return SemidirectSum(g, der, dspace, alg,
                         tuple(range(m)), tuple(range(m, total)))


@dataclass(frozen=True)
class DCompletenessEvidence:
    d_complete: bool
    d_center_dim: int
    d_space_dim: int
    inner_d_dim: int


def is_d_complete(g: LieAlgebra, der: Optional[DerivationAlgebra] = None,
                  dspace: Optional[DDerivationSpace] = None) -> DCompletenessEvidence:
    """Trivial d-center and every cocycle inner."""
    if der is None:
        der = derivation_algebra(g)
    if dspace is None:
        dspace = d_derivations(g, der)
    cd = d_center(g, der)
    all_inner = dspace.inner == dspace.flat_span
    return DCompletenessEvidence(cd.dim == 0 and all_inner,
                                 cd.dim, dspace.dim, dspace.inner.dim)

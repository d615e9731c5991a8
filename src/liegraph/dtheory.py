"""Cocycle maps Der(G) -> G, their bracket, the Der(G)-action, and H.

A "d-derivation" is a linear map L from the derivation algebra to the
algebra itself with L([D1,D2]) = D1(L(D2)) - D2(L(D1)): a 1-cocycle of
Der(G) acting on G (``DerivationAlgebra.natural``). The d-center, the
d-derivations and the inner ones L_x(D) = -D(x) are the invariants,
cocycles and coboundaries of that action, computed by the
``algebra.Representation`` code that gives the center, Der(G) and the
inner derivations of the adjoint action. They carry a bracket
    [L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D)))
and Der(G) acts on them by D(L) = D∘L - L∘ad(D), which lets the two fit
together into a semidirect product.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .linalg import Matrix, Subspace, Vector
from .algebra import (Derivation, DerivationAlgebra, LieAlgebra, MatrixSpan,
                      derivation_algebra, semidirect)


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


def d_center(g: LieAlgebra, der: Optional[DerivationAlgebra] = None) -> Subspace:
    """{x : D x = 0 for every derivation D}: the invariants of Der(G) on G."""
    return (der or derivation_algebra(g)).natural.invariants()


def inner_d_derivation(g: LieAlgebra, der: DerivationAlgebra,
                       x: Sequence) -> DDerivation:
    """L_x with L_x(D) = -D(x), the coboundary of x."""
    return DDerivation(g, der, der.natural.coboundary(x))


@dataclass(frozen=True)
class DDerivationSpace(MatrixSpan):
    """The cocycle space in the canonical basis of the cocycle system's kernel."""
    parent: LieAlgebra
    der: DerivationAlgebra
    inner: Subspace  # flattened inner d-derivations, subspace of flat_span

    @cached_property
    def basis(self) -> tuple[DDerivation, ...]:
        return tuple(DDerivation(self.parent, self.der, m) for m in self.matrices)

    @cached_property
    def as_lie_algebra(self) -> LieAlgebra:
        """The d_bracket structure constants in this basis, built on first
        read. The space is never zero: a nonzero derivation D moves some
        basis vector x, and the inner cocycle L_x is then nonzero.

        Column j of the m x m matrix A_a is the Der coordinates of
        ad(L_a(D_j)), so [L_a, L_b] = L_a @ A_b - L_b @ A_a. Since ad and
        the coordinates are linear, A_a = C @ L_a, where column t of C is
        the coordinates of ad(e_t); each A_a is built once."""
        b = self.matrices
        a = [self.der.ad_coordinates @ l for l in b]
        return self.lie_algebra(lambda i, j: b[i] @ a[j] - b[j] @ a[i], "L")

    def coordinates_of(self, l: DDerivation) -> Vector:
        """Coordinates of a map known to lie in the span; raises otherwise."""
        return self.coordinates(l.matrix)


def d_derivations(g: LieAlgebra,
                  der: Optional[DerivationAlgebra] = None) -> DDerivationSpace:
    """The cocycles and the coboundaries of Der(G) acting on G."""
    if der is None:
        der = derivation_algebra(g)
    natural = der.natural
    return DDerivationSpace((g.dim, der.dim), natural.cocycles(), g, der,
                            natural.coboundaries())


def d_bracket(l1: DDerivation, l2: DDerivation) -> DDerivation:
    """[L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D)))."""
    if l1.parent is not l2.parent and l1.parent != l2.parent:
        raise ValueError("mismatched parents")
    g, der = l1.parent, l1.der
    cols = []
    for j in range(der.dim):
        a1 = der.coordinates_of(g.ad(l2.matrix.column(j)))
        a2 = der.coordinates_of(g.ad(l1.matrix.column(j)))
        v1 = l1.matrix.apply(a1)
        v2 = l2.matrix.apply(a2)
        cols.append(tuple(x - y for x, y in zip(v1, v2)))
    return DDerivation(g, der, Matrix.from_rows(cols).transpose())


def der_action(d: Derivation, l: DDerivation) -> DDerivation:
    """D(L) = D∘L - L∘ad(D), ad(D) taken inside Der(G)."""
    der = l.der
    ad_d = Matrix.from_rows([der.coordinates_of(d.matrix.commutator(b))
                             for b in der.matrices]).transpose()
    return DDerivation(l.parent, der, d.matrix @ l.matrix - l.matrix @ ad_d)


@dataclass(frozen=True)
class SemidirectSum:
    """H = Der(G) ⋉ cocycle space, on the concatenated canonical bases."""
    parent: LieAlgebra
    der: DerivationAlgebra
    dspace: DDerivationSpace
    algebra: LieAlgebra  # dimension m + p


def build_h(g: LieAlgebra, der: Optional[DerivationAlgebra] = None,
            dspace: Optional[DDerivationSpace] = None) -> SemidirectSum:
    """Bracket on pairs (D, L):
        [(D1,L1),(D2,L2)] = ([D1,D2], [L1,L2] + D1(L2) - D2(L1))
    """
    if der is None:
        der = derivation_algebra(g)
    if dspace is None:
        dspace = d_derivations(g, der)

    # der_action per pair, with each ad(D_i) inside Der(G) built once: it is
    # D_i's adjoint matrix in the Der(G) structure constants
    ad, d, l = der.as_lie_algebra.adjoint.rho, der.matrices, dspace.matrices

    def act(i: int, j: int) -> Vector:
        return dspace.coordinates(d[i] @ l[j] - l[j] @ ad[i])

    return SemidirectSum(g, der, dspace,
                         semidirect(der.as_lie_algebra, dspace.as_lie_algebra, act))


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
    return d_completeness(dspace, d_center(g, der))


def d_completeness(dspace: DDerivationSpace,
                   cd: Subspace) -> DCompletenessEvidence:
    """is_d_complete from the cocycle space and the d-center cd."""
    all_inner = dspace.inner == dspace.flat_span
    return DCompletenessEvidence(cd.dim == 0 and all_inner,
                                 cd.dim, dspace.dim, dspace.inner.dim)

"""Cocycle maps Der(G) -> G, their bracket, the Der(G)-action, and H.

A "d-derivation" is a linear map L from the derivation algebra to the
algebra itself with L([D1,D2]) = D1(L(D2)) - D2(L(D1)): a 1-cocycle of
Der(G) acting on G (``DerivationAlgebra.natural``). The d-center is the
common kernel of that action. The d-derivations and the inner ones
L_x(D) = -D(x) are its cocycles and coboundaries, computed by the
``algebra.Representation`` code that gives Der(G) and the inner
derivations of the adjoint action. They carry a bracket
    [L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D)))
and Der(G) acts on them by D(L) = D∘L - L∘ad(D), which lets the two fit
together into a semidirect product H, returned by build_h as a LieAlgebra.

Every map is a plain Matrix: a derivation is n x n, and a d-derivation is
the n x m matrix whose column j is its value on the j-th Der basis element.
The cocycle table and H are built from matrices made once per basis
element; d_bracket and der_action are their per-pair references, taking
Der(G) and matrices.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .linalg import Matrix, Subspace, Vector, nullspace, vstack
from .algebra import DerivationAlgebra, LieAlgebra, MatrixSpan, semidirect


def d_center(der: DerivationAlgebra) -> Subspace:
    """{x : D x = 0 for every derivation D}, the common kernel of the basis
    derivations; it reads no structure constants of Der(G)."""
    return nullspace(vstack(der.matrices))


def inner_d_derivation(der: DerivationAlgebra, x: Sequence) -> Matrix:
    """L_x with L_x(D) = -D(x), the coboundary of x."""
    return der.natural.coboundary(x)


class DDerivationSpace(MatrixSpan):
    """The cocycle space in the canonical basis of the cocycle system's kernel."""

    def __init__(self, shape: tuple[int, int], flat_span: Subspace,
                 der: DerivationAlgebra, inner: Subspace):
        super().__init__(shape, flat_span)
        self.der = der
        self.inner = inner  # flattened inner d-derivations, subspace of flat_span

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

    # bound here, not inherited: bench/trace_cli.py traces it through
    # this class's __dict__, as it does DerivationAlgebra.coordinates_of
    coordinates_of = MatrixSpan.coordinates


def d_derivations(der: DerivationAlgebra) -> DDerivationSpace:
    """The cocycles and the coboundaries of Der(G) acting on G."""
    natural = der.natural
    return DDerivationSpace((der.parent.dim, der.dim), natural.cocycles(), der,
                            natural.coboundaries())


def d_bracket(der: DerivationAlgebra, l1: Matrix, l2: Matrix) -> Matrix:
    """[L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D))), one Der basis element
    D at a time."""
    g = der.parent
    cols = []
    for j in range(der.dim):
        a1 = der.coordinates_of(g.ad(l2.column(j)))
        a2 = der.coordinates_of(g.ad(l1.column(j)))
        cols.append(tuple(x - y for x, y in zip(l1.apply(a1), l2.apply(a2))))
    return Matrix.from_rows(cols).transpose()


def der_action(der: DerivationAlgebra, d: Matrix, l: Matrix) -> Matrix:
    """D(L) = D∘L - L∘ad(D), ad(D) taken inside Der(G)."""
    ad_d = Matrix.from_rows([der.coordinates_of(d.commutator(b))
                             for b in der.matrices]).transpose()
    return d @ l - l @ ad_d


def build_h(dspace: DDerivationSpace) -> LieAlgebra:
    """H = Der(G) ⋉ cocycle space, on the concatenated canonical bases:
        [(D1,L1),(D2,L2)] = ([D1,D2], [L1,L2] + D1(L2) - D2(L1))
    """
    # der_action per pair, with each ad(D_i) inside Der(G) built once: it is
    # D_i's adjoint matrix in the Der(G) structure constants
    der = dspace.der
    ad, d, l = der.as_lie_algebra.adjoint.rho, der.matrices, dspace.matrices

    def act(i: int, j: int) -> Vector:
        return dspace.coordinates(d[i] @ l[j] - l[j] @ ad[i])

    return semidirect(der.as_lie_algebra, dspace.as_lie_algebra, act)


class DCompletenessEvidence(NamedTuple):
    d_complete: bool
    d_center_dim: int
    d_space_dim: int
    inner_d_dim: int


def is_d_complete(dspace: DDerivationSpace, cd: Subspace) -> DCompletenessEvidence:
    """Trivial d-center cd and every cocycle in dspace inner."""
    all_inner = dspace.inner == dspace.flat_span
    return DCompletenessEvidence(cd.dim == 0 and all_inner,
                                 cd.dim, dspace.dim, dspace.inner.dim)

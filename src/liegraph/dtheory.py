"""Cocycle maps Der(G) -> G, their bracket, the Der(G)-action, and H.

A "d-derivation" is a linear map L from the derivation algebra to the
algebra itself with L([D1,D2]) = D1(L(D2)) - D2(L(D1)): a 1-cocycle of
Der(G) acting on G by der.matrices, as G acts on itself by g.adjoint. The
d-center is the common kernel of that action. The d-derivations and the
inner ones L_x(D) = -D(x) are its cocycles and coboundaries, made by the
algebra.cocycle_system and coboundary that give Der(G) and the inner
derivations from g.adjoint; is_d_complete counts the inner ones (x -> L_x
has kernel the d-center) instead of spanning them. The d-derivations carry
a bracket
    [L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D)))
and Der(G) acts on them by D(L) = D∘L - L∘ad(D), which lets the two fit
together into a semidirect product H, returned by build_h as a LieAlgebra.

Every map is a plain Matrix: a derivation is n x n, and a d-derivation is
the n x m matrix whose column j is its value on the j-th Der basis element.
The cocycle table is built from the n x n maps L∘ad, and H's action is read
off the inner cocycles, whose coordinates build_h takes from the columns of
Der(G)'s basis, so no m x m matrix of Der(G) and no dense vector is built
here. inner_d_derivation, d_bracket and der_action are the per-pair
references, on matrices: they read columns and coordinates as nonzero
terms too.

No Jacobi triple is scanned here. The d-bracket is the commutator of an
associative product, and H's action is a homomorphism into the
derivations of the d-bracket, by the cocycle rule: the proofs are in
DDerivationSpace.as_lie_algebra and build_h.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple, Sequence

from .linalg import Matrix, Subspace, common_kernel, sparse_nullspace
from .algebra import (DerivationAlgebra, LieAlgebra, MatrixSpan, coboundary,
                      cocycle_system, semidirect)


def d_center(der: DerivationAlgebra) -> Subspace:
    """{x : D x = 0 for every derivation D}, the common kernel of the basis
    derivations; it reads no structure constants of Der(G)."""
    return common_kernel(der.matrices)


def inner_d_derivation(der: DerivationAlgebra, x: Sequence) -> Matrix:
    """L_x with L_x(D) = -D(x), the coboundary of x."""
    return coboundary(der.matrices, x)


class DDerivationSpace(MatrixSpan):
    """The cocycle space in the canonical basis of the cocycle system's kernel."""

    def __init__(self, shape: tuple[int, int], flat_span: Subspace,
                 der: DerivationAlgebra):
        super().__init__(shape, flat_span)
        self.der = der

    @cached_property
    def as_lie_algebra(self) -> LieAlgebra:
        """The d_bracket structure constants in this basis, built on first
        read. The space is never zero: a nonzero derivation D moves some
        basis vector x, and the inner cocycle L_x is then nonzero.

        Column t of C = der.ad_coordinates is the Der coordinates of
        ad(e_t), so column j of L_a @ C @ L_b is L_a(ad(L_b(D_j))), and
        [L_a, L_b] = E_a @ L_b - E_b @ L_a with the n x n map
        E_a = L_a∘ad = L_a @ C, built once for each a.

        The table is Lie with no scan: [L_a, L_b] = L_a·C·L_b − L_b·C·L_a
        is the commutator of the product X⋆Y = X·C·Y on n x m matrices,
        which is associative, (X⋆Y)⋆Z = X·C·Y·C·Z = X⋆(Y⋆Z), and the
        commutator of an associative product satisfies Jacobi. terms_of
        confirms that each bracket lies in the space."""
        b = self.matrices
        e = [l @ self.der.ad_coordinates for l in b]
        return self.lie_algebra(lambda i, j: e[i] @ b[j] - e[j] @ b[i], "L")

    # bound here, not inherited: bench/trace_cli.py traces it through
    # this class's __dict__, as it does DerivationAlgebra.coordinates_of
    coordinates_of = MatrixSpan.coordinates


def d_derivations(der: DerivationAlgebra) -> DDerivationSpace:
    """The cocycles of Der(G) acting on G, the kernel of their rule."""
    n, m = der.parent.dim, der.dim
    return DDerivationSpace((n, m), sparse_nullspace(
        n * m, cocycle_system(der.matrices, der.as_lie_algebra)), der)


def d_bracket(der: DerivationAlgebra, l1: Matrix, l2: Matrix) -> Matrix:
    """[L1,L2](D) = L1(ad(L2(D))) - L2(ad(L1(D))), one Der basis element
    D = D_j at a time: [L1,L2] = L1 @ A(L2) - L2 @ A(L1), where column j of
    the m x m map A(L) is the Der coordinates of ad(L(D_j)). L(D_j) is read
    as the terms of column j of L, and A(L) is built as its transpose,
    whose row j is those coordinates as terms."""
    g, m = der.parent, der.dim
    a = lambda l: Matrix._trusted(m, m, tuple(
        der.terms_of(g._ad(c)) for c in l.transpose().nonzeros)).transpose()
    return l1 @ a(l2) - l2 @ a(l1)


def der_action(der: DerivationAlgebra, d: Matrix, l: Matrix) -> Matrix:
    """D(L) = D∘L - L∘ad(D), ad(D) taken inside Der(G): row i of its
    transpose is the Der terms of [D, D_i]."""
    ad_d = Matrix._trusted(der.dim, der.dim, tuple(
        der.terms_of(d.commutator(b)) for b in der.matrices)).transpose()
    return d @ l - l @ ad_d


def build_h(dspace: DDerivationSpace) -> LieAlgebra:
    """H = Der(G) ⋉ cocycle space, on the concatenated canonical bases:
        [(D1,L1),(D2,L2)] = ([D1,D2], [L1,L2] + D1(L2) - D2(L1))
    The action is inner: D(L) = -L_y with y = L(D), since the cocycle rule
    L([D,D']) = D(L(D')) - D'(L(D)) makes D(L)(D') = D'(y). So D_i(L_j)
    has the coordinates P @ (column i of L_j), row i of L_j^T @ P^T, where
    row t of P^T is the coordinates of -L_{e_t}, the cocycle D -> D(e_t):
    the n x m map whose entry (k, i) is D_i[k][t], read off column t of
    each basis derivation D_i, so no vector or cocycle is built dense.

    H is Lie with no scan, by semidirect's criterion: Der(G) and the
    d-bracket are Lie (their as_lie_algebra), and the action D(L) = -L_y,
    y = L(D), is a homomorphism into the derivations of the d-bracket.
    Here (D(L))(D') = D'(L(D)), and ad(y) is taken in Der(G).
    - Homomorphism: D1(D2(L)) = -L_{D1(L(D2))}, so
      D1(D2(L)) - D2(D1(L)) = -L_{D1(L(D2)) - D2(L(D1))} = -L_{L([D1,D2])}
      = [D1,D2](L), by the cocycle rule.
    - Derivation: evaluated at D', D([L1,L2]) is D'(L1(ad L2(D))) -
      D'(L2(ad L1(D))), and [D(L1), L2] + [L1, D(L2)] is
          [L2(D'), L1(D)] - L2(ad D'(L1(D)))
          + L1(ad D'(L2(D))) - [L1(D'), L2(D)].
      Since [D', ad x] = ad(D'x), the cocycle rule on (D', ad L2(D)) gives
      L1(ad D'(L2(D))) = D'(L1(ad L2(D))) + [L1(D'), L2(D)], and likewise
      with 1 and 2 swapped. Put in, the brackets cancel and the sides agree.
    H's mixed Jacobi triples are exactly these identities, C(m,2)·p of the
    first kind and m·C(p,2) of the second. theorem1 checks them in effect:
    when H's generators act on C(G) by derivations, as a homomorphism and
    injectively, H is isomorphic to a commutator-closed space of matrices."""
    (n, m), der = dspace.shape, dspace.der
    p_t = Matrix._trusted(n, dspace.dim, tuple(dspace.terms_of(Matrix._trusted(
        m, n, tuple(c[t] for c in der.columns)).transpose()) for t in range(n)))
    acts = [lj.transpose() @ p_t for lj in dspace.matrices]
    return semidirect(der.as_lie_algebra, dspace.as_lie_algebra,
                      lambda i, j: acts[j].nonzeros[i])


class DCompletenessEvidence(NamedTuple):
    d_complete: bool
    d_center_dim: int
    d_space_dim: int
    inner_d_dim: int


def is_d_complete(dspace: DDerivationSpace, cd: Subspace) -> DCompletenessEvidence:
    """Trivial d-center cd and every cocycle in dspace inner. The inner
    cocycles lie in dspace and number dim G - dim cd, so they are all of it
    iff that is dspace.dim."""
    coboundary_dim = dspace.shape[0] - cd.dim
    return DCompletenessEvidence(cd.dim == 0 and coboundary_dim == dspace.dim,
                                 cd.dim, dspace.dim, coboundary_dim)

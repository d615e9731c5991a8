"""The holomorph C(G) = Der(G) ⋉ G and the three machine checks.

build_full_graph returns C(G) as a plain LieAlgebra: the basis of Der(G),
then that of G, so x in G sits at (0, x).

verify runs any of them on one algebra: theorem1 tests that the explicit
action of H = Der(G) ⋉ cocycles on C(G) gives exactly the derivation
algebra of C(G); the lemma compares the center of C(G) with the embedded
d-center; theorem2 compares d-completeness of G with completeness of C(G).

Both theorems read only dim Der(C(G)), and der_cg_blocks gets it from the
d-theory of G without the Leibniz system of C(G): dim Z¹ + dim S, where Z¹
is the cocycle space of dtheory and S, in (m+n)·n unknowns, the space of
δ restricted to G.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations
from typing import NamedTuple, Optional, Sequence

from .linalg import (Matrix, ONE, Scalar, SparseRow, Subspace, ZERO,
                     sparse_nullspace)
from .algebra import (CompletenessEvidence, DerivationAlgebra, LieAlgebra,
                      Representation, center, derivation_algebra,
                      is_complete, semidirect, _unit)
from .dtheory import (DCompletenessEvidence, DDerivationSpace, build_h,
                      d_center, d_derivations, is_d_complete)


def build_full_graph(der: DerivationAlgebra) -> LieAlgebra:
    """C(G) for G = der.parent:
        [(D1,x1),(D2,x2)] = ([D1,D2], D1 x2 - D2 x1 + [x1,x2])."""
    return semidirect(der.as_lie_algebra, der.parent,
                      lambda i, j: der.matrices[i].column(j))


def der_cg_blocks(der: DerivationAlgebra, cg: LieAlgebra) -> Subspace:
    """The space S of the restrictions φ = δ|_G of the derivations δ of
    cg = C(G), for G = der.parent: dim Der(C(G)) = dim Z¹ + dim S, with Z¹
    the cocycle space of dtheory.

    With m = dim Der(G) and n = dim G, a linear map δ of C(G) = Der(G) ⋉ G
    is φ: G → C(G), with Der rows B and G rows E, and its parts
    A: Der(G) → Der(G) and C: Der(G) → G. Write D·φ = φ∘D − ad(D)∘φ for D
    in Der(G); its G rows are [E, D]. The Leibniz rule on the three kinds
    of basis pair says:
    - (x, y): δ|_G ∈ Z¹(G, C(G)); on the Der rows, B([G, G]) = 0;
    - (D, x): (D·φ)(x) = [A(D) + C(D), x], so D·φ ∈ 0 ⊕ Der(G) for every
      D, and A(D) = [E, D] − ad(C(D)) is fixed by φ and C;
    - (D₁, D₂): C is a cocycle, an element of Z¹, and A is a derivation
      of Der(G).
    A is then a derivation of Der(G) by itself: [E, ·] is one on the
    normalizer, and D ↦ ad(C(D)) is one when C is a cocycle, because
    [D, ad y] = ad(Dy). So δ ↦ (C, φ) is an isomorphism of Der(C(G)) onto
    Z¹ ⊕ S, where S is the solution space of:
    - the cocycle rows of G acting on C(G), Representation.cocycle_system;
    - for each basis derivation D_i, the Der rows of D_i·φ, which vanish,
      and its G rows [E, D_i], on which every reduced Leibniz row of G,
      kept from the Der(G) solve, vanishes.
    S lies in Q^((m+n)·n), in Representation's layout for a map G → C(G):
    φ[k][t] at k·n + t, the m Der rows (B) first and the n G rows (E) after.

    im H is the part of S whose Der rows vanish (E = D + L∘ad, C = L), so
    dim Der(C(G)) − dim H is the dimension of the projection of S onto the
    Der rows. For heisenberg3 that projection is spanned by B = −ad with
    E = 2·id.
    """
    g, m, n, ad = der.parent, der.dim, der.parent.dim, cg.adjoint.rho
    leibniz, _ = g.adjoint.cocycle_rref

    def rows():
        yield from Representation(ad[m:], g).cocycle_system
        for d, adi in zip(der.matrices, ad):
            dc, adi = d.transpose().nonzeros, adi.nonzeros

            def put(row: SparseRow, k: int, j: int, y: Scalar) -> None:
                # row += y · entry (k, j) of φ∘D_i − ad(D_i)∘φ
                for t, x in dc[j]:
                    row[k * n + t] = row.get(k * n + t, ZERO) + y * x
                for a, x in adi[k]:
                    row[a * n + j] = row.get(a * n + j, ZERO) - y * x

            # the Der rows vanish, the G rows [E, D_i] lie in Der(G)
            for k in range(m):
                for j in range(n):
                    row: SparseRow = {}
                    put(row, k, j, ONE)
                    yield row
            for lrow in leibniz:
                row = {}
                for c, y in lrow.items():
                    a, b = divmod(c, n)
                    put(row, m + a, b, y)
                yield row

    return sparse_nullspace((m + n) * n, rows())


def h_derivation(dspace: DDerivationSpace, d_coords: Sequence,
                 l_coords: Sequence) -> Matrix:
    """Matrix on C(G) of the pair (D, L):
        (D1, g) -> ([D,D1], D(g) + L(ad(g)) + L(D1))
    """
    der, (n, m) = dspace.der, dspace.shape
    size = m + n
    D, L = der.matrix_of(d_coords), dspace.matrix_of(l_coords)
    # column j of ad_d is the coordinates of [D, D_j]; column j of corr is
    # L(ad(e_j)), both read off structures built once per algebra
    ad_d = der.as_lie_algebra.ad(d_coords)
    corr = L @ der.ad_coordinates
    # column j < m is the image of (D_j, 0), column m + j that of (0, e_j)
    e = [ZERO] * (size * size)
    for block, r0, c0 in ((ad_d, 0, 0), (L, m, 0), (D + corr, m, m)):
        for r, row in enumerate(block.nonzeros, r0):
            for c, x in row:
                e[r * size + c0 + c] = x
    return Matrix._trusted(size, size, tuple(e))


class Theorem1Evidence(NamedTuple):
    each_generator_is_derivation: bool
    bracket_homomorphism: bool
    injective: bool
    dim_h: int
    dim_der_cg: int
    image_equals_der_cg: bool

    @property
    def passed(self) -> bool:
        return (self.each_generator_is_derivation and self.bracket_homomorphism
                and self.injective and self.dim_h == self.dim_der_cg
                and self.image_equals_der_cg)


class LemmaEvidence(NamedTuple):
    center_cg_dim: int
    d_center_dim: int
    match: bool

    @property
    def passed(self) -> bool:
        return self.match


class Theorem2Evidence(NamedTuple):
    d_complete: bool
    full_graph_complete: bool
    equivalent: bool

    @property
    def passed(self) -> bool:
        return self.equivalent


class VerificationReport(NamedTuple):
    algebra_name: str
    theorem1: Optional[Theorem1Evidence] = None
    lemma: Optional[LemmaEvidence] = None
    theorem2: Optional[Theorem2Evidence] = None
    d_evidence: Optional[DCompletenessEvidence] = None
    cg_evidence: Optional[CompletenessEvidence] = None

    @property
    def passed(self) -> bool:
        parts = [p for p in (self.theorem1, self.lemma, self.theorem2)
                 if p is not None]
        return all(p.passed for p in parts) if parts else False


class _Workspace:
    """Shared intermediates, each built once and only when a check reads it."""

    def __init__(self, g: LieAlgebra):
        self.der = derivation_algebra(g)
        self.cg = build_full_graph(self.der)

    @cached_property
    def dspace(self) -> DDerivationSpace:
        return d_derivations(self.der)

    @cached_property
    def h(self) -> LieAlgebra:
        return build_h(self.dspace)

    @cached_property
    def der_cg_dim(self) -> int:
        """dim Der(C(G)) = dim Z¹ + dim S, read by theorem1 and theorem2."""
        return self.dspace.dim + der_cg_blocks(self.der, self.cg).dim

    @cached_property
    def cg_center(self) -> Subspace:
        """The center of C(G), read by the lemma and theorem2."""
        return center(self.cg)

    @cached_property
    def dcenter(self) -> Subspace:
        """The d-center of G, read by the lemma and theorem2."""
        return d_center(self.der)


def check_theorem1(ws: _Workspace) -> Theorem1Evidence:
    cg, dspace, h = ws.cg, ws.dspace, ws.h
    m, p = ws.der.dim, dspace.dim
    total = m + p

    units = [_unit(total, i) for i in range(total)]
    gens = [h_derivation(dspace, u[:m], u[m:]) for u in units]
    each_der = all(cg.adjoint.is_cocycle(M) for M in gens)

    # each generator's nonzero entries, keyed by their row-major index
    size = cg.dim
    flat = [{r * size + c: x for r, row in enumerate(M.nonzeros) for c, x in row}
            for M in gens]

    # h_derivation is linear in its coordinates, so the image of
    # [x_i, x_j] = sum_k c_k x_k is sum_k c_k gens[k]: the nonzeros of the
    # commutator minus that sum must cancel
    homomorphism = True
    for i, j in combinations(range(total), 2):
        acc: dict[int, Scalar] = {}
        for k, c in h.pairs[i][j]:
            for t, x in flat[k].items():
                acc[t] = acc.get(t, ZERO) - c * x
        a, b = gens[i].nonzeros, gens[j].nonzeros
        for r in range(size):
            base = r * size
            for k, x in a[r]:
                for c, y in b[k]:
                    acc[base + c] = acc.get(base + c, ZERO) + x * y
            for k, y in b[r]:
                for c, x in a[k]:
                    acc[base + c] = acc.get(base + c, ZERO) - y * x
        if any(acc.values()):
            homomorphism = False
            break

    # every generator in Der(C(G)) puts the image inside it; equal dimension
    # then makes the two equal
    dim, image = ws.der_cg_dim, Subspace._span(size * size, flat)
    return Theorem1Evidence(each_der, homomorphism, image.dim == total,
                            total, dim, each_der and image.dim == dim)


def check_lemma(ws: _Workspace) -> LemmaEvidence:
    cg_center, cd = ws.cg_center, ws.dcenter
    pad = (ZERO,) * ws.der.dim
    embedded = Subspace.from_rows(
        ws.cg.dim, [pad + v for v in cd.basis_vectors()])
    return LemmaEvidence(cg_center.dim, cd.dim, cg_center == embedded)


def check_theorem2(ws: _Workspace) -> tuple[Theorem2Evidence,
                                            DCompletenessEvidence,
                                            CompletenessEvidence]:
    dc = is_d_complete(ws.dspace, ws.dcenter)
    cc = is_complete(ws.cg, ws.der_cg_dim, ws.cg_center)
    return (Theorem2Evidence(dc.d_complete, cc.complete,
                             dc.d_complete == cc.complete), dc, cc)


def verify(g: LieAlgebra, name: str = "",
           which: str = "all") -> VerificationReport:
    """Run the requested checks; which is one of 1 / 2 / lemma / all."""
    if which not in ("1", "2", "lemma", "all"):
        raise ValueError(f"which must be 1, 2, lemma or all, got {which!r}")
    ws = _Workspace(g)
    t1 = lemma = t2 = dc = cc = None
    if which in ("1", "all"):
        t1 = check_theorem1(ws)
    if which in ("lemma", "all"):
        lemma = check_lemma(ws)
    if which in ("2", "all"):
        t2, dc, cc = check_theorem2(ws)
    return VerificationReport(name, t1, lemma, t2, dc, cc)

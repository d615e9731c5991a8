"""The holomorph C(G) = Der(G) ⋉ G and the three machine checks.

build_full_graph returns C(G) as a plain LieAlgebra: the basis of Der(G),
then that of G, so x in G sits at (0, x). It is the one semidirect product
the package builds; H = Der(G) ⋉ cocycles is held as its action
(dtheory.build_h), and no table of H is built.

verify runs any of them on one algebra: theorem1 tests that the explicit
action of H = Der(G) ⋉ cocycles on C(G) gives exactly the derivation
algebra of C(G); the lemma compares the center of C(G) with the embedded
d-center; theorem2 compares d-completeness of G with completeness of C(G).

Both theorems read only dim Der(C(G)), and der_cg_blocks gets it from the
d-theory of G without the Leibniz system of C(G): dim Z¹ + dim S, where Z¹
is the cocycle space of dtheory and S, in (m+n)·n unknowns, the space of
δ restricted to G. The same proof decides, on its blocks, whether each
generator of H is a derivation (is_block_derivation), and then lets
theorem1 compare only the n G rows of each map of C(G): a derivation with
no G → Der block has Der rows fixed by its G rows. Of H's basis pairs,
theorem1 compares only the m·p mixed ones, a derivation against a
cocycle: the rest hold by how Der(G)'s table and the d-bracket are built
(check_theorem1).

The defect dim Der(C(G)) − dim H is dim W, the projection of S onto its
Der rows (der_cg_blocks). So, when theorem1's generator, homomorphism and
injectivity checks pass, h(H) is all of Der(C(G)) iff W = 0; and C(G) is
complete iff G is d-complete and W = 0 (check_theorem2).

_Workspace builds what every command reads of one algebra, the CLI's info,
der, dder and full-graph as well as verify: each object once, and only
when a command first reads it.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import combinations
from typing import NamedTuple, Optional

from .linalg import Matrix, SparseRow, Subspace, Terms, ZERO, span, sparse_nullspace
from .algebra import (CompletenessEvidence, DerivationAlgebra,
                      InternalConsistencyError, LieAlgebra, center,
                      cocycle_system, derivation_algebra, is_complete,
                      _flat, _from_brackets)
from .dtheory import (DCompletenessEvidence, DDerivationSpace, build_h,
                      d_center, d_derivations, is_d_complete)


def build_full_graph(der: DerivationAlgebra) -> LieAlgebra:
    """C(G) for G = der.parent, the semidirect product Der(G) ⋉ G on Der(G)'s
    basis followed by G's:
        [(D1,x1),(D2,x2)] = ([D1,D2], D1 x2 - D2 x1 + [x1,x2]).
    Der(G) and G keep their own brackets, and [D_i, e_j] is column j of D_i.

    A semidirect product k ⋉ v is a Lie algebra iff k and v are, each k_i
    acts by a derivation of v, and the action is a homomorphism
    k -> Der(v) (Jacobson, Lie Algebras, 1962, Ch. I): a triple inside k
    or inside v is Jacobi in its factor, one with two elements of v in it
    is the derivation rule, and one with two of k is the homomorphism rule.
    So C(G) is Lie with no scan: G's Jacobi identity was checked on input,
    Der(G)'s bracket is the commutator of its matrices, and Der(G) acts on
    G by those same matrices. Each is an exact kernel vector of G's
    Leibniz rule, so it acts by a derivation, and the action of [D1,D2] is
    D1 D2 - D2 D1, so it is a homomorphism."""
    k, g, m = der.as_lie_algebra, der.parent, der.dim
    upper = {(i, j): k.pairs[i][j] for i, j in combinations(range(m), 2)}
    upper.update(((i, m + j), tuple((m + t, c) for t, c in col))
                 for i, cols in enumerate(der.columns) for j, col in enumerate(cols))
    upper.update(((m + i, m + j), tuple((m + t, c) for t, c in g.pairs[i][j]))
                 for i, j in combinations(range(g.dim), 2))
    return _from_brackets(m + g.dim, upper, k.basis_names + g.basis_names)


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
    - the cocycle rows of G acting on C(G) by cg.adjoint[m:],
      algebra.cocycle_system: B([x, y]) = 0 and
      E[x, y] = [x, Ey] + [Ex, y] + (Bx)y − (By)x;
    - for each basis derivation D_i, the Der rows of D_i·φ, which vanish:
      B(D_i x) = D_i∘(Bx) − (Bx)∘D_i.
    These make the G rows F = [E, D] a derivation for every D in Der(G).
    Expand F[x, y] by the cocycle rows for E and the Leibniz rule for D:
      F[x, y] − [Fx, y] − [x, Fy] = P(x, y) − P(y, x), where
      P(x, y) = (B(Dx))y + (Bx)(Dy) − D((Bx)y),
    and P = 0 by the Der rows. So G's Leibniz rows on [E, D_i] cut nothing
    from S, and none is made; the rows above are reduced as they come, and,
    as in cocycle_system, a row holds no zero entry and an empty one is not
    made. Der row (k, j) of D_i·φ is column j of D_i, in B's row k, less
    row k of ad(D_i), in B's column j: the two meet only at entry (k, j),
    which is dropped where it cancels, and the row is empty when both are.
    S lies in Q^((m+n)·n), in cocycle_system's layout for a map G → C(G):
    φ[k][t] at k·n + t, the m Der rows (B) first and the n G rows (E) after.

    im H is the part of S whose Der rows vanish (E = D + L∘ad, C = L), so
    dim Der(C(G)) − dim H is the dimension of the projection of S onto the
    Der rows. That projection is W: with β(x, y) = (Bx)y, it is the space
    of Der(G)-invariant bilinear β: G × G → Z(G) that vanish on [G, G] in
    each slot and whose skew part β − βᵀ is an adjoint coboundary, as
    tests/test_laws.py::test_defect_is_dim_w proves. For heisenberg3 that
    projection is spanned by B = −ad with E = 2·id.
    """
    g, m, n, ad = der.parent, der.dim, der.parent.dim, cg.adjoint

    def rows():
        yield from cocycle_system(ad[m:], g)
        # entry (k, j), k < m, of D_i·φ = φ∘D_i − ad(D_i)∘φ
        for dc, adi in zip(der.columns, ad):
            for k, adk in enumerate(adi.nonzeros[:m]):
                for j in range(n):
                    row: SparseRow = {k * n + t: x for t, x in dc[j]}
                    for a, x in adk:
                        if x := row.pop(a * n + j, ZERO) - x:
                            row[a * n + j] = x
                    if row:
                        yield row

    return sparse_nullspace((m + n) * n, rows())


def h_derivation(dspace: DDerivationSpace, d_terms: Terms,
                 l_terms: Terms) -> Matrix:
    """Matrix on C(G) of the pair (D, L), each given by its nonzero
    coordinate terms (i, a) in the canonical bases of Der(G) and Z¹:
        (D1, g) -> ([D,D1], D(g) + L(ad(g)) + L(D1)),
    the block matrix [[ad D, 0], [L, E]] with E = D + L∘ad, joined from the
    blocks' nonzero rows: the m rows of ad D, then each G row as L's row
    followed by E's, shifted past the m Der columns. No coordinate vector
    is built dense: ad D is read off Der(G)'s bracket terms, and D and L
    off their spans' basis rows."""
    der, (n, m) = dspace.der, dspace.shape
    L = dspace.matrix_of(l_terms)
    # column j of ad(D) is the coordinates of [D, D_j], and column j of
    # L∘ad is L(ad(e_j)): both read off structures built once per algebra
    ad_d = der.as_lie_algebra._ad(d_terms)
    e = der.matrix_of(d_terms) + L @ der.ad_coordinates
    return Matrix(m + n, ad_d.nonzeros + tuple(
        lr + tuple((m + c, x) for c, x in er)
        for lr, er in zip(L.nonzeros, e.nonzeros)))


def is_block_derivation(dspace: DDerivationSpace, delta: Matrix) -> bool:
    """Whether delta, a map of C(G) with no G → Der(G) block, is a
    derivation of C(G), decided on its blocks A: Der(G) → Der(G),
    B: G → Der(G), C: Der(G) → G and E: G → G by the proof in der_cg_blocks:
    when B = 0 it is one iff E lies in Der(G), C in Z¹ and
    A(D) = [E, D] − ad(C(D)). h_derivation never writes B, so a nonzero B
    raises InternalConsistencyError.
    """
    der, (n, m) = dspace.der, dspace.shape
    top, bottom = delta.nonzeros[:m], delta.nonzeros[m:]
    if any(row and row[-1][0] >= m for row in top):
        raise InternalConsistencyError(
            "a map of C(G) from H has a nonzero G -> Der block")
    c = Matrix(m, tuple(tuple((k, x) for k, x in row if k < m) for row in bottom))
    e = {r * n + k - m: x for r, row in enumerate(bottom) for k, x in row if k >= m}
    e_terms = der._coordinates(e)
    if e_terms is None or dspace._coordinates(_flat(c)) is None:
        return False
    return (Matrix(m, top)
            == der.as_lie_algebra._ad(e_terms) - der.ad_coordinates @ c)


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
    """What the commands read of one algebra G, each object built once:
    Der(G), which every command reads, when the workspace is made, and the
    rest, C(G) included, when first read. So der builds Der(G) alone, info
    and dder never build C(G), and the lemma builds no Z¹."""

    def __init__(self, g: LieAlgebra):
        self.der = derivation_algebra(g)

    @cached_property
    def cg(self) -> LieAlgebra:
        return build_full_graph(self.der)

    @cached_property
    def dspace(self) -> DDerivationSpace:
        return d_derivations(self.der)

    @cached_property
    def action(self) -> tuple[Matrix, ...]:
        """H's action, D_i(L_j) in Z¹ as row i of action[j], read by theorem1."""
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
        """The d-center of G, read by the lemma, theorem2, info and dder."""
        return d_center(self.der)

    @cached_property
    def d_completeness(self) -> DCompletenessEvidence:
        """Whether G is d-complete, read by theorem2, info and dder."""
        return is_d_complete(self.dspace, self.dcenter)

    @cached_property
    def cg_completeness(self) -> CompletenessEvidence:
        """Whether C(G) is complete, read by theorem2."""
        return is_complete(self.cg, self.der_cg_dim, self.cg_center)


def check_theorem1(ws: _Workspace) -> Theorem1Evidence:
    """Theorem 1 on one algebra, read off the n G rows of each map.

    Basis element k of H, a pair (D, L), acts on C(G) as gens[k], whose
    blocks (as in is_block_derivation) are A = ad(D), B = 0, C = L and
    E = D + L∘ad. h_derivation reads each generator as its one coordinate
    term: ((i, 1),) in Der(G) for k = i < m, ((j, 1),) in Z¹ for k = m + j,
    so no unit coordinate vector is built.
    - Homomorphism: if every generator passes is_block_derivation, then
      [gens[i], gens[j]] and each sum of c_k gens[k] are derivations with
      B = 0 (B of a product is A₁B₂ + B₁E₂), whose A(D) = [E, D] − ad(C(D))
      is fixed by C and E; so two of them agree iff their G rows do. If a
      generator fails, so does theorem1, whatever the loop says.
    - Only the m·p mixed pairs are compared: [gens[i], gens[m + j]] against
      the image of D_i(L_j), whose terms are row i of ws.action[j]. The G
      rows of a product are C₁A₂ + E₁C₂ and E₁E₂, and with K the Der
      coordinates of ad, L∘ad = L·K. Every other pair agrees by how H's
      factors are built:
      - (D_i, D_j): both generators have C = 0, so the commutator's G rows
        are (0, [D_i, D_j]), and those of Σ c_k gens[k] are (0, Σ c_k D_k)
        over the terms of Der(G)'s bracket. DerivationAlgebra.as_lie_algebra
        read those terms off [D_i, D_j] by exact reconstruction, and C(G),
        built in the same request, reads that table.
      - (L_i, L_j): with A = 0, C = L and E = L·K, the commutator's G rows
        are (M, M·K), M = L_i⋆L_j − L_j⋆L_i for the product X⋆Y = X·K·Y,
        which is associative, so M is the d-bracket, a Lie bracket. It is
        the image of (0, M) under h_derivation, which is linear in L. The
        commutator of two derivations is one, with B = 0, so by the block
        criterion its C block M lies in Z¹, and M = Σ c_k L_k gives the
        G rows of Σ c_k gens[m + k].
    - Image: (D, L) ↦ (C, E) = (L, D + L∘ad) is injective and A is a
      function of D, so the generators' G rows span the image's dimension.
    """
    dspace, acts = ws.dspace, ws.action
    m, n, p = ws.der.dim, ws.der.parent.dim, dspace.dim
    total, size = m + p, m + n

    gens = [h_derivation(dspace, ((i, 1),), ()) for i in range(m)] + [
        h_derivation(dspace, (), ((j, 1),)) for j in range(p)]
    each_der = all(is_block_derivation(dspace, M) for M in gens)

    # each generator's G rows, the n x (m+n) Matrix below its m Der rows
    rows = [Matrix(size, M.nonzeros[m:]) for M in gens]
    zero = Matrix.zero(n, size)

    # h_derivation is linear in its coordinates, so the image of
    # D_i(L_j) = sum_k c_k L_k is sum_k c_k gens[m + k]: the commutator's G
    # rows, the Matrix that Matrix.commutator reads from row m on, must
    # equal that sum's; it is built from the action's terms alone, with no
    # zero Matrix added, as most of them have at most one term
    homomorphism = all(gens[i].commutator(gens[m + j], m) == reduce(
        Matrix.__add__,
        [rows[m + k].scale(c) for k, c in acts[j].nonzeros[i]] or [zero])
        for i in range(m) for j in range(p))

    # every generator in Der(C(G)) puts the image inside it; equal dimension
    # then makes the two equal
    dim, image = ws.der_cg_dim, span(n * size, map(_flat, rows))
    return Theorem1Evidence(each_der, homomorphism, image.dim == total,
                            total, dim, each_der and image.dim == dim)


def check_lemma(ws: _Workspace) -> LemmaEvidence:
    cg_center, cd, m = ws.cg_center, ws.dcenter, ws.der.dim
    # x -> (0, x) shifts the d-center's RREF rows past m Der coordinates: an RREF
    embedded = tuple(tuple((m + c, x) for c, x in row) for row in cd.rows)
    return LemmaEvidence(cg_center.dim, cd.dim, cg_center.rows == embedded)


def check_theorem2(ws: _Workspace) -> Theorem2Evidence:
    """Theorem 2, with its identity checked: for m = dim Der(G), n = dim G,
    p = dim Z¹ and cd the d-center, C(G) is complete iff G is d-complete
    and dim Der(C(G)) = m + p; InternalConsistencyError if that fails.

    Proof. (D, x) is central in C(G) iff D = −ad x (pairs with (0, y)) and
    Der(G)·x = 0 (pairs with (D₁, 0)), so x is central, D = 0 and
    Z(C(G)) = 0 ⊕ cd. The S of der_cg_blocks contains 0 ⊕ Der(G), so
    dim Der(C(G)) ≥ m + p. The inner cocycles L_x lie in Z¹, and x ↦ L_x
    has kernel cd, so p ≥ n − dim cd. C(G) is complete iff cd = 0 and its
    m + n inner derivations are all of Der(C(G)); G is d-complete iff
    cd = 0 and p = n. When cd = 0, m + n ≤ m + p ≤ dim Der(C(G)), so
    dim Der(C(G)) = m + n iff p = n and dim Der(C(G)) = m + p.

    As dim Der(C(G)) − m − p is dim W (der_cg_blocks), C(G) is complete iff
    G is d-complete and W = 0. And when theorem1's generator, homomorphism
    and injectivity checks pass, h(H) has dimension m + p inside
    Der(C(G)), so h(H) is all of Der(C(G)) iff W = 0."""
    dc, cc = ws.d_completeness, ws.cg_completeness
    if cc.complete != (dc.d_complete
                       and ws.der_cg_dim == ws.der.dim + ws.dspace.dim):
        raise InternalConsistencyError(
            "completeness of C(G) disagrees with the theorem2 identity")
    return Theorem2Evidence(dc.d_complete, cc.complete,
                            dc.d_complete == cc.complete)


# what verify (and the CLI's --theorem) takes: theorem 1, theorem 2, the
# lemma, or all three
CHECKS = ("1", "2", "lemma", "all")


def verify(g: LieAlgebra, name: str = "",
           which: str = "all") -> VerificationReport:
    """Run the requested checks; which is one of 1 / 2 / lemma / all."""
    if which not in CHECKS:
        raise ValueError(f"which must be 1, 2, lemma or all, got {which!r}")
    ws = _Workspace(g)
    t1 = check_theorem1(ws) if which in ("1", "all") else None
    lemma = check_lemma(ws) if which in ("lemma", "all") else None
    t2 = check_theorem2(ws) if which in ("2", "all") else None
    # the report keeps the two completeness records that theorem2 read
    dc, cc = (ws.d_completeness, ws.cg_completeness) if t2 else (None, None)
    return VerificationReport(name, t1, lemma, t2, dc, cc)

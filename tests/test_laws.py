"""Laws that the computed dimensions obey by theorem, not by reference.

The differential tests compare the package with a second implementation;
a fault that both share, or that hangs on basis order, passes them. These
tests instead check identities that follow from the mathematics, each
proved in its docstring. A failing law is a bug or a finding to record.
"""

import functools
from itertools import combinations_with_replacement

import pytest

import reference
from algebras import (CASES, algebra, case_algebra, case_id, chain_rung,
                      direct_sum, heisenberg, two_step_nilpotent)
from liegraph.algebra import (center, derivation_algebra, derived_subalgebra,
                              make_lie_algebra)
from liegraph.dtheory import d_derivations
from liegraph.fullgraph import (_Workspace, build_full_graph, check_theorem1,
                                der_cg_blocks, h_derivation, verify)
from liegraph.linalg import Matrix


def test_direct_sum_derivations_and_center():
    """For G = G₁ ⊕ G₂, with Z the center and G' = [G, G]:
        dim Der G = dim Der G₁ + dim Der G₂
                    + dim(G₁/G₁')·dim Z(G₂) + dim(G₂/G₂')·dim Z(G₁),
    and Z(G) = Z(G₁) ⊕ Z(G₂).

    Proof. Write a linear map D of G as blocks D_ab: G_b → G_a. The
    Leibniz rule on a pair x, y in G₁ reads D_11 [x, y] = [D_11 x, y] +
    [x, D_11 y] in G₁ and D_21 [x, y] = [D_21 x, y] + [x, D_21 y] in G₂,
    where the right side is 0 since G₁ and G₂ commute. On a pair x in G₁,
    y in G₂ it reads 0 = [D_21 x, y] + [x, D_12 y], whose G₂ part says
    that D_21 x commutes with G₂ and whose G₁ part says that D_12 y commutes
    with G₁. So D is a derivation iff D_11 and D_22 are derivations of
    their factors, D_21 maps G₁ into Z(G₂) and vanishes on G₁', and D_12
    maps G₂ into Z(G₁) and vanishes on G₂'. Such off-diagonal blocks are
    the linear maps G₁/G₁' → Z(G₂) and G₂/G₂' → Z(G₁), which gives the
    count. An element x₁ + x₂ is central iff each x_a commutes with G_a,
    so the center's canonical RREF rows are those of Z(G₁), then those of
    Z(G₂) with every column shifted by dim G₁.

    Every unordered pair of CASES entries, repeats allowed, with
    dim G₁ + dim G₂ ≤ 8.
    """
    algebras = [case_algebra(c) for c in CASES]
    facts = [(derivation_algebra(g).dim, g.dim - derived_subalgebra(g).dim,
              center(g)) for g in algebras]
    mismatches, pairs = [], 0
    for a, b in combinations_with_replacement(range(len(CASES)), 2):
        g1, g2 = algebras[a], algebras[b]
        if g1.dim + g2.dim > 8:
            continue
        pairs += 1
        (der1, ab1, z1), (der2, ab2, z2) = facts[a], facts[b]
        g = direct_sum(g1, g2)
        want_der = der1 + der2 + ab1 * z2.dim + ab2 * z1.dim
        shifted = tuple(tuple((g1.dim + c, x) for c, x in row) for row in z2.rows)
        got_der, got_z = derivation_algebra(g).dim, center(g).rows
        if got_der != want_der or got_z != z1.rows + shifted:
            mismatches.append((case_id(CASES[a]), case_id(CASES[b]),
                               got_der, want_der))
    assert pairs == 298
    assert mismatches == []


@pytest.mark.parametrize("case", CASES + [(5, 6)], ids=case_id)
def test_der_rows_make_each_commutator_of_e_a_derivation(case):
    """For φ = (B, E) in the space S of der_cg_blocks, with B: G → Der(G)
    and E: G → G, and for every D in Der(G), F = [E, D] is a derivation of
    G, so S needs no Leibniz rows of G on F.

    Proof. S's cocycle rows say B([x, y]) = 0 and
    E[x, y] = [x, Ey] + [Ex, y] + (Bx)y − (By)x, and its Der rows say
    B(Dx) = D∘(Bx) − (Bx)∘D. Expand F[x, y] = E(D[x, y]) − D(E[x, y]) by
    the Leibniz rule for D and the cocycle rows for E; the terms in E and D
    alone give [Fx, y] + [x, Fy], and what is left is
        F[x, y] − [Fx, y] − [x, Fy]
          = [(B(Dx))y + (Bx)(Dy) − D((Bx)y)]
            − [(B(Dy))x + (By)(Dx) − D((By)x)].
    By the Der rows, (B(Dx))y = D((Bx)y) − (Bx)(Dy), so the first bracket
    is 0, and the second is the first with x and y swapped.

    Checked with the reference Leibniz rule on each basis vector of S and
    each basis derivation D_i, on every CASES entry and on
    two_step_nilpotent(5, 6).
    """
    g = case_algebra(case)
    der = derivation_algebra(g)
    m, n = der.dim, g.dim
    s = der_cg_blocks(der, build_full_graph(der))
    bad = []
    for b, v in enumerate(reference.dense_rows(map(dict, s.rows), s.ambient_dim)):
        e = Matrix.from_rows([v[(m + a) * n:(m + a + 1) * n] for a in range(n)])
        for i, d in enumerate(der.matrices):
            if not reference.is_cocycle(g.adjoint, g, e @ d - d @ e):
                bad.append((b, i))
    assert bad == []


@pytest.mark.parametrize("case", CASES + [(5, 6)], ids=case_id)
def test_h_der_generators_act_as_inner_derivations_of_cg(case):
    """H's generator (D_i, 0) acts on C(G) as ad(D_i, 0), C(G)'s own inner
    derivation, and each generator (0, L_j) has no Der rows.

    Proof. In C(G), [(D, 0), (D′, x)] = ([D, D′], Dx), so ad(D, 0) is the
    block matrix [[ad D, 0], [0, D]]. h_derivation gives the pair (D, L)
    the blocks [[ad D, 0], [L, D + L∘ad]], which for L = 0 is that matrix;
    for D = 0 its Der rows, those of ad 0, are all zero.

    On every CASES entry and on two_step_nilpotent(5, 6).
    """
    der = derivation_algebra(case_algebra(case))
    cg, dspace = build_full_graph(der), d_derivations(der)
    m, p = der.dim, dspace.dim
    for i in range(m):
        unit = [1 if t == i else 0 for t in range(m)]
        assert (h_derivation(dspace, reference.terms(unit),
                             reference.terms([0] * p)) == cg.adjoint[i])
    for j in range(p):
        unit = [1 if t == j else 0 for t in range(p)]
        assert h_derivation(dspace, reference.terms([0] * m),
                            reference.terms(unit)).nonzeros[:m] == ((),) * m


# the 31 CASES and 24 more two-step nilpotent draws of dimension 5 and 6
THEOREM2_CASES = CASES + [(seed, n) for seed in range(6, 18) for n in (5, 6)]


@pytest.mark.parametrize("case", THEOREM2_CASES, ids=case_id)
def test_theorem2_is_d_completeness_with_no_defect(case):
    """C(G) is complete iff G is d-complete and the defect
    dim Der(C(G)) − dim H is 0, given the lemma and theorem1's generators.

    Proof. Let m = dim Der(G), n = dim G, p the dimension of the cocycle
    space Z¹ and cd the d-center. Assume three things:
    - the lemma holds, so dim Z(C(G)) = dim cd;
    - H, of dimension m + p, acts on C(G) injectively by derivations, so
      dim Der(C(G)) = m + p + defect with defect ≥ 0;
    - the inner cocycles L_x lie in Z¹, and x ↦ L_x has kernel cd, so
      p ≥ n − dim cd.
    C(G), of dimension m + n, is complete iff its center is 0 and its
    inner derivations, of dimension m + n − dim Z(C(G)), are all of
    Der(C(G)): iff cd = 0 and m + p + defect = m + n. G is d-complete iff
    cd = 0 and every cocycle is inner: iff cd = 0 and p = n. When cd = 0,
    p ≥ n and defect ≥ 0, so p + defect = n iff p = n and defect = 0.
    Hence C(G) is complete iff G is d-complete and the defect is 0.
    """
    rep = verify(case_algebra(case), case_id(case), which="all")
    t1, lemma, t2 = rep.theorem1, rep.lemma, rep.theorem2
    assert lemma.match and t1.each_generator_is_derivation and t1.injective
    defect = t1.dim_der_cg - t1.dim_h
    assert defect >= 0
    assert t2.full_graph_complete == (t2.d_complete and defect == 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_abelian_closed_forms(n):
    """For G = Qⁿ abelian: dim Der G = n², dim Z¹ = n and
    dim Der(C(G)) = dim H = n² + n.

    Proof. Every linear map is a derivation of the zero bracket, so
    Der G = gl(n). The identity I is central in gl(n), so a cocycle L has
    0 = L([I, D]) = I·L(D) − D·L(I), that is L(D) = D x with x = L(I):
    L = −L_x is inner, and x ↦ L_x is injective since only 0 is fixed by
    all of gl(n). So Z¹ ≅ Qⁿ, and H has dimension n² + n, as does
    C(G) = gl(n) ⋉ Qⁿ = aff(n). That algebra is complete. Its center is
    0: if A + v is central, [I, A + v] = v = 0 and A kills Qⁿ. For a
    derivation δ, write δ(I) = A₀ + v₀ and δ' = δ + ad(v₀), so that
    δ'(I) = A₀, because [v₀, I] = −v₀. ad(I) is 0 on gl(n) and 1 on Qⁿ.
    For A in gl(n), δ'[I, A] = 0 gives [A₀, A] + [I, δ'A] = 0, whose
    gl(n) part makes A₀ central, A₀ = cI, and whose Qⁿ part makes
    δ'(gl(n)) ⊆ gl(n). For v in Qⁿ, δ'v = δ'[I, v] = cv + [I, δ'v] makes
    δ'v lie in Qⁿ and c = 0. With T = δ'|Qⁿ, δ'(Av) = T A v gives
    δ'(A) v = [T, A] v, so δ' = ad(T) and δ = ad(T − v₀) is inner. So
    dim Der(C(G)) = n² + n.
    """
    g = make_lie_algebra(n, [])
    rep = verify(g, f"abelian{n}", which="all")
    assert derivation_algebra(g).dim == n * n
    assert rep.d_evidence.d_space_dim == n
    assert rep.theorem1.dim_der_cg == rep.theorem1.dim_h == n * n + n


@pytest.mark.parametrize("k", range(1, 6))
def test_heisenberg_closed_forms(k):
    """For G = h_{2k+1}, V = span{x_i, y_i} and [u, w] = ω(u, w)·z with ω
    the standard symplectic form: dim Der G = 2k²+3k+1, dim Z¹ = 2k+1,
    dim H = 2k²+5k+2 and dim Der(C(G)) = 2k²+5k+3, a defect of 1.

    Proof of dim Der G. A derivation D has Dz = D[x₁, y₁] in [G, G] = Qz,
    say Dz = cz. Write D on V as A: V → V plus f: V → Qz. Every bracket
    lies in the center Qz, so the Leibniz rule on u, w in V reads
    c·ω(u, w) = ω(Au, w) + ω(u, Aw), and on pairs with z it holds
    whatever A, f and c are. So A − (c/2)·I lies in sp(2k), and f and c
    are free: Der G = sp(2k) ⊕ Q·E ⊕ Hom(V, Qz), with E the grading
    derivation (1 on V, 2 on z), of dimension (2k²+k) + 1 + 2k.

    Proof of dim Z¹ and dim H. The d-center is 0, since E is invertible.
    Der G = Der₀ ⊕ Der₁, with Der₀ = sp(2k) ⊕ Q·E, commuting with E, and
    Der₁ = Hom(V, Qz), where [E, D] = D. For a cocycle L, subtracting the
    inner cocycle D ↦ D(E⁻¹L(E)) makes L(E) = 0, and then the cocycle rule
    L([E, D]) = E·L(D) gives L = 0 on Der₀ and L(Der₁) ⊆ V, the
    1-eigenspace of E. Write φ_w = ω(w, ·)·z in Der₁ and T(w) = L(φ_w).
    For S in sp(2k), [S, φ_w] = φ_{Sw}, so the rule gives TS = ST. For
    φ_a, φ_b, which compose to 0, it gives ω(a, Tb) = ω(b, Ta), so T lies
    in sp(2k). T is then in the center of sp(2k), which is 0. So every
    cocycle is inner, and dim Z¹ = dim G − dim(d-center) = 2k+1, which
    gives dim H = dim Der G + dim Z¹.

    Proof of defect ≥ 1. δ = 0 on Der G and δ(x) = 2x − ad(x) on G, with
    ad(x) placed in Der G, is a derivation of C(G): on a pair in Der G both
    sides are 0, on (D, x) the rule is [D, ad x] = ad(Dx), and on (x, y)
    both sides are 2[x, y], because [x, y] is central. Every element of H maps G into G, while δ's
    G → Der block is −ad, nonzero as G is not abelian. With H acting
    injectively, δ is outside its image, so dim Der(C(G)) ≥ dim H + 1.

    That the defect is exactly 1 is a checked law, without a proof here.
    dim Der(C(G)) is read off its blocks; test_fullgraph.py's
    test_heisenberg_family_closed_forms checks it on C(G) itself.
    """
    ws = _Workspace(heisenberg(k))
    t1 = check_theorem1(ws)
    assert t1.each_generator_is_derivation and t1.injective
    assert ws.der.dim == 2 * k * k + 3 * k + 1
    assert ws.dcenter.dim == 0 and ws.dspace.dim == 2 * k + 1
    assert t1.dim_h == 2 * k * k + 5 * k + 2
    assert t1.dim_der_cg == 2 * k * k + 5 * k + 3


W_CASES = (
    [(case_id(c), functools.partial(case_algebra, c)) for c in CASES]
    + [(case_id((seed, n)), functools.partial(two_step_nilpotent, seed, n))
       for seed in range(6, 30) for n in (4, 5, 6)]
    + [(f"h{2 * k + 1}", functools.partial(heisenberg, k)) for k in (1, 2, 3)]
    + [(f"{a}+{b}", functools.partial(direct_sum, algebra(a), algebra(b)))
       for a, b in (("sl2", "heisenberg3"), ("affine2", "heisenberg3"),
                    ("heisenberg3", "heisenberg3"), ("affine2", "abelian1"))]
    + [(f"central_{seed}_8", functools.partial(chain_rung, seed, 8))
       for seed in range(10)])


@pytest.mark.parametrize("build", [b for _, b in W_CASES],
                         ids=[i for i, _ in W_CASES])
def test_defect_is_dim_w(build):
    """dim Der(C(G)) = dim Der(G) + dim Z¹ + dim W, where W is the space of
    bilinear β: G × G → Z(G) with
    - β([G, G], ·) = β(·, [G, G]) = 0;
    - Dβ(x, y) = β(Dx, y) + β(x, Dy) for every D in Der(G);
    - β(x, y) − β(y, x) = E[x, y] − [Ex, y] − [x, Ey] for some E in gl(G).
    The last says that β − βᵀ is an adjoint coboundary, so it vanishes in
    H²(G, G), the cohomology that classifies infinitesimal deformations
    (Nijenhuis and Richardson, Bull. AMS 72, 1966). So the defect is dim W.

    Proof. der_cg_blocks proves dim Der(C(G)) = dim Z¹ + dim S, where S is
    the space of maps φ of G into C(G), with Der rows B: G → Der(G) and G
    rows E: G → G, cut out by the cocycle rows B([x, y]) = 0 and
    E[x, y] = [x, Ey] + [Ex, y] + (Bx)y − (By)x, and by the Der rows
    B(Dx) = D∘(Bx) − (Bx)∘D. With B = 0 they say that E is a derivation,
    so dim S = dim Der(G) + dim of the projection of S onto B. Put
    β(x, y) = (Bx)y. The Der row for D = ad y, with B([y, x]) = 0, gives
    (Bx)[y, z] = [y, (Bx)z]; as Bx is a derivation, [(Bx)y, z] = 0, so β
    takes values in Z(G). Bx, a derivation into the center, then kills
    [G, G], and B([G, G]) = 0: β vanishes on [G, G] in each slot.
    Conversely every such β gives derivations Bx = β(x, ·), and B is
    determined by β. On such B the Der rows read Dβ(x, y) = β(Dx, y) +
    β(x, Dy) and the cocycle rows β(x, y) − β(y, x) = E[x, y] − [Ex, y] −
    [x, Ey]. So the projection is W.

    dim W is solved by reference.w_dim, apart from S's rows, on the 120
    algebras of W_CASES, whose defects are 0, 1, 2, 4 and 8.
    """
    g = build()
    ws = _Workspace(g)
    assert ws.der_cg_dim == ws.der.dim + ws.dspace.dim + reference.w_dim(g, ws.der)

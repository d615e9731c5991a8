import random
from collections import Counter
from fractions import Fraction
from types import GeneratorType

import pytest
from hypothesis import example, given, settings, strategies as st

import oracle
import reference
from reference import terms
from algebras import (CASES, CATALOG_NAMES, NAMES, algebra, borel, case_algebra,
                      case_id, chain_rung, direct_sum, heisenberg,
                      special_linear, two_step_nilpotent)
from child import main_output, patch_bindings

from liegraph import (algebra as alg_mod, cli as cli_mod, dtheory as dt_mod,
                      fullgraph as fg_mod)
from liegraph.algebra import (InternalConsistencyError, _flat, center,
                              cocycle_system, derivation_algebra,
                              derived_subalgebra, make_lie_algebra)
from liegraph.catalog import CatalogEntry, catalog, lookup, serialize_algebra
from liegraph.dtheory import d_derivations
from liegraph.fullgraph import (VerificationReport, _Workspace,
                                build_full_graph, check_lemma, check_theorem1,
                                check_theorem2, der_cg_blocks, h_derivation,
                                is_block_derivation, verify)
from liegraph.linalg import Matrix, Subspace

F = Fraction


@pytest.fixture(scope="module")
def sl2_parts():
    g = lookup("sl2").algebra
    der = derivation_algebra(g)
    return g, der, d_derivations(der), build_full_graph(der)


def rand_vec(rng, n):
    return [F(rng.randint(-3, 3), rng.choice([1, 2])) for _ in range(n)]


def embed_g(m, x):
    """x in G as the element (0, x) of C(G), after the m Der(G) coordinates."""
    return (0,) * m + tuple(x)


class TestBuildFullGraph:
    def test_abelian1_is_affine_line(self):
        cg = build_full_graph(derivation_algebra(make_lie_algebra(1, [])))
        assert cg.dim == 2
        assert cg.table[0][1] == (F(0), F(1))

    def test_dimension_is_sum(self):
        for entry in catalog():
            der = derivation_algebra(entry.algebra)
            assert build_full_graph(der).dim == der.dim + entry.algebra.dim

    def test_der_block_matches_der_table(self, sl2_parts):
        g, der, _, cg = sl2_parts
        m = der.dim
        for i in range(m):
            for j in range(m):
                assert cg.table[i][j][:m] == der.as_lie_algebra.table[i][j]
                assert not any(cg.table[i][j][m:])

    def test_g_embedding_preserves_brackets(self, sl2_parts):
        g, der, _, cg = sl2_parts
        m = der.dim
        rng = random.Random(3)
        for _ in range(30):
            x, y = rand_vec(rng, 3), rand_vec(rng, 3)
            lhs = reference.bracket(cg.table, embed_g(m, x), embed_g(m, y))
            assert lhs == embed_g(m, reference.bracket(g.table, x, y))

    def test_mixed_bracket_is_application(self, sl2_parts):
        g, der, _, cg = sl2_parts
        m, n = der.dim, g.dim
        for i in range(m):
            for j in range(n):
                d_part = [1 if t == i else 0 for t in range(m)]
                x_part = [1 if t == j else 0 for t in range(n)]
                out = reference.bracket(cg.table, d_part + [0] * n, embed_g(m, x_part))
                assert out == embed_g(m, reference.column(der.matrices[i], j))


class TestHDerivation:
    def test_zero_pair_gives_zero(self, sl2_parts):
        _, der, dspace, _ = sl2_parts
        mat = h_derivation(dspace, terms([0] * der.dim), terms([0] * dspace.dim))
        assert not any(mat.nonzeros)

    def test_linearity(self, sl2_parts):
        _, der, dspace, _ = sl2_parts
        rng = random.Random(5)
        for _ in range(20):
            d1, l1 = rand_vec(rng, der.dim), rand_vec(rng, dspace.dim)
            d2, l2 = rand_vec(rng, der.dim), rand_vec(rng, dspace.dim)
            s = F(rng.randint(-3, 3))
            lhs = h_derivation(dspace,
                               terms([a + s * b for a, b in zip(d1, d2)]),
                               terms([a + s * b for a, b in zip(l1, l2)]))
            rhs = (h_derivation(dspace, terms(d1), terms(l1))
                   + h_derivation(dspace, terms(d2), terms(l2)).scale(s))
            assert lhs == rhs

    def test_abelian1_identity_derivation(self):
        dspace = d_derivations(derivation_algebra(make_lie_algebra(1, [])))
        mat = h_derivation(dspace, terms([1]), terms([0]))
        # [D, D] = 0 on the Der block; acts as the identity on the G block
        assert mat == Matrix.from_rows([[0, 0], [0, 1]])


@pytest.mark.parametrize("which", ["thm1", "", "ALL", 1])
def test_verify_rejects_unknown_check(which):
    with pytest.raises(ValueError, match="which must be"):
        verify(lookup("sl2").algebra, "sl2", which)


# Each builder a command may run, by the module that defines it, and the
# package modules that may bind one. Der(G) is built for every command and
# everything else only where the command reads it, each at most once: the
# rows are the builders each command runs on heisenberg3.
MODULES = (alg_mod, dt_mod, fg_mod, cli_mod)
BUILDERS = {"derivation_algebra": alg_mod, "d_derivations": dt_mod,
            "d_center": dt_mod, "build_full_graph": fg_mod,
            "der_cg_blocks": fg_mod, "build_h": dt_mod, "center": alg_mod,
            "is_complete": alg_mod, "is_d_complete": dt_mod}
BUILT = {
    "info": {"derivation_algebra", "d_derivations", "d_center", "center",
             "is_complete", "is_d_complete"},
    "der": {"derivation_algebra"},
    "dder": {"derivation_algebra", "d_derivations", "d_center",
             "is_d_complete"},
    "full-graph": {"derivation_algebra", "build_full_graph"},
    "verify --theorem 1": {"derivation_algebra", "build_full_graph",
                           "d_derivations", "der_cg_blocks", "build_h"},
    "verify --theorem 2": set(BUILDERS) - {"build_h"},
    "verify --theorem lemma": {"derivation_algebra", "build_full_graph",
                               "center", "d_center"},
    "verify --theorem all": set(BUILDERS),
}


def _spy_builders(monkeypatch) -> dict[str, list]:
    """The first argument of every call of each builder from now on,
    patched in each package module that binds it: derivation_algebra in
    algebra and fullgraph, for instance."""
    calls = {name: [] for name in BUILDERS}
    for name, home in BUILDERS.items():
        real = getattr(home, name)

        def spy(x, *args, name=name, real=real):
            calls[name].append(x)
            return real(x, *args)

        patch_bindings(monkeypatch, real, spy)
    return calls


def test_the_cli_reads_the_workspace_and_wires_no_builder():
    # cli.py binds none of the builders that _Workspace calls; each is bound
    # only where it is defined and in fullgraph
    for name in ("derivation_algebra", "d_derivations", "d_center",
                 "is_d_complete", "build_full_graph"):
        real = getattr(BUILDERS[name], name)
        assert {m for m in MODULES if vars(m).get(name) is real} == {
            BUILDERS[name], fg_mod}


@pytest.mark.parametrize("command", BUILT,
                         ids=lambda c: c.replace(" --theorem ", "-"))
def test_each_subcommand_builds_der_once(monkeypatch, command):
    calls = _spy_builders(monkeypatch)
    g = lookup("heisenberg3").algebra
    # heisenberg3 fails theorem1 and theorem2, so verify may exit 1
    assert main_output(command.split() + ["heisenberg3"])[0] in (0, 1)
    assert {name: len(c) for name, c in calls.items()} == {
        name: int(name in BUILT[command]) for name in BUILDERS}
    # Der(G) only: theorem1 and theorem2 share dim Der(C(G)), which comes
    # from the blocks over G, not from a derivation algebra of C(G)
    assert calls["derivation_algebra"] == [g]
    assert all(der.parent == g for der in calls["d_center"])
    # info reads the center of G; the lemma and theorem2 share that of the
    # 9-dim C(G)
    assert all(z.dim == (3 if command == "info" else 3 + 6)
               for z in calls["center"])


def test_verify_all_builds_each_derivation_algebra_once(monkeypatch):
    calls = _spy_builders(monkeypatch)
    g = lookup("heisenberg3").algebra
    verify(g, "heisenberg3", which="all")
    # Der(G) only: theorem1 and theorem2 share dim Der(C(G)), which comes
    # from the blocks over G, not from a derivation algebra of C(G)
    assert calls["derivation_algebra"] == [g]


def test_verify_all_computes_each_center_once(monkeypatch):
    calls = _spy_builders(monkeypatch)
    g = lookup("heisenberg3").algebra
    verify(g, "heisenberg3", which="all")
    # center(C(G)) and d_center(G), each shared by the lemma and theorem2
    assert [h.dim for h in calls["center"]] == [3 + 6]
    assert [der.parent for der in calls["d_center"]] == [g]


@pytest.mark.parametrize("name", ["heisenberg3", "sl2"])
def test_checks_never_build_the_leibniz_system_of_the_full_graph(
        monkeypatch, name):
    # the generator check reads the blocks of each generator, and the
    # dimension of Der(C(G)) comes from the blocks over G; G's own Leibniz
    # system is built once, streamed into the Der(G) kernel and not kept
    built = []

    def spy(rho, algebra):
        built.append((rho, algebra))
        return cocycle_system(rho, algebra)

    patch_bindings(monkeypatch, cocycle_system, spy)
    g = lookup(name).algebra
    ws = _Workspace(g)
    for check in (check_theorem1, check_lemma, check_theorem2):
        check(ws)
    assert [rho for rho, _ in built if rho is g.adjoint] == [g.adjoint]
    assert not any(algebra is ws.cg for _, algebra in built)


@pytest.mark.parametrize("name", ["heisenberg3", "sl2"])
def test_no_representation_stores_a_system(monkeypatch, name):
    # each cocycle system is streamed into the kernel: after a full verify
    # the three actions it reads are tuples of matrices, the algebras hold
    # their structure constants and views, and Der(G) its span, its parent
    # and its views, not a system
    made = []

    class Recording(_Workspace):
        def __init__(self, g):
            super().__init__(g)
            made.append(self)

    monkeypatch.setattr(fg_mod, "_Workspace", Recording)
    g = lookup(name).algebra
    verify(g, name, which="all")
    (ws,) = made
    actions = ((g.adjoint, g), (ws.der.matrices, ws.der.as_lie_algebra),
               (ws.cg.adjoint, ws.cg))
    for rho, algebra in actions:
        assert type(rho) is tuple and all(type(r) is Matrix for r in rho)
        assert isinstance(cocycle_system(rho, algebra), GeneratorType)
        assert set(vars(algebra)) <= {"dim", "basis_names", "pairs", "table",
                                      "adjoint"}
    assert set(vars(ws.der)) <= {"shape", "parent", "matrices",
                                 "columns", "as_lie_algebra", "ad_coordinates"}


@pytest.mark.parametrize("which", ["2", "all"])
def test_theorem2_identity_failure_exits_2(monkeypatch, capfd, which):
    # a center of C(G) other than 0 ⊕ cd breaks the identity that
    # check_theorem2 proves: sl2 is d-complete with dim Der(C(G)) = m + p,
    # so a nonzero center must be refused, not reported as a finding
    monkeypatch.setattr(fg_mod._Workspace, "cg_center",
                        property(lambda ws: Subspace(ws.cg.dim, tuple(
                            ((c, 1),) for c in range(ws.cg.dim)))))
    assert main_output(["verify", "--theorem", which, "sl2"]) == (2, "")
    err = capfd.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_heisenberg_family_closed_forms(k):
    # C(G) itself against test_laws.test_heisenberg_closed_forms, which
    # proves dim H = 2k²+5k+2 and reads dim Der(C(G)) = 2k²+5k+3 off the
    # blocks: C(G) is as large as H, and at k ≤ 3 its full Leibniz system
    # (at k = 3, C(G) is 35-dim and the system is 20825 equations in 1225
    # unknowns) gives the blocks' dim Der(C(G)).
    ws = _Workspace(heisenberg(k))
    assert ws.cg.dim == ws.der.dim + ws.dspace.dim == 2 * k * k + 5 * k + 2
    if k <= 3:
        assert derivation_algebra(ws.cg).dim == ws.der_cg_dim


COMPLETE_LADDER = {
    "borel3": lambda: borel(3), "borel4": lambda: borel(4),
    "borel5": lambda: borel(5), "sl3": lambda: special_linear(3),
    "sl4": lambda: special_linear(4),
    "sl2_sum_borel3": lambda: direct_sum(special_linear(2), borel(3)),
}


@pytest.mark.parametrize("name", COMPLETE_LADDER)
def test_complete_ladder_known_answers(name):
    # G complete (Z = 0, Der = ad), so dim Der(G) = n, every cocycle is
    # inner (p = n), dim H = dim Der(C(G)) = 2n, and G and C(G) are both
    # complete: every check passes with these exact dimensions
    g = COMPLETE_LADDER[name]()
    n = g.dim
    assert center(g).dim == 0 and derivation_algebra(g).dim == n
    rep = verify(g, name)
    assert rep.d_evidence.d_space_dim == n
    assert rep.theorem1.dim_h == rep.theorem1.dim_der_cg == 2 * n
    assert rep.lemma == (0, 0, True)
    assert rep.theorem2 == (True, True, True)
    assert rep.passed


@pytest.mark.parametrize("case", CASES + [(5, 6)], ids=case_id)
def test_every_derived_table_passes_the_full_jacobi_scan(case):
    # the package scans no table it derives: Der(G), Z¹, C(G) and H are Lie
    # by the proofs in their builders' docstrings, checked here on every
    # basis triple of the dense tables; H's is built from build_h's action
    ws = _Workspace(case_algebra(case))
    for alg in (ws.der.as_lie_algebra, ws.dspace.as_lie_algebra, ws.cg,
                reference.h_algebra(ws)):
        assert reference.validate_jacobi(alg.dim, alg.table) is None


@given(st.sampled_from([e.name for e in catalog()]), st.data())
@settings(max_examples=60, deadline=None)
def test_h_derivation_matches_per_column_reference(name, data):
    # ad inside Der(G) and the coordinates of each ad(e_j) are read once
    # per algebra; the reference finds each column's coordinates anew
    dspace = d_derivations(derivation_algebra(lookup(name).algebra))
    coeffs = st.builds(F, st.integers(-4, 4), st.integers(1, 3))
    d = data.draw(st.lists(coeffs, min_size=dspace.der.dim,
                           max_size=dspace.der.dim))
    l = data.draw(st.lists(coeffs, min_size=dspace.dim, max_size=dspace.dim))
    assert (h_derivation(dspace, terms(d), terms(l))
            == reference.h_derivation(dspace, terms(d), terms(l)))


# beside the draws: h_3, h_5, h_7, h_3 with one or two abelian factors, and
# a draw whose defect is 2
@given(st.builds(two_step_nilpotent, st.integers(0, 10**6), st.sampled_from([3, 4])))
@example(heisenberg(1))
@example(heisenberg(2))
@example(heisenberg(3))
@example(direct_sum(heisenberg(1), algebra("abelian1")))
@example(direct_sum(heisenberg(1), algebra("abelian2")))
@example(two_step_nilpotent(5, 6))
@settings(max_examples=25, deadline=None)
def test_two_step_nilpotent_full_graph_has_the_outer_derivation(g):
    # [G, G] central: delta, 0 on Der(G) and g -> 2g - ad g on G, is a
    # derivation of C(G); the image of H holds it only when G is abelian,
    # where delta = 2 ad(id) is inner
    ws = _Workspace(g)
    n, m = g.dim, ws.der.dim
    size = m + n
    ad = ws.der.ad_coordinates  # column j: the Der coordinates of ad(e_j)
    delta = [F(0)] * (size * size)
    for j in range(n):
        delta[(m + j) * size + m + j] = F(2)
        for r in range(m):
            delta[r * size + m + j] = -ad.row(r)[j]
    delta = reference.dense(size, size, delta)
    assert reference.is_cocycle(ws.cg.adjoint, ws.cg, delta)
    is_abelian = not any(any(row) for row in g.pairs)
    total = m + ws.dspace.dim  # dim H
    # delta lies outside the image of H (below), so the defect is at least 1
    assert is_abelian or ws.der_cg_dim - total >= 1

    units = [[F(int(t == i)) for t in range(total)] for i in range(total)]
    image = Subspace.from_rows(size * size, [
        h_derivation(ws.dspace, terms(u[:m]), terms(u[m:])).flatten()
        for u in units])
    assert (image._coordinates(_flat(delta)) is not None) == is_abelian


# the census: (dim G, d-complete, defect) -> how many of CENSUS_ALGEBRAS
CENSUS = {(2, True, 0): 1, (3, True, 0): 13, (3, True, 1): 17, (4, True, 0): 16,
          (4, True, 1): 14, (5, True, 0): 14, (5, True, 1): 17, (6, True, 0): 13,
          (6, True, 1): 13, (6, True, 2): 4, (7, False, 0): 4, (7, True, 0): 6,
          (9, True, 0): 1}
# and (nilpotency class, defect) -> how many, None for the three b(sl_n)
CLASSES = {(1, 0): 25, (2, 1): 61, (2, 2): 4, (3, 0): 10, (4, 0): 10,
           (5, 0): 17, (6, 0): 3, (None, 0): 3}


def _census_algebras() -> list:
    """133 algebras: two_step_nilpotent(seed, n) for seeds 0-19 and n = 3-6,
    ten central_extension chains (seeds 0-9) from abelian2 to dimension 7,
    and b(sl2), b(sl3), b(sl4)."""
    return ([two_step_nilpotent(seed, n) for seed in range(20) for n in range(3, 7)]
            + [chain_rung(seed, dim) for seed in range(10) for dim in range(3, 8)]
            + [borel(n) for n in (2, 3, 4)])


def _nilpotency_class(g) -> int | None:
    """The length c of G's lower central series, G^(c+1) = 0 where G^1 = G
    and G^(k+1) = [G, G^k]; None if the series stops above 0."""
    units = [reference.unit(g.dim, i) for i in range(g.dim)]
    term, c = units, 0
    while term:
        span = Subspace.from_rows(g.dim, [reference.bracket(g.table, x, y)
                                          for x in units for y in term])
        if span.dim == len(term):
            return None
        term, c = reference.dense_rows(map(dict, span.rows), g.dim), c + 1
    return c


def test_theorem2_fails_iff_d_complete_with_a_defect():
    # the defect is dim Der(C(G)) - dim H, and at least 1 on each of the 65
    # non-abelian algebras with [G, G] in Z(G) (ROADMAP item 14 (a)); the
    # census takes about 5 s on a 2-core host. On these 133 algebras, all of
    # dimension at most 7, a positive defect occurs exactly on nilpotency
    # class 2; test_dimension_8_chain_rungs shows that it does not in general
    census, classes, two_step = Counter(), Counter(), 0
    for g in _census_algebras():
        ws = _Workspace(g)
        defect = ws.der_cg_dim - ws.der.dim - ws.dspace.dim
        d_complete = ws.d_completeness.d_complete
        assert check_theorem2(ws).passed != (d_complete and defect > 0)
        derived = derived_subalgebra(g)
        if derived.dim and reference.contains(center(g), derived):
            assert defect >= 1
            two_step += 1
        nilpotency = _nilpotency_class(g)
        assert (defect > 0) == (nilpotency == 2)
        census[g.dim, d_complete, defect] += 1
        classes[nilpotency, defect] += 1
    assert census == CENSUS and two_step == 65 and classes == CLASSES


# chain seed -> (nilpotency class, Der(G) nilpotent, defect, d-complete) of
# chain_rung(seed, 8)
RUNGS_8 = {0: (7, True, 4, False), 1: (6, True, 4, False), 2: (7, True, 2, False),
           3: (7, True, 4, False), 4: (6, True, 4, False), 5: (5, True, 8, False),
           6: (6, True, 4, False), 7: (6, True, 4, False), 8: (6, False, 0, True),
           9: (6, False, 0, True)}
# chain seed -> dim Der(C(G)) of chain_rung(seed, 8), from the Leibniz system
# of its 18-, 20- or 19-dim C(G)
DER_CG_8 = {0: 27, 5: 37, 8: 19}


def test_dimension_8_chain_rungs():
    # past dimension 7 the defect is no longer a class-2 effect: these
    # rungs have class 5-7, and the defect is positive exactly where Der(G)
    # is nilpotent (G characteristically nilpotent), and then G is not
    # d-complete. On seeds 0, 5 and 8 the blocks' dim Der(C(G)) is checked
    # against the Leibniz system of C(G) itself, and on seeds 0 and 8
    # (dim Der(G), dim Z¹, inner cocycles, d-center) against the sympy oracle
    rungs = {}
    for seed in RUNGS_8:
        g = chain_rung(seed, 8)
        ws = _Workspace(g)
        rungs[seed] = (_nilpotency_class(g),
                       _nilpotency_class(ws.der.as_lie_algebra) is not None,
                       ws.der_cg_dim - ws.der.dim - ws.dspace.dim,
                       ws.d_completeness.d_complete)
        if seed in DER_CG_8:
            assert derivation_algebra(ws.cg).dim == ws.der_cg_dim == DER_CG_8[seed]
        if seed in (0, 8):
            table = oracle.lie_table(CatalogEntry(f"central_{seed}_8", g))
            assert oracle.cocycle_dims(table) == (
                ws.der.dim, ws.dspace.dim, ws.d_completeness.inner_d_dim,
                ws.dcenter.dim)
    assert rungs == RUNGS_8


# Der(C(G)) from its blocks: each basis element of Z¹ ⊕ S, with A = [E, ·]
# − ad∘C on Der(G), assembled into a map of C(G), must give exactly the
# canonical span of the full Leibniz system of C(G), and each must pass
# the loop reference of the Leibniz rule.

def _assemble(ws, c: Matrix, e: Matrix, b: Matrix) -> Matrix:
    """δ on C(G) from C (n x m), E (n x n) and B (m x n): A(D_j) is the
    Der coordinates of [E, D_j] − ad(C(D_j))."""
    der = ws.der
    a = Matrix.from_rows([
        tuple(x - y for x, y in zip(der.coordinates_of(e.commutator(d)),
                                    reference.apply(der.ad_coordinates,
                                                    reference.column(c, j))))
        for j, d in enumerate(der.matrices)]).transpose()
    return Matrix.from_rows([a.row(r) + b.row(r) for r in range(a.rows)]
                            + [c.row(r) + e.row(r) for r in range(c.rows)])


def _block_derivations(ws) -> list[Matrix]:
    m, n = ws.der.dim, ws.der.parent.dim
    zero_e, zero_b, zero_c = Matrix.zero(n, n), Matrix.zero(m, n), Matrix.zero(n, m)
    out = [_assemble(ws, c, zero_e, zero_b) for c in ws.dspace.matrices]
    s = der_cg_blocks(ws.der, ws.cg)
    for v in reference.dense_rows(map(dict, s.rows), s.ambient_dim):
        out.append(_assemble(ws, zero_c, reference.dense(n, n, v[m * n:]),
                             reference.dense(m, n, v[:m * n])))
    return out


# the rungs of dimension 3-6 of three seeded chains of nilpotent algebras
CENTRAL_CHAINS = {f"central_{seed}_{dim}": chain_rung(seed, dim)
                  for seed in range(3) for dim in range(3, 7)}


@pytest.mark.parametrize("case", CASES + list(CENTRAL_CHAINS), ids=case_id)
def test_blocks_assemble_to_the_derivations_of_the_full_graph(case):
    g = CENTRAL_CHAINS.get(case) or case_algebra(case)
    ws = _Workspace(g)
    deltas = _block_derivations(ws)
    size = ws.cg.dim
    full = derivation_algebra(ws.cg)
    assert len(deltas) == ws.der_cg_dim == full.dim
    assert Subspace.from_rows(size * size, [d.flatten() for d in deltas]) == full
    cg = ws.cg
    assert all(reference.is_cocycle(cg.adjoint, cg, d) for d in deltas)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_der_cg_blocks_hands_the_kernel_no_empty_row(case, monkeypatch):
    # as cocycle_system does, der_cg_blocks leaves out every empty row: a Der
    # row (k, j) where column j of D_i and row k of ad D_i are both empty;
    # and no row holds a zero entry, such as the one at (k, j) where
    # D_i[j][j] cancels the D_k term of [D_i, D_k]
    handed = []
    real = fg_mod.sparse_nullspace

    def spy(ncols, rows):
        rows = list(rows)
        handed.extend(rows)
        return real(ncols, rows)

    monkeypatch.setattr(fg_mod, "sparse_nullspace", spy)
    ws = _Workspace(case_algebra(case))
    der_cg_blocks(ws.der, ws.cg)
    assert handed and all(row and all(row.values()) for row in handed)


@st.composite
def line_by_abelian(draw):
    """G = Q ⋉_M Q^r: [e_0, e_(1+j)] = Σ_i M[i][j] e_(1+i)."""
    r = draw(st.integers(1, 3))
    m = draw(st.lists(st.lists(st.integers(-2, 2), min_size=r, max_size=r),
                      min_size=r, max_size=r))
    return make_lie_algebra(r + 1, [(0, 1 + j, [0] + [m[i][j] for i in range(r)])
                                    for j in range(r)])


@given(line_by_abelian())
@settings(max_examples=50, deadline=None)
def test_blocks_span_the_derivations_of_drawn_semidirect_sums(g):
    ws = _Workspace(g)
    deltas = _block_derivations(ws)
    size = ws.cg.dim
    full = derivation_algebra(ws.cg)
    assert len(deltas) == full.dim
    assert Subspace.from_rows(size * size, [d.flatten() for d in deltas]) == full


def test_heisenberg3_blocks_hold_the_certified_outer_derivation():
    # B = −ad and E = 2·id: the δ = 2·id_G − ad_G of the counterexample
    g = lookup("heisenberg3").algebra
    ws = _Workspace(g)
    m, n = ws.der.dim, g.dim
    ad = ws.der.ad_coordinates
    v = [-ad.row(r)[j] for r in range(m) for j in range(n)] + [
        2 if a == b else 0 for a in range(n) for b in range(n)]
    assert der_cg_blocks(ws.der, ws.cg)._coordinates(dict(terms(v))) is not None


# The block criterion of is_block_derivation against the loop over the basis
# pairs of C(G), on maps with no G → Der block: the generators of H, the
# generators with their G rows negated, derivations assembled from drawn
# elements of Der(G) and Z¹ with A forced, and each of those with one entry
# changed.

def _with_entry(delta: Matrix, r: int, c: int, x) -> Matrix:
    entries = list(delta.flatten())
    entries[r * delta.cols + c] = x
    return reference.dense(delta.rows, delta.cols, entries)


def _block_maps(ws, rng) -> list[Matrix]:
    der, dspace = ws.der, ws.dspace
    m, n, total = der.dim, der.parent.dim, der.dim + dspace.dim
    units = [[int(t == i) for t in range(total)] for i in range(total)]
    gens = [h_derivation(dspace, terms(u[:m]), terms(u[m:])) for u in units]
    maps = gens + [reference.negate_g_rows(g, m) for g in gens]
    for _ in range(3):
        e = der.matrix_of(terms(rand_vec(rng, m)))
        c = dspace.matrix_of(terms(rand_vec(rng, dspace.dim)))
        delta = _assemble(ws, c, e, Matrix.zero(m, n))
        # any entry but the G → Der block's
        r = rng.randrange(m + n)
        col = rng.randrange(m) if r < m else rng.randrange(m + n)
        x = delta.row(r)[col] + rng.choice([1, F(-1, 2)])
        maps += [delta, _with_entry(delta, r, col, x)]
    return maps


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_block_criterion_matches_the_leibniz_loop(case):
    g = case_algebra(case)
    ws = _Workspace(g)
    m, size = ws.der.dim, ws.cg.dim
    maps = _block_maps(ws, random.Random(repr(case)))
    for delta in maps:
        assert not any(x for r in range(m) for x in delta.row(r)[m:])
        assert (is_block_derivation(ws.dspace, delta)
                == reference.is_cocycle(ws.cg.adjoint, ws.cg, delta))
    # the generators of H are derivations
    assert all(is_block_derivation(ws.dspace, d)
               for d in maps[:ws.der.dim + ws.dspace.dim])


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_block_criterion_refuses_a_map_with_a_g_to_der_block(name):
    ws = _Workspace(lookup(name).algebra)
    m = ws.der.dim
    gen = h_derivation(ws.dspace, terms([1] + [0] * (m - 1)),
                       terms([0] * ws.dspace.dim))
    delta = _with_entry(gen, 0, m, 1)
    with pytest.raises(InternalConsistencyError):
        is_block_derivation(ws.dspace, delta)


# check_theorem1 reads only the G rows of each map of C(G); the reference
# compares every row. They must give the same evidence with the real
# h_derivation and with reference.sign_mutation, which negates the G rows
# of each generator.

@pytest.mark.parametrize("mutate", [False, True], ids=["real", "sign_mutation"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_theorem1_on_g_rows_matches_the_full_matrix_reference(case, mutate,
                                                              monkeypatch):
    if mutate:
        monkeypatch.setattr(fg_mod, "h_derivation",
                            reference.sign_mutation(fg_mod.h_derivation))
    ws = _Workspace(case_algebra(case))
    evidence = check_theorem1(ws)
    assert evidence == reference.check_theorem1(ws)
    # the real generators are derivations; the mutation fails theorem1
    assert not evidence.passed if mutate else evidence.each_generator_is_derivation


# The sign mutation breaks the generators and the homomorphism together.
# Negating one nonzero entry of H's action, a term of D_i(L_j) = [x_i,
# x_(m+j)], leaves each generator a derivation and the map injective, so
# the commutator of gens[i] and gens[m + j], the image of D_i(L_j), is not
# that of the changed bracket: the homomorphism fails alone. H's action has
# a nonzero entry on every case.

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_theorem1_fails_on_a_bracket_of_h_with_its_sign_flipped(case,
                                                                 monkeypatch):
    real = _Workspace.action.func

    def flipped(ws):
        acts = list(real(ws))
        j, i = next((j, i) for j, act in enumerate(acts)
                    for i, row in enumerate(act.nonzeros) if row)
        rows = list(acts[j].nonzeros)
        (k, c), *rest = rows[i]
        rows[i] = ((k, -c), *rest)
        acts[j] = Matrix(acts[j].cols, tuple(rows))
        return tuple(acts)

    monkeypatch.setattr(_Workspace, "action", property(flipped))
    ws = _Workspace(case_algebra(case))
    evidence = check_theorem1(ws)
    assert evidence[:3] == (True, False, True)
    assert evidence == reference.check_theorem1(ws)


def test_theorem1_cases_include_images_short_of_der_cg():
    # the differential test above must meet both outcomes of the image test
    short = [case for case in CASES
             if not check_theorem1(_Workspace(case_algebra(case))).image_equals_der_cg]
    assert len(CASES) == 31 and len(short) == 14


# Theorem 1 compares H's mixed pairs only, (D_i, L_j) for i < m and j < p:
# the other brackets of H hold by how Der(G)'s table and the d-bracket are
# built (check_theorem1's docstring). So a full verify reads H's action and
# never builds the d-bracket table, which only dder prints.

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_theorem1_makes_one_commutator_per_mixed_pair(case, monkeypatch):
    ws = _Workspace(case_algebra(case))
    ws.action, ws.der_cg_dim  # built before the spy
    firsts = []
    real = Matrix.commutator

    def spy(self, other, first=0):
        firsts.append(first)
        return real(self, other, first)

    monkeypatch.setattr(Matrix, "commutator", spy)
    assert check_theorem1(ws).bracket_homomorphism
    assert firsts == [ws.der.dim] * (ws.der.dim * ws.dspace.dim)


@pytest.mark.parametrize("name", ["heisenberg3", "sl2"])
def test_verify_builds_no_d_bracket_table_and_dder_does(monkeypatch, name):
    made = []

    class Recording(_Workspace):
        def __init__(self, g):
            super().__init__(g)
            made.append(self)

    monkeypatch.setattr(fg_mod, "_Workspace", Recording)
    verify(lookup(name).algebra, name, which="all")
    assert main_output(["dder", name])[0] == 0
    verified, printed = made
    assert "action" in vars(verified)
    assert "as_lie_algebra" not in vars(verified.dspace)
    assert "as_lie_algebra" in vars(printed.dspace)


# Scalars are ints and Fractions only, and every matrix is stored in its
# canonical form. Matrix(cols, nonzeros) checks nothing, so this is the
# guard of that form: every matrix that a request builds, subspace bases
# included, for each subcommand on a fresh parse of each catalog entry and
# of each bench/fixtures.py algebra at seed 1.

@pytest.mark.parametrize("name", NAMES)
def test_verify_builds_no_float(name, tmp_path, monkeypatch):
    (tmp_path / "g.json").write_text(serialize_algebra(algebra(name)))
    seen, built = set(), []
    init = Matrix.__init__

    def counting_init(self, cols, nonzeros):
        init(self, cols, nonzeros)
        built.append(self)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    codes = {main_output([cmd, "--file", str(tmp_path / "g.json")])[0]
             for cmd in ("info", "der", "dder", "full-graph", "verify")}
    assert built and codes <= {0, 1}
    for mat in built:
        assert type(mat.nonzeros) is tuple
        for row in mat.nonzeros:
            cols = [c for c, _ in row]
            # columns strictly increasing and in range, no zero entry
            assert type(row) is tuple and cols == sorted(set(cols))
            assert all(0 <= c < mat.cols for c in cols)
            assert all(x != 0 for _, x in row)
            seen.update(type(x) for _, x in row)
    assert int in seen and seen <= {int, F}


# Every result record: its field names in constructor order.
RECORD_FIELDS = {
    "Theorem1Evidence": ("each_generator_is_derivation", "bracket_homomorphism",
                         "injective", "dim_h", "dim_der_cg",
                         "image_equals_der_cg"),
    "LemmaEvidence": ("center_cg_dim", "d_center_dim", "match"),
    "Theorem2Evidence": ("d_complete", "full_graph_complete", "equivalent"),
    "VerificationReport": ("algebra_name", "theorem1", "lemma", "theorem2",
                           "d_evidence", "cg_evidence"),
    "CompletenessEvidence": ("complete", "center_dim", "der_dim", "inner_dim"),
    "DCompletenessEvidence": ("d_complete", "d_center_dim", "d_space_dim",
                              "inner_d_dim"),
    "CatalogEntry": ("name", "algebra"),
}


@pytest.mark.parametrize("name", ["sl2", "heisenberg3"])
def test_records_are_immutable_values(name):
    entry = lookup(name)
    rep = verify(entry.algebra, name)
    records = [entry, rep, rep.theorem1, rep.lemma, rep.theorem2,
               rep.d_evidence, rep.cg_evidence]
    assert sorted(type(r).__name__ for r in records) == sorted(RECORD_FIELDS)
    for record in records:
        fields = RECORD_FIELDS[type(record).__name__]
        twin = type(record)(*(getattr(record, f) for f in fields))
        assert twin == record and twin is not record
        assert hash(twin) == hash(record)
        with pytest.raises(AttributeError):
            setattr(record, fields[0], getattr(record, fields[0]))


def test_optional_report_parts_default_to_none():
    rep = VerificationReport("g")
    assert (rep.theorem1, rep.lemma, rep.theorem2, rep.d_evidence,
            rep.cg_evidence) == (None,) * 5
    assert not rep.passed

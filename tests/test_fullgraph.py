import io
import random
from fractions import Fraction
from types import GeneratorType

import pytest
from hypothesis import given, settings, strategies as st

import reference
from reference import terms
from algebras import (CASES, CATALOG_NAMES, case_algebra, case_id, heisenberg,
                      two_step_nilpotent)

from liegraph import algebra as alg_mod, dtheory as dt_mod, fullgraph as fg_mod
from liegraph.algebra import (InternalConsistencyError, _flat, cocycle_system,
                              derivation_algebra, make_lie_algebra)
from liegraph.catalog import catalog, lookup, parse_algebra_file, serialize_algebra
from liegraph.cli import main
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


PASSING = ["abelian1", "abelian2", "abelian3", "affine2", "sl2",
           "sl2_plus_abelian1"]


class TestVerifiers:
    @pytest.mark.parametrize("name", PASSING)
    def test_theorem1_on_passing_entries(self, name):
        rep = verify(lookup(name).algebra, name, "1")
        assert rep.theorem1.passed, rep.theorem1

    def test_theorem1_dims_abelian1(self):
        rep = verify(make_lie_algebra(1, []), "abelian1", "1")
        assert rep.theorem1.dim_h == rep.theorem1.dim_der_cg == 2

    def test_theorem1_dims_sl2(self):
        rep = verify(lookup("sl2").algebra, "sl2", "1")
        assert rep.theorem1.dim_h == rep.theorem1.dim_der_cg == 6

    @pytest.mark.parametrize("name", PASSING + ["heisenberg3"])
    def test_center_lemma_all_entries(self, name):
        rep = verify(lookup(name).algebra, name, "lemma")
        assert rep.lemma.passed
        assert rep.lemma.center_cg_dim == rep.lemma.d_center_dim == 0

    @pytest.mark.parametrize("name", PASSING)
    def test_theorem2_on_passing_entries(self, name):
        rep = verify(lookup(name).algebra, name, "2")
        assert rep.theorem2.passed

    def test_heisenberg3_counterexample_pinned(self):
        # Known discrepancy, cross-checked against an independent sympy
        # computation: the holomorph of the 3-dim Heisenberg algebra has a
        # 10-dim derivation algebra while the constructed action only spans
        # 9 dimensions, so the completeness equivalence breaks here.
        rep = verify(lookup("heisenberg3").algebra, "heisenberg3")
        t1 = rep.theorem1
        assert t1.each_generator_is_derivation
        assert t1.bracket_homomorphism
        assert t1.injective
        assert (t1.dim_h, t1.dim_der_cg) == (9, 10)
        assert not t1.image_equals_der_cg
        assert rep.lemma.passed
        assert rep.theorem2.d_complete and not rep.theorem2.full_graph_complete
        assert not rep.theorem2.equivalent


@pytest.mark.parametrize("which", ["thm1", "", "ALL", 1])
def test_verify_rejects_unknown_check(which):
    with pytest.raises(ValueError, match="which must be"):
        verify(lookup("sl2").algebra, "sl2", which)


def _count_derivation_algebras(monkeypatch) -> list:
    """The inputs of every derivation_algebra call from now on, patched in
    each package module that imports it."""
    import liegraph.algebra as algebra_mod
    import liegraph.cli as cli_mod
    import liegraph.fullgraph as fullgraph_mod
    inputs = []
    real = algebra_mod.derivation_algebra

    def counting(g):
        inputs.append(g)
        return real(g)

    for mod in (algebra_mod, cli_mod, fullgraph_mod):
        monkeypatch.setattr(mod, "derivation_algebra", counting)
    return inputs


def test_verify_all_builds_each_derivation_algebra_once(monkeypatch):
    inputs = _count_derivation_algebras(monkeypatch)
    g = lookup("heisenberg3").algebra
    verify(g, "heisenberg3", which="all")
    # Der(G) only: theorem1 and theorem2 share dim Der(C(G)), which comes
    # from the blocks over G, not from a derivation algebra of C(G)
    assert inputs == [g]


@pytest.mark.parametrize("command", [
    "info", "der", "dder", "full-graph", "verify --theorem 1",
    "verify --theorem 2", "verify --theorem lemma", "verify --theorem all"],
    ids=lambda c: c.replace(" --theorem ", "-"))
def test_each_subcommand_builds_der_once(monkeypatch, command):
    inputs = _count_derivation_algebras(monkeypatch)
    # heisenberg3 fails theorem1 and theorem2, so verify may exit 1
    assert main(command.split() + ["heisenberg3"], io.StringIO()) in (0, 1)
    assert inputs == [lookup("heisenberg3").algebra]


def test_verify_all_computes_each_center_once(monkeypatch):
    import liegraph.algebra as algebra_mod
    import liegraph.dtheory as dtheory_mod
    import liegraph.fullgraph as fullgraph_mod
    calls = {"center": [], "d_center": []}

    def counting(name, real):
        def wrapper(x, *args):
            calls[name].append(x)
            return real(x, *args)
        return wrapper

    for name, real in (("center", algebra_mod.center),
                       ("d_center", dtheory_mod.d_center)):
        for mod in (algebra_mod, dtheory_mod, fullgraph_mod):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, counting(name, real))
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

    for module in (alg_mod, dt_mod, fg_mod):
        monkeypatch.setattr(module, "cocycle_system", spy)
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
    assert set(vars(ws.der)) <= {"shape", "flat_span", "parent", "matrices",
                                 "columns", "as_lie_algebra", "ad_coordinates"}


@pytest.mark.parametrize("which", ["2", "all"])
def test_theorem2_identity_failure_exits_2(monkeypatch, capsys, which):
    # a center of C(G) other than 0 ⊕ cd breaks the identity that
    # check_theorem2 proves: sl2 is d-complete with dim Der(C(G)) = m + p,
    # so a nonzero center must be refused, not reported as a finding
    monkeypatch.setattr(fg_mod._Workspace, "cg_center",
                        property(lambda ws: Subspace(ws.cg.dim, tuple(
                            ((c, 1),) for c in range(ws.cg.dim)))))
    out = io.StringIO()
    assert main(["verify", "--theorem", which, "sl2"], out) == 2
    assert out.getvalue() == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_heisenberg_family_closed_forms(k):
    # dim Der(h_{2k+1}) = 2k²+3k+1, dim H = dim C(G) = 2k²+5k+2, and
    # Der(C(G)) is one larger: the outer derivation 2·id_G − ad_G on G
    # (test_laws.test_heisenberg_closed_forms proves all but the last).
    # An oracle for sizes where the sympy one is too slow: at k = 3, C(G)
    # is 35-dim and its Leibniz rule is 20825 equations in 1225 unknowns,
    # which the full system still checks; k = 4 and 5 read the blocks only.
    ws = _Workspace(heisenberg(k))
    assert ws.der.dim == 2 * k * k + 3 * k + 1
    assert ws.h.dim == ws.cg.dim == 2 * k * k + 5 * k + 2
    assert ws.der_cg_dim == 2 * k * k + 5 * k + 3
    if k <= 3:
        assert derivation_algebra(ws.cg).dim == ws.der_cg_dim


@pytest.mark.parametrize("case", CASES + [(5, 6)], ids=case_id)
def test_every_derived_table_passes_the_full_jacobi_scan(case):
    # the package scans no table it derives: Der(G), Z¹, C(G) and H are Lie
    # by the proofs in their builders' docstrings, checked here on every
    # basis triple of the dense tables
    ws = _Workspace(case_algebra(case))
    for alg in (ws.der.as_lie_algebra, ws.dspace.as_lie_algebra, ws.cg, ws.h):
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


@given(st.integers(0, 10**6), st.sampled_from([3, 4]))
@settings(max_examples=25, deadline=None)
def test_two_step_nilpotent_full_graph_has_the_outer_derivation(seed, n):
    # [G, G] central: delta, 0 on Der(G) and g -> 2g - ad g on G, is a
    # derivation of C(G); the image of H holds it only when G is abelian,
    # where delta = 2 ad(id) is inner
    g = two_step_nilpotent(seed, n)
    ws = _Workspace(g)
    m = ws.der.dim
    size = m + n
    ad = ws.der.ad_coordinates  # column j: the Der coordinates of ad(e_j)
    delta = [F(0)] * (size * size)
    for j in range(n):
        delta[(m + j) * size + m + j] = F(2)
        for r in range(m):
            delta[r * size + m + j] = -ad.row(r)[j]
    delta = Matrix(size, size, delta)
    assert reference.is_cocycle(ws.cg.adjoint, ws.cg, delta)

    total = m + ws.dspace.dim
    units = [[F(int(t == i)) for t in range(total)] for i in range(total)]
    image = Subspace.from_rows(size * size, [
        h_derivation(ws.dspace, terms(u[:m]), terms(u[m:])).flatten()
        for u in units])
    is_abelian = not any(any(row) for row in g.pairs)
    assert (image._coordinates(_flat(delta)) is not None) == is_abelian


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
        out.append(_assemble(ws, zero_c, Matrix(n, n, v[m * n:]),
                             Matrix(m, n, v[:m * n])))
    return out


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_blocks_assemble_to_the_derivations_of_the_full_graph(case):
    g = case_algebra(case)
    ws = _Workspace(g)
    deltas = _block_derivations(ws)
    size = ws.cg.dim
    full = derivation_algebra(ws.cg)
    assert len(deltas) == ws.der_cg_dim == full.dim
    assert Subspace.from_rows(size * size, [d.flatten() for d in deltas]) == full.flat_span
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
    assert Subspace.from_rows(size * size, [d.flatten() for d in deltas]) == full.flat_span


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
    return Matrix(delta.rows, delta.cols, entries)


def _block_maps(ws, rng) -> list[Matrix]:
    der, dspace = ws.der, ws.dspace
    m, n, total = der.dim, der.parent.dim, der.dim + dspace.dim
    units = [[int(t == i) for t in range(total)] for i in range(total)]
    gens = [h_derivation(dspace, terms(u[:m]), terms(u[m:])) for u in units]
    maps = gens + [Matrix.from_rows([g.row(r) if r < m else
                                     tuple(-x for x in g.row(r))
                                     for r in range(g.rows)]) for g in gens]
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
    assert all(is_block_derivation(ws.dspace, d) for d in maps[:ws.h.dim])


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
# h_derivation and with the sign mutation of the CLI tests, which negates
# the G rows of each generator.

def _sign_mutation(monkeypatch):
    real = fg_mod.h_derivation

    def mutated(dspace, d_coords, l_coords):
        mat = real(dspace, d_coords, l_coords)
        m = dspace.der.dim
        return Matrix.from_rows([[-x if r >= m else x for x in mat.row(r)]
                                 for r in range(mat.rows)])

    monkeypatch.setattr(fg_mod, "h_derivation", mutated)


@pytest.mark.parametrize("mutate", [False, True], ids=["real", "sign_mutation"])
@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_theorem1_on_g_rows_matches_the_full_matrix_reference(case, mutate,
                                                              monkeypatch):
    if mutate:
        _sign_mutation(monkeypatch)
    ws = _Workspace(case_algebra(case))
    evidence = check_theorem1(ws)
    assert evidence == reference.check_theorem1(ws)
    # the real generators are derivations; the mutation fails theorem1
    assert not evidence.passed if mutate else evidence.each_generator_is_derivation


# The sign mutation breaks the generators and the homomorphism together.
# Negating one nonzero bracket [x_i, x_j] of H leaves each generator a
# derivation and the map injective, so the commutator of gens[i] and
# gens[j], the image of [x_i, x_j], is not that of its negation: the
# homomorphism fails alone. H has a nonzero bracket on every case.

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_theorem1_fails_on_a_bracket_of_h_with_its_sign_flipped(case,
                                                                 monkeypatch):
    real = _Workspace.h.func

    def flipped(ws):
        h = real(ws)
        i, j = next((i, j) for i, row in enumerate(h.pairs)
                    for j, terms in enumerate(row) if i < j and terms)
        pairs = [list(row) for row in h.pairs]
        pairs[i][j], pairs[j][i] = pairs[j][i], pairs[i][j]
        return alg_mod.LieAlgebra(h.dim, h.basis_names, tuple(map(tuple, pairs)))

    monkeypatch.setattr(_Workspace, "h", property(flipped))
    ws = _Workspace(case_algebra(case))
    evidence = check_theorem1(ws)
    assert evidence[:3] == (True, False, True)
    assert evidence == reference.check_theorem1(ws)


def test_theorem1_cases_include_images_short_of_der_cg():
    # the differential test above must meet both outcomes of the image test
    short = [case for case in CASES
             if not check_theorem1(_Workspace(case_algebra(case))).image_equals_der_cg]
    assert len(CASES) == 31 and len(short) == 14


# Scalars are ints and Fractions only, and every matrix is stored in its
# canonical form: every matrix that verify builds, subspace bases included,
# on a fresh parse of each catalog entry.

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_builds_no_float(name, monkeypatch):
    seen, built = set(), []
    init, trusted = Matrix.__init__, Matrix._trusted.__func__

    def counting_init(self, rows, cols, entries):
        init(self, rows, cols, entries)
        built.append(self)

    def counting_trusted(cls, rows, cols, nonzeros):
        built.append(trusted(cls, rows, cols, nonzeros))
        return built[-1]

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_trusted", classmethod(counting_trusted))
    g = parse_algebra_file(serialize_algebra(lookup(name).algebra))
    verify(g, name)
    assert built
    for mat in built:
        assert type(mat.nonzeros) is tuple and len(mat.nonzeros) == mat.rows
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

import io
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from algebras import CATALOG_NAMES, NAMES, algebra, two_step_nilpotent

from liegraph.algebra import abelian, derivation_algebra, make_lie_algebra
from liegraph.catalog import catalog, lookup, parse_algebra_file, serialize_algebra
from liegraph.cli import main
from liegraph.dtheory import d_derivations
from liegraph.fullgraph import (VerificationReport, _Workspace,
                                build_full_graph, check_lemma, check_theorem1,
                                check_theorem2, der_cg_blocks, h_derivation,
                                verify)
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
        cg = build_full_graph(derivation_algebra(abelian(1)))
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
            lhs = cg.bracket(embed_g(m, x), embed_g(m, y))
            assert lhs == embed_g(m, g.bracket(x, y))

    def test_mixed_bracket_is_application(self, sl2_parts):
        g, der, _, cg = sl2_parts
        m, n = der.dim, g.dim
        for i in range(m):
            for j in range(n):
                d_part = [1 if t == i else 0 for t in range(m)]
                x_part = [1 if t == j else 0 for t in range(n)]
                out = cg.bracket(d_part + [0] * n, embed_g(m, x_part))
                assert out == embed_g(m, der.matrices[i].column(j))


class TestHDerivation:
    def test_zero_pair_gives_zero(self, sl2_parts):
        _, der, dspace, _ = sl2_parts
        mat = h_derivation(dspace, [0] * der.dim, [0] * dspace.dim)
        assert mat.is_zero()

    def test_linearity(self, sl2_parts):
        _, der, dspace, _ = sl2_parts
        rng = random.Random(5)
        for _ in range(20):
            d1, l1 = rand_vec(rng, der.dim), rand_vec(rng, dspace.dim)
            d2, l2 = rand_vec(rng, der.dim), rand_vec(rng, dspace.dim)
            s = F(rng.randint(-3, 3))
            lhs = h_derivation(dspace,
                               [a + s * b for a, b in zip(d1, d2)],
                               [a + s * b for a, b in zip(l1, l2)])
            rhs = (h_derivation(dspace, d1, l1)
                   + h_derivation(dspace, d2, l2).scale(s))
            assert lhs == rhs

    def test_abelian1_identity_derivation(self):
        dspace = d_derivations(derivation_algebra(abelian(1)))
        mat = h_derivation(dspace, [1], [0])
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
        rep = verify(abelian(1), "abelian1", "1")
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
def test_checks_never_build_the_leibniz_system_of_the_full_graph(name):
    # the generator check walks the structure constants of C(G), and the
    # dimension of Der(C(G)) comes from the blocks over G
    ws = _Workspace(lookup(name).algebra)
    for check in (check_theorem1, check_lemma, check_theorem2):
        check(ws)
    assert "cocycle_system" not in vars(ws.cg.adjoint)
    assert "cocycle_rref" in vars(ws.der.parent.adjoint)


def _heisenberg(k: int):
    """h_{2k+1}: [x_i, y_i] = z for i = 1..k, basis x1, y1, ..., xk, yk, z."""
    n = 2 * k + 1
    z = [1 if t == n - 1 else 0 for t in range(n)]
    return make_lie_algebra(n, [(2 * i, 2 * i + 1, z) for i in range(k)])


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_heisenberg_family_closed_forms(k):
    # dim Der(h_{2k+1}) = 2k²+3k+1, dim H = dim C(G) = 2k²+5k+2, and
    # Der(C(G)) is one larger: the outer derivation 2·id_G − ad_G on G.
    # An oracle for sizes where the sympy one is too slow: at k = 3, C(G)
    # is 35-dim and its Leibniz rule is 20825 equations in 1225 unknowns,
    # which the full system still checks; k = 4 and 5 read the blocks only.
    ws = _Workspace(_heisenberg(k))
    assert ws.der.dim == 2 * k * k + 3 * k + 1
    assert ws.h.dim == ws.cg.dim == 2 * k * k + 5 * k + 2
    assert ws.der_cg_dim == 2 * k * k + 5 * k + 3
    if k <= 3:
        assert derivation_algebra(ws.cg).dim == ws.der_cg_dim


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
    assert (h_derivation(dspace, d, l)
            == reference.h_derivation(dspace, d, l))


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
            delta[r * size + m + j] = -ad[r, j]
    delta = Matrix(size, size, delta)
    cg = ws.cg.adjoint
    assert cg.is_cocycle(delta) and reference.is_cocycle(cg, delta)

    total = m + ws.dspace.dim
    units = [[F(int(t == i)) for t in range(total)] for i in range(total)]
    image = Subspace.from_rows(size * size, [
        h_derivation(ws.dspace, u[:m], u[m:]).flatten() for u in units])
    is_abelian = not any(any(row) for row in g.pairs)
    assert image.contains_vector(delta.flatten()) == is_abelian


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
                                    der.ad_coordinates.apply(c.column(j))))
        for j, d in enumerate(der.matrices)]).transpose()
    return Matrix.from_rows([a.row(r) + b.row(r) for r in range(a.rows)]
                            + [c.row(r) + e.row(r) for r in range(c.rows)])


def _block_derivations(ws) -> list[Matrix]:
    m, n = ws.der.dim, ws.der.parent.dim
    zero_e, zero_b, zero_c = Matrix.zero(n, n), Matrix.zero(m, n), Matrix.zero(n, m)
    out = [_assemble(ws, c, zero_e, zero_b) for c in ws.dspace.matrices]
    for v in der_cg_blocks(ws.der, ws.cg).basis_vectors():
        out.append(_assemble(ws, zero_c, Matrix(n, n, v[m * n:]),
                             Matrix(m, n, v[:m * n])))
    return out


BLOCK_CASES = [pytest.param(name, id=name) for name in NAMES] + [
    pytest.param((seed, n), id=f"two_step_{seed}_{n}")
    for seed in range(6) for n in (3, 4, 5)]


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_blocks_assemble_to_the_derivations_of_the_full_graph(case):
    g = algebra(case) if isinstance(case, str) else two_step_nilpotent(*case)
    ws = _Workspace(g)
    deltas = _block_derivations(ws)
    size = ws.cg.dim
    full = derivation_algebra(ws.cg)
    assert len(deltas) == ws.der_cg_dim == full.dim
    assert Subspace.from_rows(size * size, [d.flatten() for d in deltas]) == full.flat_span
    cg = ws.cg.adjoint
    assert all(reference.is_cocycle(cg, d) for d in deltas)


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
    v = [-ad[r, j] for r in range(m) for j in range(n)] + [
        2 if a == b else 0 for a in range(n) for b in range(n)]
    assert der_cg_blocks(ws.der, ws.cg).contains_vector(v)


# Scalars are ints and Fractions only: every matrix that verify builds,
# subspace bases included, on a fresh parse of each catalog entry.

@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_verify_builds_no_float(name, monkeypatch):
    seen = set()
    init, trusted = Matrix.__init__, Matrix._trusted.__func__

    def counting_init(self, rows, cols, entries):
        init(self, rows, cols, entries)
        seen.update(map(type, self.flatten()))

    def counting_trusted(cls, rows, cols, entries):
        seen.update(map(type, entries))
        return trusted(cls, rows, cols, entries)

    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Matrix, "_trusted", classmethod(counting_trusted))
    g = parse_algebra_file(serialize_algebra(lookup(name).algebra))
    verify(g, name)
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

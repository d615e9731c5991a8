import functools
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import child
import oracle
import reference
import sympy as sp
from algebras import CASES, CATALOG_NAMES, NAMES, algebra, case_algebra, case_id
from liegraph.algebra import (CompletenessEvidence, InternalConsistencyError,
                              JacobiViolation, LieAlgebra, LieError, _flat,
                              center, cocycle_system,
                              derivation_algebra, derived_subalgebra,
                              induced_lie_structure, inner_derivations,
                              is_complete, lie_algebra_from_table,
                              make_lie_algebra)
from liegraph.catalog import lookup
from liegraph.dtheory import d_derivations, inner_d_derivation
from liegraph.fullgraph import build_full_graph
from liegraph.linalg import Matrix, Subspace, sparse_nullspace, sparse_rref
from test_linalg import entries, sparse_entries

F = Fraction
I3 = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])


def completeness(g):
    return is_complete(g, derivation_algebra(g).dim, center(g))


@pytest.fixture(scope="module")
def sl2():
    return lookup("sl2").algebra


@pytest.fixture(scope="module")
def h3():
    return lookup("heisenberg3").algebra


class TestConstruction:
    def test_sl2_table_valid(self, sl2):
        assert sl2.dim == 3
        assert reference.bracket(sl2.table, [1, 0, 0], [0, 1, 0]) == (0, 2, 0)
        assert reference.bracket(sl2.table, [0, 1, 0], [0, 0, 1]) == (1, 0, 0)

    def test_abelian_plane(self):
        g = make_lie_algebra(2, [])
        assert all(not any(g.table[i][j]) for i in range(2) for j in range(2))

    def test_jacobi_violation_reported_with_triple(self):
        # [e1,e2]=e3, [e1,e3]=e1: the cyclic Jacobi sum on (e1,e2,e3) is e3
        with pytest.raises(JacobiViolation) as exc:
            make_lie_algebra(3, [(0, 1, [0, 0, 1]), (0, 2, [1, 0, 0])])
        assert exc.value.triple == (0, 1, 2)
        assert exc.value.residual == (F(0), F(0), F(1))

    def test_index_out_of_range(self):
        with pytest.raises(LieError, match=r"^bracket indices \(0,5\) out of "
                                            r"range for dim 2$"):
            make_lie_algebra(2, [(0, 5, [0, 0])])

    def test_inconsistent_pair(self):
        with pytest.raises(LieError, match=r"^pair \(0, 1\) given twice with "
                                            r"inconsistent values$"):
            make_lie_algebra(2, [(0, 1, [0, 1]), (1, 0, [0, 1])])

    def test_nonzero_self_bracket(self):
        with pytest.raises(LieError, match=r"^c\[1\]\[1\] != -c\[1\]\[1\]$"):
            make_lie_algebra(2, [(1, 1, [1, 0])])
        assert make_lie_algebra(2, [(1, 1, [0, 0])]) == make_lie_algebra(2, [])

    @pytest.mark.parametrize("c01,c10,c00", [
        ([0, 1], [0, 1], [0, 0]),    # [e1,e2] = [e2,e1] = e2
        ([0, 1], [0, 0], [0, 0]),    # [e2,e1] missing
        ([0, 0], [0, 1], [0, 0]),    # [e1,e2] missing
        ([0, 0], [0, 0], [1, 0]),    # [e1,e1] = e1
    ])
    def test_table_must_be_antisymmetric(self, c01, c10, c00):
        table = [[c00, c01], [c10, [0, 0]]]
        why = (r"^c\[0\]\[0\] != -c\[0\]\[0\]$" if any(c00)
               else r"^pair \(0, 1\) given twice with inconsistent values$")
        with pytest.raises(LieError, match=why):
            lie_algebra_from_table(table)

    @pytest.mark.parametrize("table", [
        # two basis elements whose brackets have three coordinates: the
        # third would name an e3 the algebra does not have
        [[[0, 0, 0], [0, 0, 1]], [[0, 0, -1], [0, 0, 0]]],
        [[[0, 0], [0, 1]], [[0, -1]]],  # ragged: the second row is short
        [[[0, 0], [0, 1]], [[0, -1], [0]]],  # ragged: a short bracket
    ], ids=["wide-brackets", "short-row", "short-bracket"])
    def test_table_must_be_n_by_n_by_n(self, table):
        with pytest.raises(LieError, match="2 x 2 x 2"):
            lie_algebra_from_table(table)

    def test_huge_dim_raises_without_a_loop_over_it(self):
        # a nonzero (i, i) is refused where it is read, so no loop runs
        # over range(dim) and the first allocation of that size raises; a
        # fresh process under a timeout fails this test, not the suite
        code = ("from liegraph.algebra import make_lie_algebra\n"
                "try:\n    make_lie_algebra(10 ** 20, [])\n"
                "except OverflowError:\n    print('refused')")
        status, out, err = child.run_python("-c", code)
        assert (status, out) == (0, "refused\n"), err

    def test_dim_zero_rejected(self):
        with pytest.raises(LieError):
            make_lie_algebra(0, [])


class TestBracketAndAd:
    def test_bracket_with_self_vanishes(self, sl2):
        for v in ([1, 2, 3], [F(1, 2), 0, 5]):
            assert not any(reference.bracket(sl2.table, v, v))

    def test_heisenberg_bracket(self, h3):
        assert reference.bracket(h3.table, [1, 0, 0], [0, 1, 0]) == (0, 0, 1)

    def test_ad_abelian_zero(self):
        g = make_lie_algebra(3, [])
        assert not any(g._ad([(0, 1), (1, 2), (2, 3)]).nonzeros)

    def test_ad_h_is_diagonal(self, sl2):
        m = sl2._ad([(0, 1)])
        assert m == Matrix.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, -2]])

    def test_ad_kills_its_own_vector(self, sl2):
        x = [F(3), F(-1, 2), F(5)]
        assert not any(reference.apply(sl2._ad(reference.terms(x)), x))


class TestCenterAndDerived:
    def test_center_abelian_full(self):
        assert center(make_lie_algebra(2, [])) == Subspace.from_rows(2, [[1, 0], [0, 1]])

    def test_center_h3_is_z(self, h3):
        assert center(h3) == Subspace.from_rows(3, [[0, 0, 1]])

    def test_center_sl2_trivial(self, sl2):
        assert center(sl2).dim == 0

    def test_derived_abelian_zero(self):
        assert derived_subalgebra(make_lie_algebra(3, [])).dim == 0

    def test_derived_h3(self, h3):
        assert derived_subalgebra(h3) == Subspace.from_rows(3, [[0, 0, 1]])

    def test_derived_sl2_full(self, sl2):
        assert derived_subalgebra(sl2).dim == 3


class TestDerivationAlgebra:
    def test_abelian2_is_gl2(self):
        der = derivation_algebra(make_lie_algebra(2, []))
        assert der.dim == 4
        assert isinstance(der, Subspace) and der.ambient_dim == 4

    @pytest.mark.parametrize("name,dim", [("sl2", 3), ("heisenberg3", 6)])
    def test_dimensions(self, name, dim):
        assert derivation_algebra(lookup(name).algebra).dim == dim

    def test_commutator_closure(self, sl2):
        der = derivation_algebra(sl2)
        for i in range(der.dim):
            for j in range(der.dim):
                comm = der.matrices[i].commutator(der.matrices[j])
                coords = der.coordinates_of(comm)
                assert der.matrix_of(reference.terms(coords)) == comm

    def test_deterministic(self, sl2):
        a = derivation_algebra(sl2)
        b = derivation_algebra(sl2)
        assert a.matrices == b.matrices
        assert a.as_lie_algebra.table == b.as_lie_algebra.table

    def test_is_cocycle_rejects_a_non_derivation(self, sl2):
        a3 = make_lie_algebra(3, [])
        assert reference.is_cocycle(a3.adjoint, a3, I3)
        # I[h, e] = 2e but [Ih, e] + [h, Ie] = 4e
        assert not reference.is_cocycle(sl2.adjoint, sl2, I3)
        assert derivation_algebra(sl2)._coordinates(_flat(I3)) is None

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_matrix_of_and_terms_of_are_inverse(self, case):
        # on Der(G) and Z¹: each basis term, one drawn combination of
        # nonzero terms, and each basis matrix make the round trip
        rng = random.Random(repr(case))
        der = derivation_algebra(case_algebra(case))
        for span in (der, d_derivations(der)):
            drawn = tuple((i, F(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])))
                          for i in range(span.dim) if rng.random() < 0.5)
            for t in [((i, 1),) for i in range(span.dim)] + [drawn]:
                assert span.terms_of(span.matrix_of(t)) == t
            for mat in span.matrices:
                assert span.matrix_of(span.terms_of(mat)) == mat

    def test_coordinates_of_matrix_outside_span_raises(self, h3):
        # the identity is no derivation of heisenberg3: D[x,y] = z, not 2z
        der = derivation_algebra(h3)
        with pytest.raises(InternalConsistencyError):
            der.coordinates_of(I3)


class TestInnerDerivations:
    def test_abelian_zero(self):
        assert inner_derivations(make_lie_algebra(3, [])).dim == 0

    def test_sl2_all_inner(self, sl2):
        der = derivation_algebra(sl2)
        inner = inner_derivations(sl2)
        assert inner.dim == 3
        assert inner == der

    def test_h3_inner_dim_two(self, h3):
        assert inner_derivations(h3).dim == 2

    def test_contained_in_derivations(self):
        for entry in ("abelian2", "affine2", "heisenberg3", "sl2"):
            g = lookup(entry).algebra
            assert reference.contains(derivation_algebra(g),
                                      inner_derivations(g))


class TestCompleteness:
    def test_abelian1_not_complete(self):
        ev = completeness(make_lie_algebra(1, []))
        assert not ev.complete and ev.center_dim == 1

    def test_sl2_complete(self, sl2):
        ev = completeness(sl2)
        assert ev.complete and (ev.center_dim, ev.der_dim, ev.inner_dim) == (0, 3, 3)

    def test_affine2_complete(self):
        ev = completeness(lookup("affine2").algebra)
        assert ev.complete and ev.der_dim == ev.inner_dim == 2

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_given_der_and_center_give_the_same_evidence(self, name):
        # the verdict from dim Der(G) and the center, against the sympy
        # oracle: the flattened ad(e_i) have rank dim ad(G) = n - dim center
        table = oracle.lie_table(lookup(name))
        n = len(table)
        der = len(oracle.derivation_matrices(table))
        inner = sp.Matrix([list(oracle.ad(table, oracle._unit(n, i)))
                           for i in range(n)]).rank()
        assert completeness(lookup(name).algebra) == CompletenessEvidence(
            inner == n and inner == der, n - inner, der, inner)


class TestInducedStructure:
    def test_ad_basis_of_sl2(self, sl2):
        mats = list(sl2.adjoint)
        alg = induced_lie_structure(mats)
        # ad is a bracket homomorphism, so the table is sl2's own
        assert alg.table == sl2.table

    def test_single_matrix_is_abelian_line(self):
        alg = induced_lie_structure([Matrix.from_rows([[1, 0], [0, 0]])])
        assert alg.dim == 1 and not any(alg.table[0][0])

    def test_not_closed_with_witness(self):
        e11 = Matrix.from_rows([[1, 0], [0, 0]])
        mixed = Matrix.from_rows([[0, 1], [1, 0]])  # E12 + E21
        # [E11, E12+E21] = E12 - E21, outside span{E11, E12+E21}: the
        # message names the pair of basis elements
        with pytest.raises(LieError, match=r"^commutator of basis elements "
                                           r"\(0, 1\) escapes the span$"):
            induced_lie_structure([e11, mixed])

    def test_dependent_basis(self):
        m = Matrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(LieError, match="linearly dependent"):
            induced_lie_structure([m, m.scale(2)])

    @pytest.mark.parametrize("case", CASES, ids=case_id)
    def test_der_table_matches_solve_reference(self, case):
        # Der(G) reads commutator coordinates at the RREF pivots of its
        # span and scans no Jacobi triple; induced_lie_structure solves for
        # them, scans every triple and is the reference
        der = derivation_algebra(case_algebra(case))
        ref = induced_lie_structure(der.matrices,
                                    basis_names=der.as_lie_algebra.basis_names)
        assert der.as_lie_algebra == ref


class TestSemidirect:
    def test_line_acting_on_line_by_scaling_is_affine2(self):
        # C(abelian1): Der of the line is the line, acting by scaling
        cg = build_full_graph(derivation_algebra(make_lie_algebra(1, [])))
        assert cg.table == lookup("affine2").algebra.table

    def test_action_that_is_no_representation_fails_jacobi(self):
        # two commuting generators acting by E12 and E21, which do not
        # commute: the padded table breaks the semidirect criterion that
        # build_full_graph's docstring states, and the full scan rejects it
        # on a homomorphism triple
        e12, e21 = ((F(0), F(0)), (F(1), F(0))), ((F(0), F(1)), (F(0), F(0)))
        plane = make_lie_algebra(2, [])
        built = reference.semidirect(plane, plane, lambda i, j: (e12, e21)[i][j])
        with pytest.raises(JacobiViolation) as exc:
            reference.validate_jacobi(4, built.table)
        assert exc.value.triple == (0, 1, 2)
        assert exc.value.residual == (0, 0, 1, 0)


# The sparse cocycle system of an action against the dense reference:
# the same rows (zero rows left out), the same canonical RREF and kernel,
# and membership in that kernel against the loop over basis pairs.

@functools.lru_cache(maxsize=None)
def _action(name: str, action: str) -> tuple:
    """(rho, algebra): G acting on itself, or Der(G) acting on G."""
    g = algebra(name)
    if action == "adjoint":
        return g.adjoint, g
    der = derivation_algebra(g)
    return der.matrices, der.as_lie_algebra


@pytest.mark.parametrize("action", ["adjoint", "natural"])
@pytest.mark.parametrize("name", NAMES)
def test_cocycle_system_matches_dense_reference(name, action):
    rho, alg = _action(name, action)
    width = rho[0].rows * len(rho)
    dense = reference.cocycle_rows(rho, alg)
    nonzero = [r for r in dense if any(r)]
    assert reference.dense_rows(cocycle_system(rho, alg), width) == nonzero
    reduced, pivots = sparse_rref(cocycle_system(rho, alg))
    ref_rows, ref_pivots = reference.rref_rows([list(r) for r in dense])
    assert pivots == ref_pivots and reference.dense_rows(reduced, width) == ref_rows
    kernel = sparse_nullspace(width, cocycle_system(rho, alg))
    assert (reference.dense_rows(map(dict, kernel.rows), width)
            == reference.nullspace_basis(dense, width))


def test_one_dimensional_algebra_makes_every_map_a_cocycle():
    # one basis element: no bracket pairs, so the system has no rows
    rho, alg = (Matrix.from_rows([[1, 2], [0, 3]]),), make_lie_algebra(1, [])
    assert (tuple(cocycle_system(rho, alg)) == ()
            and reference.cocycle_rows(rho, alg) == [])
    assert sparse_nullspace(2, cocycle_system(rho, alg)).dim == 2
    assert reference.nullspace_basis([], 2) == [[1, 0], [0, 1]]
    for phi in (Matrix.from_rows([[5], [F(-7, 2)]]), Matrix.zero(2, 1)):
        assert reference.is_cocycle(rho, alg, phi)


@pytest.mark.parametrize("action", ["adjoint", "natural"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_coboundaries_match_the_span_of_each_coboundary(name, action):
    # the package's own inner maps: ad(e_k) for the adjoint action, and
    # L_{e_k} for Der(G) acting on G
    rho, _ = _action(name, action)
    g, n = algebra(name), rho[0].rows
    if action == "adjoint":
        inner = inner_derivations(g)
    else:
        der = derivation_algebra(g)
        inner = Subspace._span(n * der.dim, [
            _flat(inner_d_derivation(der, reference.unit(n, k))) for k in range(n)])
    assert reference.coboundaries(rho) == inner


@pytest.mark.parametrize("action", ["adjoint", "natural"])
@pytest.mark.parametrize("name", NAMES)
def test_is_cocycle_on_columns_no_row_touches(name, action):
    # the column index of the cocycle system has no entry for these columns,
    # so a map supported there meets no row: it lies in the kernel, and the
    # loop over basis pairs finds it a cocycle (the zero map where every
    # column is in some row)
    rho, alg = _action(name, action)
    n, m = rho[0].rows, len(rho)
    touched = {col for row in cocycle_system(rho, alg) for col in row}
    phi = reference.dense(n, m, [F(0) if col in touched else F(col % 5 + 1, 2)
                                 for col in range(n * m)])
    space = sparse_nullspace(n * m, cocycle_system(rho, alg))
    assert space._coordinates(_flat(phi)) is not None
    assert reference.is_cocycle(rho, alg, phi)


@given(st.sampled_from(CATALOG_NAMES), st.sampled_from(["adjoint", "natural"]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_is_cocycle_matches_loop_reference(name, action, data):
    rho, alg = _action(name, action)
    n, m = rho[0].rows, len(rho)
    space = sparse_nullspace(n * m, cocycle_system(rho, alg))
    coeffs = data.draw(st.lists(entries, min_size=space.dim, max_size=space.dim))
    basis = reference.dense_rows(map(dict, space.rows), n * m)
    accepted = [sum((c * b[t] for c, b in zip(coeffs, basis)), F(0))
                for t in range(n * m)]
    noise = data.draw(st.lists(sparse_entries, min_size=n * m, max_size=n * m))
    perturbed = [a + b for a, b in zip(accepted, noise)]
    perturbed = reference.dense(n, m, perturbed)
    assert reference.is_cocycle(rho, alg, reference.dense(n, m, accepted))
    assert (reference.is_cocycle(rho, alg, perturbed)
            == (space._coordinates(_flat(perturbed)) is not None))


# The sparse structure constants against the dense references: ad, bracket,
# the Jacobi check and C(G)'s builder read LieAlgebra.pairs and must give
# exactly what the dense forms give on the dense table.

def _pairs(table):
    return tuple(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row)
                 for row in table)


@st.composite
def antisymmetric_tables(draw, max_dim=6):
    n = draw(st.integers(1, max_dim))
    table = [[(F(0),) * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        v = tuple(draw(st.lists(sparse_entries, min_size=n, max_size=n)))
        table[i][j], table[j][i] = v, tuple(-c for c in v)
    return tuple(tuple(row) for row in table)


def _jacobi_outcome(build):
    try:
        return build()
    except JacobiViolation as exc:
        return exc.triple, exc.residual


@given(antisymmetric_tables(), st.data())
@settings(max_examples=200, deadline=None)
def test_sparse_structure_constants_match_dense_reference(table, data):
    n = len(table)
    # ad and bracket need no Jacobi, so the table is wrapped unchecked
    g = LieAlgebra(tuple(f"e{i + 1}" for i in range(n)), _pairs(table))
    assert g.table == table
    x, y = (data.draw(st.lists(sparse_entries, min_size=n, max_size=n))
            for _ in range(2))
    assert g._ad(reference.terms(x)) == reference.ad(table, x)
    for j in range(n):
        assert g.adjoint[j] == reference.ad(table, reference.unit(n, j))
    built = _jacobi_outcome(lambda: lie_algebra_from_table(table))
    expected = _jacobi_outcome(lambda: reference.validate_jacobi(n, table))
    if expected is None:
        assert built == g and built.table == table
    else:
        assert built == expected
        upper = [(i, j, table[i][j]) for i, j in combinations(range(n), 2)]
        assert _jacobi_outcome(lambda: make_lie_algebra(n, upper)) == expected


@pytest.mark.parametrize("name", NAMES)
def test_ad_and_bracket_of_every_sample_algebra_match_dense(name):
    g = algebra(name)
    n = g.dim
    assert reference.validate_jacobi(n, g.table) is None
    x = [F(i - 2, i + 1) for i in range(n)]
    assert g._ad(reference.terms(x)) == reference.ad(g.table, x)
    for i in range(n):
        assert g.adjoint[i] == reference.ad(g.table, reference.unit(n, i))


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_adjoint_is_read_off_the_structure_constants(case, monkeypatch):
    # pairs[i] is the stored form of ad(e_i) transposed, so building the
    # adjoint of a fresh algebra computes no ad
    g = case_algebra(case)
    fresh = LieAlgebra(g.basis_names, g.pairs)

    def refuse(*args):
        raise AssertionError("the adjoint was built through ad")

    monkeypatch.setattr(LieAlgebra, "_ad", refuse)
    adjoint = fresh.adjoint
    monkeypatch.undo()
    assert type(adjoint) is tuple and len(adjoint) == g.dim
    for i in range(g.dim):
        assert adjoint[i] == g.adjoint[i] == reference.ad(
            g.table, reference.unit(g.dim, i))


@pytest.mark.parametrize("name", NAMES)
def test_semidirect_matches_padded_reference(name):
    g = algebra(name)
    der = derivation_algebra(g)
    act = lambda i, j: reference.column(der.matrices[i], j)
    built = build_full_graph(der)
    expected = reference.semidirect(der.as_lie_algebra, g, act)
    assert built == expected and built.table == expected.table


@given(st.sampled_from(CATALOG_NAMES), st.integers(1, 2), st.data())
@settings(max_examples=100, deadline=None)
def test_semidirect_by_any_action_matches_padded_reference(name, m, data):
    # the padded reference builds the table of any action, and the full
    # scan accepts it iff the semidirect criterion that build_full_graph's
    # docstring states holds: each action map is a derivation of v and,
    # the acting algebra being abelian, the maps commute
    v = algebra(name)
    vecs = {(i, j): data.draw(st.lists(sparse_entries, min_size=v.dim,
                                       max_size=v.dim))
            for i in range(m) for j in range(v.dim)}
    act = lambda i, j: vecs[i, j]
    built = reference.semidirect(make_lie_algebra(m, []), v, act)
    maps = [Matrix.from_rows([act(i, j) for j in range(v.dim)]).transpose()
            for i in range(m)]
    der = derivation_algebra(v)
    criterion = (all(der._coordinates(_flat(a)) is not None
                     for a in maps)
                 and not any(any(a.commutator(b).nonzeros)
                             for a, b in combinations(maps, 2)))
    scan = _jacobi_outcome(lambda: reference.validate_jacobi(m + v.dim,
                                                             built.table))
    assert (scan is None) == criterion


def test_algebra_equality_ignores_views_built_on_first_read():
    g = make_lie_algebra(3, [(0, 1, [0, 0, 1])], ("x", "y", "z"))
    h = lookup("heisenberg3").algebra
    assert g is not h
    g.table, g.adjoint  # built on g only
    assert "table" in vars(g) and "table" not in vars(h)
    assert g == h and hash(g) == hash(h)
    assert g != make_lie_algebra(3, [(0, 1, [0, 0, 1])])  # other names
    assert g != make_lie_algebra(3, [(0, 1, [0, 0, 2])], ("x", "y", "z"))

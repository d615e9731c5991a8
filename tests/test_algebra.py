import functools
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import oracle
import reference
import sympy as sp
from algebras import CATALOG_NAMES, NAMES, algebra
from liegraph.algebra import (AntisymmetryConflict, CompletenessEvidence,
                              DependentBasis, IndexOutOfRange,
                              InternalConsistencyError, JacobiViolation,
                              LieAlgebra, LieError, NotClosed, Representation,
                              _unit, abelian, center, derivation_algebra,
                              derived_subalgebra, induced_lie_structure,
                              inner_derivations, is_complete,
                              lie_algebra_from_table, make_lie_algebra,
                              semidirect)
from liegraph.catalog import catalog, lookup
from liegraph.linalg import Matrix, Subspace, sparse_rref

F = Fraction


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
        assert sl2.bracket([1, 0, 0], [0, 1, 0]) == (F(0), F(2), F(0))
        assert sl2.bracket([0, 1, 0], [0, 0, 1]) == (F(1), F(0), F(0))

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
        with pytest.raises(IndexOutOfRange):
            make_lie_algebra(2, [(0, 5, [0, 0])])

    def test_inconsistent_pair(self):
        with pytest.raises(AntisymmetryConflict):
            make_lie_algebra(2, [(0, 1, [0, 1]), (1, 0, [0, 1])])

    def test_nonzero_self_bracket(self):
        with pytest.raises(AntisymmetryConflict):
            make_lie_algebra(2, [(1, 1, [1, 0])])
        assert make_lie_algebra(2, [(1, 1, [0, 0])]) == abelian(2)

    @pytest.mark.parametrize("c01,c10,c00", [
        ([0, 1], [0, 1], [0, 0]),    # [e1,e2] = [e2,e1] = e2
        ([0, 1], [0, 0], [0, 0]),    # [e2,e1] missing
        ([0, 0], [0, 1], [0, 0]),    # [e1,e2] missing
        ([0, 0], [0, 0], [1, 0]),    # [e1,e1] = e1
    ])
    def test_table_must_be_antisymmetric(self, c01, c10, c00):
        table = [[c00, c01], [c10, [0, 0]]]
        with pytest.raises(AntisymmetryConflict):
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

    def test_dim_zero_rejected(self):
        with pytest.raises(LieError):
            make_lie_algebra(0, [])


class TestBracketAndAd:
    def test_bracket_with_self_vanishes(self, sl2):
        for v in ([1, 2, 3], [F(1, 2), 0, 5]):
            assert not any(sl2.bracket(v, v))

    def test_heisenberg_bracket(self, h3):
        assert h3.bracket([1, 0, 0], [0, 1, 0]) == (F(0), F(0), F(1))

    def test_ad_abelian_zero(self):
        g = abelian(3)
        assert g.ad([1, 2, 3]).is_zero()

    def test_ad_h_is_diagonal(self, sl2):
        m = sl2.ad([1, 0, 0])
        assert m == Matrix.from_rows([[0, 0, 0], [0, 2, 0], [0, 0, -2]])

    def test_ad_kills_its_own_vector(self, sl2):
        x = [F(3), F(-1, 2), F(5)]
        assert not any(sl2.ad(x).apply(x))

    def test_length_mismatch(self, sl2):
        with pytest.raises(ValueError):
            sl2.bracket([1, 0], [0, 1, 0])


class TestCenterAndDerived:
    def test_center_abelian_full(self):
        assert center(abelian(2)) == Subspace.full(2)

    def test_center_h3_is_z(self, h3):
        assert center(h3) == Subspace.from_rows(3, [[0, 0, 1]])

    def test_center_sl2_trivial(self, sl2):
        assert center(sl2).dim == 0

    def test_derived_abelian_zero(self):
        assert derived_subalgebra(abelian(3)).dim == 0

    def test_derived_h3(self, h3):
        assert derived_subalgebra(h3) == Subspace.from_rows(3, [[0, 0, 1]])

    def test_derived_sl2_full(self, sl2):
        assert derived_subalgebra(sl2) == Subspace.full(3)


class TestDerivationAlgebra:
    def test_abelian2_is_gl2(self):
        der = derivation_algebra(abelian(2))
        assert der.dim == 4
        assert der.flat_span == Subspace.full(4)

    @pytest.mark.parametrize("name,dim", [("sl2", 3), ("heisenberg3", 6)])
    def test_dimensions(self, name, dim):
        assert derivation_algebra(lookup(name).algebra).dim == dim

    def test_every_basis_element_is_leibniz(self):
        for name in ("sl2", "heisenberg3", "affine2", "sl2_plus_abelian1"):
            g = lookup(name).algebra
            der = derivation_algebra(g)
            assert all(g.adjoint.is_cocycle(d) for d in der.matrices)

    def test_commutator_closure(self, sl2):
        der = derivation_algebra(sl2)
        for i in range(der.dim):
            for j in range(der.dim):
                comm = der.matrices[i].commutator(der.matrices[j])
                coords = der.coordinates_of(comm)
                assert der.matrix_of(coords) == comm

    def test_deterministic(self, sl2):
        a = derivation_algebra(sl2)
        b = derivation_algebra(sl2)
        assert a.matrices == b.matrices
        assert a.as_lie_algebra.table == b.as_lie_algebra.table

    def test_is_cocycle_rejects_a_non_derivation(self, sl2):
        assert abelian(3).adjoint.is_cocycle(Matrix.identity(3))
        # I[h, e] = 2e but [Ih, e] + [h, Ie] = 4e
        assert not sl2.adjoint.is_cocycle(Matrix.identity(3))

    @pytest.mark.parametrize("coords", [(1,), (1, 0, 0, 5, 7)])
    def test_matrix_of_rejects_wrong_length(self, sl2, coords):
        with pytest.raises(ValueError, match="dimension 3"):
            derivation_algebra(sl2).matrix_of(coords)

    def test_coordinates_of_matrix_outside_span_raises(self, h3):
        # the identity is no derivation of heisenberg3: D[x,y] = z, not 2z
        der = derivation_algebra(h3)
        with pytest.raises(InternalConsistencyError):
            der.coordinates_of(Matrix.identity(3))


class TestInnerDerivations:
    def test_abelian_zero(self):
        assert inner_derivations(abelian(3)).dim == 0

    def test_sl2_all_inner(self, sl2):
        der = derivation_algebra(sl2)
        inner = inner_derivations(sl2)
        assert inner.dim == 3
        assert inner == der.flat_span

    def test_h3_inner_dim_two(self, h3):
        assert inner_derivations(h3).dim == 2

    def test_contained_in_derivations(self):
        for entry in ("abelian2", "affine2", "heisenberg3", "sl2"):
            g = lookup(entry).algebra
            assert derivation_algebra(g).flat_span.contains(inner_derivations(g))


class TestCompleteness:
    def test_abelian1_not_complete(self):
        ev = completeness(abelian(1))
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
        mats = [sl2.ad(v) for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])]
        alg = induced_lie_structure(mats)
        # ad is a bracket homomorphism, so the table is sl2's own
        assert alg.table == sl2.table

    def test_single_matrix_is_abelian_line(self):
        alg = induced_lie_structure([Matrix.from_rows([[1, 0], [0, 0]])])
        assert alg.dim == 1 and not any(alg.table[0][0])

    def test_not_closed_with_witness(self):
        e11 = Matrix.from_rows([[1, 0], [0, 0]])
        mixed = Matrix.from_rows([[0, 1], [1, 0]])  # E12 + E21
        with pytest.raises(NotClosed) as exc:
            induced_lie_structure([e11, mixed])
        # [E11, E12+E21] = E12 - E21, outside span{E11, E12+E21}
        assert exc.value.witness == Matrix.from_rows([[0, 1], [-1, 0]])

    def test_dependent_basis(self):
        m = Matrix.identity(2)
        with pytest.raises(DependentBasis):
            induced_lie_structure([m, m.scale(2)])

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_der_table_matches_solve_reference(self, name):
        # Der(G) reads commutator coordinates at the RREF pivots of its
        # span; induced_lie_structure solves for them and is the reference
        der = derivation_algebra(lookup(name).algebra)
        ref = induced_lie_structure(der.matrices,
                                    basis_names=der.as_lie_algebra.basis_names)
        assert der.as_lie_algebra == ref


class TestSemidirect:
    def test_line_acting_on_line_by_scaling_is_affine2(self):
        line = abelian(1)
        alg = semidirect(line, line, lambda i, j: (F(1),))
        assert alg.table == lookup("affine2").algebra.table

    def test_action_that_is_no_representation_fails_jacobi(self):
        # two commuting generators acting by E12 and E21, which do not commute
        e12, e21 = ((F(0), F(0)), (F(1), F(0))), ((F(0), F(1)), (F(0), F(0)))
        with pytest.raises(JacobiViolation):
            semidirect(abelian(2), abelian(2), lambda i, j: (e12, e21)[i][j])


# The sparse cocycle system of a Representation against the dense reference:
# the same rows (zero rows left out), the same canonical RREF and kernel,
# and the row-based is_cocycle against the loop over basis pairs.

@functools.lru_cache(maxsize=None)
def _representation(name: str, action: str) -> Representation:
    g = algebra(name)
    return g.adjoint if action == "adjoint" else derivation_algebra(g).natural


@pytest.mark.parametrize("action", ["adjoint", "natural"])
@pytest.mark.parametrize("name", NAMES)
def test_cocycle_system_matches_dense_reference(name, action):
    rep = _representation(name, action)
    width = rep.rho[0].rows * len(rep.rho)
    dense = reference.cocycle_rows(rep)
    nonzero = [r for r in dense if any(r)]
    assert reference.dense_rows(rep.cocycle_system, width) == nonzero
    reduced, pivots = sparse_rref(rep.cocycle_system)
    ref_rows, ref_pivots = reference.rref_rows([list(r) for r in dense])
    assert pivots == ref_pivots and reference.dense_rows(reduced, width) == ref_rows
    assert rep.cocycles().basis_vectors() == [
        tuple(v) for v in reference.nullspace_basis(dense, width)]


def test_one_dimensional_algebra_makes_every_map_a_cocycle():
    # one basis element: no bracket pairs, so the system has no rows
    rep = Representation((Matrix.from_rows([[1, 2], [0, 3]]),), abelian(1))
    assert rep.cocycle_system == () and reference.cocycle_rows(rep) == []
    assert rep.cocycles() == Subspace.full(2)
    assert reference.nullspace_basis([], 2) == [[1, 0], [0, 1]]
    for phi in (Matrix.from_rows([[5], [F(-7, 2)]]), Matrix.zero(2, 1)):
        assert rep.is_cocycle(phi) and reference.is_cocycle(rep, phi)


@pytest.mark.parametrize("action", ["adjoint", "natural"])
@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_coboundaries_match_the_span_of_each_coboundary(name, action):
    rep = _representation(name, action)
    n = rep.rho[0].rows
    expected = Subspace.from_rows(n * len(rep.rho), [
        rep.coboundary(_unit(n, k)).flatten() for k in range(n)])
    assert rep.coboundaries() == expected


@pytest.mark.parametrize("action", ["adjoint", "natural"])
@pytest.mark.parametrize("name", NAMES)
def test_is_cocycle_on_columns_no_row_touches(name, action):
    # the column index of the cocycle system has no entry for these columns,
    # so a map supported there meets no row: it is a cocycle (the zero map
    # where every column is in some row)
    rep = _representation(name, action)
    n, m = rep.rho[0].rows, len(rep.rho)
    touched = {col for row in rep.cocycle_system for col in row}
    phi = Matrix(n, m, [F(0) if col in touched else F(col % 5 + 1, 2)
                        for col in range(n * m)])
    assert rep.is_cocycle(phi) and reference.is_cocycle(rep, phi)


def test_is_cocycle_rejects_a_map_of_the_wrong_shape(sl2):
    with pytest.raises(ValueError):
        sl2.adjoint.is_cocycle(Matrix.identity(2))


entries = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
sparse_entries = st.one_of(st.just(F(0)), st.just(F(0)), entries)


@given(st.sampled_from(CATALOG_NAMES), st.sampled_from(["adjoint", "natural"]),
       st.data())
@settings(max_examples=150, deadline=None)
def test_is_cocycle_matches_loop_reference(name, action, data):
    rep = _representation(name, action)
    n, m = rep.rho[0].rows, len(rep.rho)
    space = rep.cocycles()
    coeffs = data.draw(st.lists(entries, min_size=space.dim, max_size=space.dim))
    accepted = [sum((c * b[t] for c, b in zip(coeffs, space.basis_vectors())), F(0))
                for t in range(n * m)]
    noise = data.draw(st.lists(sparse_entries, min_size=n * m, max_size=n * m))
    perturbed = [a + b for a, b in zip(accepted, noise)]
    phi = Matrix(n, m, accepted)
    assert rep.is_cocycle(phi) and reference.is_cocycle(rep, phi)
    phi = Matrix(n, m, perturbed)
    assert (rep.is_cocycle(phi) == reference.is_cocycle(rep, phi)
            == space.contains_vector(perturbed))


# The sparse structure constants against the dense references: ad, bracket,
# the Jacobi check and the semidirect builder read LieAlgebra.pairs and must
# give exactly what the dense forms give on the dense table.

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
    g = LieAlgebra(n, tuple(f"e{i + 1}" for i in range(n)), _pairs(table))
    assert g.table == table
    x, y = (data.draw(st.lists(sparse_entries, min_size=n, max_size=n))
            for _ in range(2))
    assert g.bracket(x, y) == reference.bracket(table, x, y)
    assert g.ad(x) == reference.ad(table, x)
    for j in range(n):
        assert g.adjoint.rho[j] == reference.ad(table, _unit(n, j))
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
    assert g.ad(x) == reference.ad(g.table, x)
    for i in range(n):
        assert g.adjoint.rho[i] == reference.ad(g.table, _unit(n, i))
        assert g.bracket(x, _unit(n, i)) == reference.bracket(g.table, x, _unit(n, i))


@pytest.mark.parametrize("name", NAMES)
def test_semidirect_matches_padded_reference(name):
    g = algebra(name)
    der = derivation_algebra(g)
    act = lambda i, j: der.matrices[i].column(j)
    built = semidirect(der.as_lie_algebra, g, act)
    expected = reference.semidirect(der.as_lie_algebra, g, act)
    assert built == expected and built.table == expected.table


@given(st.sampled_from(CATALOG_NAMES), st.integers(1, 2), st.data())
@settings(max_examples=100, deadline=None)
def test_semidirect_by_any_action_matches_padded_reference(name, m, data):
    # an arbitrary action is seldom one by derivations: both builders must
    # then report the same failing triple and residual
    v = algebra(name)
    vecs = {(i, j): data.draw(st.lists(sparse_entries, min_size=v.dim,
                                       max_size=v.dim))
            for i in range(m) for j in range(v.dim)}
    act = lambda i, j: vecs[i, j]
    built = _jacobi_outcome(lambda: semidirect(abelian(m), v, act))
    expected = _jacobi_outcome(lambda: reference.semidirect(abelian(m), v, act))
    assert built == expected
    if isinstance(built, LieAlgebra):
        assert built.table == expected.table


def test_algebra_equality_ignores_views_built_on_first_read():
    g = make_lie_algebra(3, [(0, 1, [0, 0, 1])], ("x", "y", "z"))
    h = lookup("heisenberg3").algebra
    assert g is not h
    g.table, g.adjoint  # built on g only
    assert "table" in vars(g) and "table" not in vars(h)
    assert g == h and hash(g) == hash(h)
    assert g != make_lie_algebra(3, [(0, 1, [0, 0, 1])])  # other names
    assert g != make_lie_algebra(3, [(0, 1, [0, 0, 2])], ("x", "y", "z"))

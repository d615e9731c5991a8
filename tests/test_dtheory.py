import functools
from fractions import Fraction

import pytest

import oracle
import reference
from algebras import CASES, algebra, case_algebra, case_id

from liegraph.algebra import (InternalConsistencyError, _flat, center,
                              derivation_algebra, inner_derivations,
                              make_lie_algebra)
from liegraph.catalog import catalog, lookup
from liegraph.dtheory import (DCompletenessEvidence, build_h, d_bracket,
                              d_center, d_derivations, der_action,
                              inner_d_derivation)
from liegraph.fullgraph import _Workspace, build_full_graph, check_theorem1
from liegraph.linalg import Matrix, Subspace

F = Fraction


def d_evidence(g):
    return _Workspace(g).d_completeness


@pytest.fixture(scope="module")
def sl2():
    return lookup("sl2").algebra


@pytest.fixture(scope="module")
def sl2_setup(sl2):
    der = derivation_algebra(sl2)
    return sl2, der, d_derivations(der)


class TestDDerivations:
    def test_abelian1_everything_qualifies(self):
        g = make_lie_algebra(1, [])
        space = d_derivations(derivation_algebra(g))
        assert space.der.dim == 1 and space.dim == 1

    def test_sl2_dimension_and_innerness(self, sl2_setup):
        _, _, space = sl2_setup
        assert space.dim == 3
        assert reference.coboundaries(space.der.matrices) == space.flat_span

    def test_inner_maps_lie_in_span(self):
        for entry in catalog():
            g = entry.algebra
            space = d_derivations(derivation_algebra(g))
            for i in range(g.dim):
                x = [1 if t == i else 0 for t in range(g.dim)]
                lx = inner_d_derivation(space.der, x)
                assert space.flat_span._coordinates(_flat(lx)) is not None, entry.name


def test_coordinates_of_map_outside_cocycle_space_raises(sl2_setup):
    g, der, space = sl2_setup
    width = g.dim * der.dim
    basis = reference.dense_rows(map(dict, space.flat_span.rows), width)
    # a unit vector that raises the rank lies outside the span
    outside = next(reference.dense(g.dim, der.dim, v)
                   for v in ([int(t == c) for t in range(width)] for c in range(width))
                   if Subspace.from_rows(width, basis + [v]).dim > space.dim)
    with pytest.raises(InternalConsistencyError):
        space.coordinates_of(outside)
    assert not reference.is_cocycle(der.matrices, der.as_lie_algebra, outside)


class TestDCenter:
    def test_does_not_build_der_table(self, sl2):
        der = derivation_algebra(sl2)
        d_center(der)
        assert "as_lie_algebra" not in vars(der)


class TestInnerDDerivation:
    def test_zero_vector_gives_zero_map(self, sl2_setup):
        g, der, _ = sl2_setup
        assert not any(inner_d_derivation(der, [0, 0, 0]).nonzeros)

    def test_wrong_length_vector_raises(self, sl2_setup):
        _, der, _ = sl2_setup
        with pytest.raises(ValueError, match="vector length 2 != cols 3"):
            inner_d_derivation(der, [1, 0])

    def test_sl2_l_h_golden(self, sl2_setup):
        g, der, _ = sl2_setup
        lh = inner_d_derivation(der, [1, 0, 0])
        assert lh == Matrix.from_rows([[0, 0, 0], [0, 2, 0], [2, 0, 0]])


class TestDBracket:
    def test_self_bracket_vanishes(self, sl2_setup):
        _, der, space = sl2_setup
        for l in space.matrices:
            assert not any(d_bracket(der, l, l).nonzeros)

    def test_abelian_brackets_vanish(self):
        g = make_lie_algebra(2, [])
        space = d_derivations(derivation_algebra(g))
        for a in space.matrices:
            for b in space.matrices:
                assert not any(d_bracket(space.der, a, b).nonzeros)

    def test_result_is_cocycle(self, sl2_setup):
        _, der, space = sl2_setup
        for a in space.matrices:
            for b in space.matrices:
                assert reference.is_cocycle(der.matrices, der.as_lie_algebra,
                                            d_bracket(der, a, b))


class TestDerAction:
    def test_zero_derivation_acts_as_zero(self, sl2_setup):
        g, der, space = sl2_setup
        zero = Matrix.zero(3, 3)
        for l in space.matrices:
            assert not any(der_action(der, zero, l).nonzeros)

    def test_sl2_adh_on_l_e_golden(self, sl2_setup):
        g, der, _ = sl2_setup
        adh = g.adjoint[0]
        le = inner_d_derivation(der, [0, 1, 0])
        acted = der_action(der, adh, le)
        l2e = inner_d_derivation(der, [0, 2, 0])
        assert acted == l2e
        assert acted == Matrix.from_rows([[-2, 0, 0], [0, 0, -2], [0, 0, 0]])

    def test_lands_in_cocycle_space(self, sl2_setup):
        g, der, space = sl2_setup
        for d in der.matrices:
            for l in space.matrices:
                assert reference.is_cocycle(der.matrices, der.as_lie_algebra,
                                            der_action(der, d, l))


class TestDAlgebra:
    def test_abelian1(self):
        alg = d_derivations(derivation_algebra(make_lie_algebra(1, []))).as_lie_algebra
        assert alg.dim == 1 and not any(alg.table[0][0])

    def test_sl2_isomorphic_under_inner_map(self, sl2_setup):
        g, der, space = sl2_setup
        # x -> L_x is a bracket homomorphism; transport sl2's table through it
        imgs = [inner_d_derivation(der, [1 if t == i else 0 for t in range(3)])
                for i in range(3)]
        for i in range(3):
            for j in range(3):
                lhs = d_bracket(der, imgs[i], imgs[j])
                rhs = inner_d_derivation(der, g.table[i][j])
                assert lhs == rhs

    def test_table_is_antisymmetric(self):
        for entry in catalog():
            alg = d_derivations(derivation_algebra(entry.algebra)).as_lie_algebra
            for i in range(alg.dim):
                for j in range(alg.dim):
                    assert alg.table[i][j] == tuple(-c for c in alg.table[j][i])


class TestBuildH:
    def test_abelian1_two_dimensional(self):
        ws = _Workspace(make_lie_algebra(1, []))
        assert build_h(ws.dspace) == (Matrix.from_rows([[1]]),)
        h = reference.h_algebra(ws)
        assert h.dim == 2
        # [(D,0),(0,L)] = (0, D(L)); here both generators are the scalar 1
        assert h.table[0][1] == (F(0), F(1))

    def test_der_embedding_is_subalgebra(self, sl2):
        ws = _Workspace(sl2)
        der, h = ws.der, reference.h_algebra(ws)
        m = der.dim
        for i in range(m):
            for j in range(m):
                assert not any(h.table[i][j][m:])
                assert h.table[i][j][:m] == der.as_lie_algebra.table[i][j]

    def test_cocycle_embedding_is_subalgebra(self, sl2):
        ws = _Workspace(sl2)
        space, h = ws.dspace, reference.h_algebra(ws)
        m, p = ws.der.dim, space.dim
        for i in range(p):
            for j in range(p):
                assert not any(h.table[m + i][m + j][:m])
                assert (h.table[m + i][m + j][m:]
                        == space.as_lie_algebra.table[i][j])


class TestDCompleteness:
    def test_abelian1(self):
        ev = d_evidence(make_lie_algebra(1, []))
        assert ev.d_complete
        assert (ev.d_center_dim, ev.d_space_dim, ev.inner_d_dim) == (0, 1, 1)

    def test_sl2(self, sl2):
        ev = d_evidence(sl2)
        assert ev.d_complete and ev.d_space_dim == ev.inner_d_dim == 3

    def test_heisenberg3_pinned(self):
        # regression values frozen from an independent brute-force solve
        ev = d_evidence(lookup("heisenberg3").algebra)
        assert (ev.d_center_dim, ev.d_space_dim, ev.inner_d_dim) == (0, 3, 3)
        assert ev.d_complete

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_given_parts_give_the_same_evidence(self, name):
        # the verdict from the cocycle space and d-center, against the
        # dimensions the sympy oracle computes on its own
        _, p, inner, cd = oracle.cocycle_dims(oracle.lie_table(lookup(name)))
        assert d_evidence(lookup(name).algebra) == DCompletenessEvidence(
            cd == 0 and inner == p, cd, p, inner)


# The table of the cocycle space and H's action are built from matrices made
# once per basis element; the per-pair d_bracket and der_action are the
# reference.

@functools.lru_cache(maxsize=None)
def _spaces(case):
    g = case_algebra(case)
    der = derivation_algebra(g)
    return g, der, d_derivations(der)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_d_algebra_matches_per_pair_d_bracket(case):
    _, der, space = _spaces(case)
    b = space.matrices
    expected = space.lie_algebra(lambda i, j: d_bracket(der, b[i], b[j]), "L")
    assert space.as_lie_algebra == expected
    assert space.as_lie_algebra.table == expected.table


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_h_matches_per_pair_der_action(case):
    ws = _Workspace(case_algebra(case))
    der, space = ws.der, ws.dspace
    # coordinates_of raises unless every D(L) lies in the cocycle space
    expected = reference.semidirect(
        der.as_lie_algebra, space.as_lie_algebra,
        lambda i, j: space.coordinates_of(
            der_action(der, der.matrices[i], space.matrices[j])))
    h = reference.h_algebra(ws)
    assert h == expected and h.table == expected.table


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_der_acts_on_cocycles_by_inner_cocycles(case):
    # D(L) = -L_y with y = L(D), the identity build_h reads H's action from
    _, der, space = _spaces(case)
    for i, d in enumerate(der.matrices):
        for l in space.matrices:
            assert der_action(der, d, l) == inner_d_derivation(
                der, reference.column(l, i)).scale(-1)


def test_theorem1_builds_no_adjoint_of_der():
    # H's action is read off G, so no m x m adjoint matrix of Der(G) is made
    for name in ("heisenberg5", "abelian4", "sl2_sum_sl2"):
        ws = _Workspace(algebra(name))
        check_theorem1(ws)
        assert "adjoint" not in vars(ws.der.as_lie_algebra), name


# is_complete and is_d_complete count the inner maps instead of spanning
# them: x -> ad(x) has kernel the center and x -> L_x the d-center, so each
# inner space has dimension dim G minus that kernel's. The spans of the
# coboundaries are the reference, on G and on C(G).

@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_inner_dimensions_are_dim_minus_the_inner_maps_kernel(case):
    g = case_algebra(case)
    der = derivation_algebra(g)
    cg = build_full_graph(der)
    for alg, d in ((g, der), (cg, derivation_algebra(cg))):
        assert inner_derivations(alg).dim == alg.dim - center(alg).dim
        assert reference.coboundaries(d.matrices).dim == alg.dim - d_center(d).dim

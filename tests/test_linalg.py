from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import reference
from liegraph.linalg import (Matrix, Subspace, _dense, as_scalar, nullspace,
                             rank, solve, sparse_nullspace, sparse_rref)
from reference import rref

F = Fraction


def mat(rows):
    return Matrix.from_rows([[F(x) for x in r] for r in rows])


class TestRref:
    def test_identity_is_fixed(self):
        m = mat([[1, 0], [0, 1]])
        r, pivots = rref(m)
        assert r == m
        assert pivots == [0, 1]

    def test_proportional_rows_collapse(self):
        r, pivots = rref(mat([[2, 4], [1, 2]]))
        assert r == mat([[1, 2], [0, 0]])
        assert pivots == [0]

    def test_row_swap(self):
        r, pivots = rref(mat([[0, 1], [1, 0]]))
        assert r == mat([[1, 0], [0, 1]])
        assert pivots == [0, 1]

    def test_pivots_strictly_increasing(self):
        _, pivots = rref(mat([[0, 1, 3], [1, 2, 0], [1, 3, 3]]))
        assert pivots == sorted(set(pivots))


class TestNullspace:
    def test_zero_matrix_full_kernel(self):
        ns = nullspace(Matrix.zero(2, 2))
        assert ns == Subspace.from_rows(2, [[1, 0], [0, 1]])

    def test_identity_trivial_kernel(self):
        assert nullspace(mat([[1, 0], [0, 1]])).dim == 0

    def test_single_equation(self):
        # x + 2y = 0 by hand: kernel spanned by (-2, 1), canonically (1, -1/2)
        ns = nullspace(mat([[1, 2]]))
        assert ns.dim == 1
        (v,) = reference.dense_rows(map(dict, ns.rows), 2)
        assert v[0] + 2 * v[1] == 0 and any(v)


class TestSolve:
    def test_identity(self):
        eye = mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert solve(eye, [1, 2, 3]) == (F(1), F(2), F(3))

    def test_free_variable_zeroed(self):
        assert solve(mat([[1, 1]]), [2]) == (F(2), F(0))

    def test_inconsistent_returns_none(self):
        assert solve(mat([[1], [1]]), [1, 2]) is None

    def test_rhs_length_checked(self):
        with pytest.raises(ValueError):
            solve(mat([[1, 0], [0, 1]]), [1, 2, 3])


class TestSubspaceOps:
    def test_same_space(self):
        a = Subspace.from_rows(2, [[1, 1]])
        assert a == Subspace.from_rows(2, [[2, 2]]) and reference.contains(a, a)

    def test_complementary_lines(self):
        a = Subspace.from_rows(2, [[1, 0]])
        b = Subspace.from_rows(2, [[0, 1]])
        assert a != b
        assert not reference.contains(a, b) and not reference.contains(b, a)

    def test_containment_of_line_in_plane(self):
        a = Subspace.from_rows(2, [[1, 1], [1, -1]])
        b = Subspace.from_rows(2, [[1, 0]])
        assert reference.contains(a, b) and not reference.contains(b, a)

    def test_ambient_mismatch_raises(self):
        with pytest.raises(ValueError):
            Subspace.from_rows(2, [[1, 0, 0]])


entries = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, max_dim=8):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    e = draw(st.lists(entries, min_size=r * c, max_size=r * c))
    return Matrix(r, c, e)


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rref_idempotent(m):
    r, _ = rref(m)
    assert rref(r)[0] == r


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_rank_nullity(m):
    assert rank(m) + nullspace(m).dim == m.cols


@given(matrices())
@settings(max_examples=120, deadline=None)
def test_nullspace_vectors_are_killed(m):
    for v in reference.dense_rows(map(dict, nullspace(m).rows), m.cols):
        assert not any(reference.apply(m, v))


@given(matrices(max_dim=5), matrices(max_dim=5))
@settings(max_examples=80, deadline=None)
def test_equality_agrees_with_mutual_containment(m1, m2):
    d = min(m1.cols, m2.cols)
    a = Subspace.from_rows(d, [m1.row(r)[:d] for r in range(m1.rows)])
    b = Subspace.from_rows(d, [m2.row(r)[:d] for r in range(m2.rows)])
    assert (a == b) == (reference.contains(a, b) and reference.contains(b, a))


# Differential checks of the fast paths against their references: pivot
# coordinates against solve, the sparse product and commutator against the
# triple loop.

sparse_entries = st.one_of(st.just(F(0)), st.just(F(0)), entries)


@st.composite
def spans_and_vectors(draw):
    """A drawn span with mostly-zero rows, and vectors to read in it: one
    inside it (some of its coordinates zero, so it is zero at those
    pivots), one drawn anywhere, and, when the span is not the whole space,
    the inside one plus a unit vector at a non-pivot column, which is off
    the span."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(0, 5))
    rows = [draw(st.lists(sparse_entries, min_size=d, max_size=d)) for _ in range(k)]
    span = Subspace.from_rows(d, rows) if rows else Subspace(d, ())
    coeffs = draw(st.lists(sparse_entries, min_size=span.dim, max_size=span.dim))
    basis = reference.dense_rows(map(dict, span.rows), d)
    inside = [sum((c * b[t] for c, b in zip(coeffs, basis)), F(0)) for t in range(d)]
    anywhere = draw(st.lists(sparse_entries, min_size=d, max_size=d))
    free = [c for c in range(d) if c not in span.pivot_row]
    off = None
    if free:
        off = list(inside)
        off[draw(st.sampled_from(free))] += draw(entries.filter(bool))
    return span, inside, anywhere, off


def _dense_coordinates(span, v):
    terms = span._coordinates({c: a for c, a in enumerate(v) if a})
    return None if terms is None else _dense(terms, span.dim)


@given(spans_and_vectors())
@settings(max_examples=150, deadline=None)
def test_coordinates_agree_with_solve(case):
    span, inside, anywhere, off = case
    basis_columns = Matrix._trusted(span.dim, span.ambient_dim, span.rows).transpose()
    coords = _dense_coordinates(span, inside)
    assert coords is not None
    assert coords == solve(basis_columns, inside)
    # anywhere may or may not lie in the span; both sides give None when not
    assert _dense_coordinates(span, anywhere) == solve(basis_columns, anywhere)
    assert ((_dense_coordinates(span, anywhere) is not None)
            == (solve(basis_columns, anywhere) is not None))
    assert off is None or _dense_coordinates(span, off) is None
    assert off is None or solve(basis_columns, off) is None


@given(spans_and_vectors())
@settings(max_examples=150, deadline=None)
def test_coordinate_terms_are_the_nonzeros_of_solve(case):
    # the sparse reader, on {column: entry} nonzeros, gives exactly the
    # nonzero (row, coordinate) terms of the dense solution, in row order
    span, inside, anywhere, off = case
    basis_columns = Matrix._trusted(span.dim, span.ambient_dim, span.rows).transpose()
    for v in (inside, anywhere, off):
        if v is None:
            continue
        x = solve(basis_columns, v)
        terms = span._coordinates({c: a for c, a in enumerate(v) if a})
        assert terms == (None if x is None
                         else tuple((i, a) for i, a in enumerate(x) if a))
        if terms is not None:
            assert span.combination(terms) == {c: a for c, a in enumerate(v) if a}


def test_coordinates_outside_span_is_none():
    line = Subspace.from_rows(3, [[1, 2, 3]])
    assert line._coordinates({0: 2, 1: 4, 2: 6}) == ((0, 2),)
    assert line._coordinates({0: 1}) is None
    assert Subspace(2, ())._coordinates({}) == ()
    assert Subspace(2, ())._coordinates({1: 1}) is None


@st.composite
def matmul_pairs(draw):
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    a = Matrix(r, k, draw(st.lists(sparse_entries, min_size=r * k, max_size=r * k)))
    b = Matrix(k, c, draw(st.lists(sparse_entries, min_size=k * c, max_size=k * c)))
    return a, b


def _triple_loop(a, b):
    """The entries of a @ b, one sum over every index."""
    return [sum((a.row(i)[t] * b.row(t)[j] for t in range(a.cols)), F(0))
            for i in range(a.rows) for j in range(b.cols)]


@given(matmul_pairs())
@settings(max_examples=150, deadline=None)
def test_matmul_matches_triple_loop(pair):
    a, b = pair
    assert a @ b == Matrix(a.rows, b.cols, _triple_loop(a, b))


def test_matmul_shape_mismatch_raises():
    with pytest.raises(ValueError):
        Matrix.zero(2, 2) @ Matrix.zero(3, 3)


@st.composite
def square_pairs(draw):
    n = draw(st.integers(0, 6))
    a, b = (Matrix(n, n, draw(st.lists(sparse_entries, min_size=n * n,
                                       max_size=n * n)))
            for _ in range(2))
    return a, b


@given(square_pairs())
@settings(max_examples=200, deadline=None)
def test_commutator_matches_triple_loop(pair):
    a, b = pair
    expected = [x - y for x, y in zip(_triple_loop(a, b), _triple_loop(b, a))]
    assert a.commutator(b) == Matrix(a.rows, a.cols, expected)


def test_commutator_of_empty_and_one_by_one():
    assert Matrix(0, 0, []).commutator(Matrix(0, 0, [])) == Matrix(0, 0, [])
    assert mat([[3]]).commutator(mat([[F(-1, 2)]])) == mat([[0]])


@pytest.mark.parametrize("a,b", [
    (Matrix.zero(2, 2), Matrix.zero(3, 3)),
    (Matrix.zero(2, 3), Matrix.zero(3, 2)),  # both products exist
    (Matrix.zero(2, 3), Matrix.zero(2, 3)),
])
def test_commutator_shape_mismatch_raises(a, b):
    with pytest.raises(ValueError):
        a.commutator(b)
    with pytest.raises(ValueError):
        a.commutator(b, 1)


@st.composite
def square_pairs_from_a_row(draw):
    n = draw(st.integers(0, 6))
    a, b = (Matrix(n, n, draw(st.lists(mixed_entries, min_size=n * n,
                                       max_size=n * n)))
            for _ in range(2))
    return a, b, draw(st.integers(0, n))


@given(square_pairs_from_a_row())
@settings(max_examples=200, deadline=None)
def test_commutator_from_a_row_is_those_rows_of_the_full_product(case):
    # rows first... of a @ b - b @ a, on int and Fraction entries
    a, b, first = case
    n = a.rows
    got = a.commutator(b, first)
    assert got.shape == (n - first, n)
    full = a @ b - b @ a
    assert got == Matrix._trusted(n - first, n, full.nonzeros[first:])
    assert [got.row(r) for r in range(n - first)] == [full.row(r)
                                                      for r in range(first, n)]


@given(matmul_pairs())
@settings(max_examples=100, deadline=None)
def test_nonzero_view_changes_neither_equality_nor_hash(pair):
    a, _ = pair
    twin = Matrix(a.rows, a.cols, a.flatten())
    before, rows = hash(a), [a.row(r) for r in range(a.rows)]
    assert a.nonzeros == tuple(tuple((c, x) for c, x in enumerate(r) if x)
                               for r in rows)
    assert hash(a) == before == hash(twin) and a == twin and twin == a


# The sparse kernel against the dense Gauss-Jordan reference: the same
# canonical rows and pivots on random sparse systems, including no rows,
# all-zero rows, repeated rows and a single column.

@st.composite
def sparse_systems(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(sparse_entries, min_size=ncols, max_size=ncols),
                         max_size=9))
    if rows and draw(st.booleans()):
        rows += [list(rows[draw(st.integers(0, len(rows) - 1))])]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [F(0)] * ncols)
    return ncols, rows


def _sparse(rows):
    return [{c: x for c, x in enumerate(r) if x} for r in rows]


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_sparse_rref_matches_dense_reference(system):
    ncols, rows = system
    sparse_in = _sparse(rows)
    before = [dict(r) for r in sparse_in]
    reduced, pivots = sparse_rref(sparse_in)
    assert sparse_in == before  # the input rows are read, not changed
    ref_rows, ref_pivots = reference.rref_rows([list(r) for r in rows])
    assert pivots == ref_pivots
    assert reference.dense_rows(reduced, ncols) == ref_rows
    assert all(min(r) == p and r[p] == 1 for r, p in zip(reduced, pivots))


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_sparse_nullspace_matches_dense_reference(system):
    ncols, rows = system
    expected = reference.nullspace_basis(rows, ncols)
    kernels = [sparse_nullspace(ncols, _sparse(rows))]
    if rows:
        kernels.append(nullspace(Matrix.from_rows(rows)))
    for kernel in kernels:
        assert reference.dense_rows(map(dict, kernel.rows), ncols) == expected


@given(sparse_systems())
@settings(max_examples=200, deadline=None)
def test_subspace_rows_are_the_sorted_nonzeros_of_the_reference_rref(system):
    ncols, rows = system
    span = Subspace.from_rows(ncols, rows)
    ref_rows, _ = reference.rref_rows([list(r) for r in rows])
    assert span.rows == tuple(tuple((c, x) for c, x in enumerate(r) if x)
                              for r in ref_rows)
    dense = reference.dense_rows(map(dict, span.rows), ncols)
    assert Subspace.from_rows(ncols, dense) == span


def test_int_and_integral_fraction_entries_give_one_span():
    ints = [[2, 4, 0], [1, 0, -3]]
    dense = Subspace.from_rows(3, ints)
    assert dense == Subspace.from_rows(3, [[F(x) for x in r] for r in ints])
    # a row already 1 at its pivot is not divided, so the kernel keeps its
    # entries as given: these rows hold Fractions where the others hold ints
    as_int = Subspace._span(3, [{0: 1, 1: 2}, {2: -3}])
    as_fraction = Subspace._span(3, [{0: F(1), 1: F(2)}, {2: F(-3)}])
    assert any(type(x) is F for row in as_fraction.rows for _, x in row)
    assert all(type(x) is int for row in as_int.rows for _, x in row)
    assert as_int == as_fraction and hash(as_int) == hash(as_fraction)


def test_sparse_kernel_edge_cases():
    assert sparse_rref([]) == ([], [])
    assert sparse_rref([{}, {0: F(0)}]) == ([], [])
    assert sparse_rref([{0: F(3)}, {0: F(-1, 2)}]) == ([{0: F(1)}], [0])
    assert sparse_nullspace(1, []) == Subspace.from_rows(1, [[1]])
    assert sparse_nullspace(1, [{0: F(2)}]) == Subspace(1, ())
    assert sparse_nullspace(3, []) == Subspace.from_rows(
        3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


# The kernel keeps integral scalars as ints and divides through Fraction:
# against the all-Fraction kernel it replaced, on rows that mix ints,
# integral Fractions and p/q, the same RREF with every entry an int or a
# Fraction (never a bool or a float).

def _exact(x) -> bool:
    return type(x) is int or type(x) is F


mixed_entries = st.one_of(st.just(0), st.just(0), st.integers(-6, 6),
                          st.builds(F, st.integers(-6, 6), st.integers(1, 4)))


@st.composite
def mixed_sparse_systems(draw):
    ncols = draw(st.integers(1, 8))
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), mixed_entries,
                                         max_size=ncols), max_size=10))
    return ncols, rows


@given(mixed_sparse_systems())
@settings(max_examples=300, deadline=None)
def test_sparse_rref_on_ints_matches_the_fraction_kernel(system):
    ncols, rows = system
    reduced, pivots = sparse_rref(rows)
    ref_rows, ref_pivots = reference.sparse_rref_fractions(rows)
    assert pivots == ref_pivots and reduced == ref_rows
    assert all(_exact(x) for r in reduced for x in r.values())
    kernel = sparse_nullspace(ncols, rows)
    assert all(_exact(x) for row in kernel.rows for _, x in row)


def test_as_scalar_gives_an_int_when_integral():
    for x, want in ((3, 3), (True, 1), (F(4, 2), 2), ("-6/3", -2), ("5", 5)):
        got = as_scalar(x)
        assert type(got) is int and got == want
    for x in (F(1, 2), "3/4", "-1/3"):
        assert type(as_scalar(x)) is F
    for x in (0.5, 2.0, None):
        with pytest.raises(TypeError):
            as_scalar(x)
    assert all(type(x) is int for x in Matrix.from_rows([[F(2), True], ["4/2", 0]]).flatten())


# A Matrix is held as its nonzeros alone. Differential check of every
# operation against plain dense lists, on int and Fraction entries that
# include explicit 0 and Fraction(0): results equal, hash equal and are
# stored canonically, whether built by Matrix(...) or by an operation.

dense_entries = st.one_of(st.just(0), st.just(F(0)), st.integers(-3, 3),
                          st.builds(F, st.integers(-4, 4), st.integers(1, 3)))


def _dense_matrix(draw, r, c):
    return [draw(st.lists(dense_entries, min_size=c, max_size=c)) for _ in range(r)]


@st.composite
def dense_operands(draw):
    r, n, k = (draw(st.integers(0, 4)) for _ in range(3))
    a, b = _dense_matrix(draw, r, n), _dense_matrix(draw, r, n)
    s, t = _dense_matrix(draw, r, r), _dense_matrix(draw, r, r)
    return a, b, _dense_matrix(draw, n, k), s, t, (r, n, k)


def _built(rows, nrows, ncols):
    return Matrix(nrows, ncols, [x for r in rows for x in r])


def _mul(x, y, inner, ncols):
    """The dense product of the lists x and y, one sum per entry."""
    return [[sum((p[t] * y[t][j] for t in range(inner)), 0) for j in range(ncols)]
            for p in x]


def _same(m, rows, nrows, ncols):
    """m is the matrix of the dense rows: equal and hashed as one built by
    Matrix(...), with canonical nonzeros and the same dense views."""
    twin = _built(rows, nrows, ncols)
    assert m.shape == (nrows, ncols)
    assert m == twin and twin == m and hash(m) == hash(twin)
    assert m.nonzeros == tuple(tuple((c, x) for c, x in enumerate(r) if x)
                               for r in rows)
    assert m.flatten() == tuple(x for r in rows for x in r)


@given(dense_operands())
@settings(max_examples=200, deadline=None)
def test_matrix_operations_match_dense_lists(case):
    a, b, c, s, t, (r, n, k) = case
    A, B, C = _built(a, r, n), _built(b, r, n), _built(c, n, k)
    S, T = _built(s, r, r), _built(t, r, r)
    _same(A, a, r, n)
    assert [list(A.row(i)) for i in range(r)] == a
    _same(A.transpose(), [[x[j] for x in a] for j in range(n)], n, r)
    _same(A + B, [[x + y for x, y in zip(p, q)] for p, q in zip(a, b)], r, n)
    _same(A - B, [[x - y for x, y in zip(p, q)] for p, q in zip(a, b)], r, n)
    _same(A.scale(0), [[0] * n for _ in range(r)], r, n)
    _same(A.scale(F(-3, 2)), [[F(-3, 2) * x for x in p] for p in a], r, n)
    _same(A @ C, _mul(a, c, n, k), r, k)
    prod_st, prod_ts = _mul(s, t, r, r), _mul(t, s, r, r)
    _same(S.commutator(T),
          [[x - y for x, y in zip(p, q)] for p, q in zip(prod_st, prod_ts)], r, r)
    # the same matrix reached through operations equals the one built
    assert A.transpose().transpose() == A and A + Matrix.zero(r, n) == A
    assert A - A == Matrix.zero(r, n) == _built([[F(0)] * n] * r, r, n)
    eye = _built([[int(i == j) for j in range(r)] for i in range(r)], r, r)
    assert eye @ A == A == A.scale(1)
    assert (A == B) == (a == b) and (not any((A - B).nonzeros)) == (a == b)

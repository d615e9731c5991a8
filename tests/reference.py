"""Dense reference forms of the package's sparse fast paths.

The package reduces every linear system with one sparse Gauss-Jordan kernel
(``linalg.sparse_rref``) on ints and Fractions, builds each cocycle system
as sparse rows, checks a cocycle by walking the structure constants, and
holds structure constants as the nonzero terms of each bracket
(``LieAlgebra.pairs``). The dense forms below are the straightforward
versions of the same computations, on the dense n x n x n table; the
differential tests require the fast paths to give exactly what these
give. ``rref_rows`` is the kernel's one reference, which the tests run on
rows that mix ints, integral Fractions and p/q. ``rref`` is the sparse
kernel's RREF of a whole Matrix. ``h_algebra`` builds H's full table,
which the package never builds, from Der(G)'s table, the d-bracket table
and the action ``dtheory.build_h`` returns, and ``check_theorem1`` is the
theorem 1 check on every row of each map of C(G) and every basis pair of
H, where the package reads only the G rows of the m·p mixed pairs.
``w_dim`` solves for the bilinear maps that make up the defect
dim Der(C(G)) − dim H, in one system of its own, not the package's.
``sign_mutation`` wraps ``h_derivation`` to negate the G rows of each
generator, a fault that theorem 1 must catch. ``column``
and ``apply`` are the dense column and matrix-vector product that the
package's Matrix does not offer, ``dense`` builds a Matrix from row-major
dense entries, and ``coboundaries`` spans the coboundaries of the unit
vectors, each read off the dense columns of the action, against which the
package's inner maps are compared.
"""

from fractions import Fraction
from itertools import combinations, product

from liegraph import fullgraph
from liegraph.algebra import JacobiViolation, LieAlgebra, _flat
from liegraph.linalg import (Matrix, Subspace, _packed, as_vector, span,
                             sparse_nullspace, sparse_rref)

ZERO = Fraction(0)
ONE = Fraction(1)


def dense(rows, cols, entries):
    """The rows x cols Matrix of row-major dense entries, through
    Matrix.from_rows, the package's one dense way in; with no rows, the
    empty Matrix of width cols."""
    entries = list(entries)
    assert len(entries) == rows * cols, (rows, cols, len(entries))
    if not rows:
        return Matrix(cols, ())
    return Matrix.from_rows([entries[r * cols:(r + 1) * cols] for r in range(rows)])


def unit(n, j):
    """The j-th unit vector of Q^n."""
    return tuple(int(t == j) for t in range(n))


def column(m, j):
    """Column j of the Matrix m, dense."""
    return m.transpose().row(j)


def apply(m, v):
    """m v for the Matrix m and a dense vector v."""
    return tuple(sum(x * v[c] for c, x in row) for row in m.nonzeros)


def coboundaries(rho):
    """The span of the coboundaries of V's unit vectors: the coboundary of
    e_k maps e_i to -rho_i e_k, column k of rho_i negated, at (a, i)."""
    n, m = rho[0].rows, len(rho)
    return Subspace.from_rows(n * m, [
        [-column(rho[i], k)[a] for a in range(n) for i in range(m)]
        for k in range(n)])


def rref_rows(rows):
    """In-place Gauss-Jordan to unique RREF. Returns (rows, pivot columns)."""
    if not rows:
        return rows, []
    ncols = len(rows[0])
    # drop all-zero rows up front; typical inputs here are sparse systems
    rows = [r for r in rows if any(r)]
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = None
        for r in range(pr, len(rows)):
            if rows[r][pc]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[pr], rows[pivot_row] = rows[pivot_row], rows[pr]
        prow = rows[pr]
        inv = ONE / prow[pc]
        if inv != ONE:
            for c in range(pc, ncols):
                if prow[c]:
                    prow[c] *= inv
        nzc = [c for c in range(pc, ncols) if prow[c]]
        for r in range(len(rows)):
            if r == pr:
                continue
            f = rows[r][pc]
            if f:
                rr = rows[r]
                for c in nzc:
                    rr[c] -= f * prow[c]
        pivots.append(pc)
        pr += 1
        if pr == len(rows):
            break
    rows = [r for r in rows[:pr]]
    return rows, pivots


def rref(m):
    """The unique RREF of a Matrix (zero rows kept) and its pivot columns,
    by the package's sparse kernel."""
    rows, pivots = sparse_rref(dict(row) for row in m.nonzeros)
    rows += [{}] * (m.rows - len(rows))
    return Matrix(m.cols, _packed(rows)), pivots


def dense_rows(rows, ncols):
    """Sparse {column: entry} rows written out as dense lists of width ncols."""
    out = []
    for r in rows:
        v = [ZERO] * ncols
        for c, x in r.items():
            v[c] = x
        out.append(v)
    return out


def contains(a, b):
    """Whether the Subspace b lies in the Subspace a: b's rows added to a's
    span the same space."""
    return span(a.ambient_dim, map(dict, a.rows + b.rows)) == a


def nullspace_basis(rows, ncols):
    """Canonical (RREF) basis of the kernel of dense rows of width ncols."""
    reduced, pivots = rref_rows([list(r) for r in rows])
    vecs = []
    for fc in range(ncols):
        if fc in pivots:
            continue
        v = [ZERO] * ncols
        v[fc] = ONE
        for r, pc in enumerate(pivots):
            v[pc] = -reduced[r][fc]
        vecs.append(v)
    return rref_rows(vecs)[0]


def cocycle_rows(rho, algebra):
    """The dense cocycle system of algebra acting by rho: one row per basis
    pair i < j and coordinate k of phi([e_i, e_j]) = rho_i phi(e_j) -
    rho_j phi(e_i), over the entries phi[k][t] at k*m + t."""
    m, n, s = len(rho), rho[0].rows, algebra.table
    rows = []
    for i, j in combinations(range(m), 2):
        for k in range(n):
            row = [ZERO] * (n * m)
            for t, c in enumerate(s[i][j]):
                if c:
                    row[k * m + t] += c
            for a, c in enumerate(rho[i].row(k)):
                if c:
                    row[a * m + j] -= c
            for a, c in enumerate(rho[j].row(k)):
                if c:
                    row[a * m + i] += c
            rows.append(row)
    return rows


def is_cocycle(rho, algebra, phi):
    """phi([e_i, e_j]) = rho_i phi(e_j) - rho_j phi(e_i) for every i < j."""
    s = algebra.table
    for i, j in combinations(range(len(rho)), 2):
        rhs = tuple(a - b for a, b in zip(apply(rho[i], column(phi, j)),
                                          apply(rho[j], column(phi, i))))
        if apply(phi, s[i][j]) != rhs:
            return False
    return True


def bracket(table, x, y):
    """[x, y] summed over every entry of the dense table."""
    x, y = as_vector(x), as_vector(y)
    n = len(table)
    out = [ZERO] * n
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            s = xi * yj
            for k, ck in enumerate(table[i][j]):
                if ck:
                    out[k] += s * ck
    return tuple(out)


def ad(table, x):
    """Matrix of y -> [x, y], one dense bracket per unit vector."""
    n = len(table)
    units = [tuple(ONE if t == j else ZERO for t in range(n)) for j in range(n)]
    cols = [bracket(table, x, u) for u in units]
    return dense(n, n, [cols[c][r] for r in range(n) for c in range(n)])


def validate_jacobi(n, table):
    """Raise JacobiViolation on the first basis triple i < j < l whose
    cyclic sum, read off the dense table, is nonzero."""
    for i, j, l in combinations(range(n), 3):
        acc = [ZERO] * n
        for (a, b, c) in ((i, j, l), (j, l, i), (l, i, j)):
            for t, coeff in enumerate(table[b][c]):
                if coeff:
                    for k, ck in enumerate(table[a][t]):
                        acc[k] += coeff * ck
        if any(acc):
            raise JacobiViolation((i, j, l), tuple(acc))


def semidirect(k, v, action):
    """k ⋉ v from dense bracket vectors, each padded to dimension m + n,
    with no Jacobi scan: validate_jacobi on its table decides whether it
    is a Lie algebra."""
    m, n = k.dim, v.dim
    total = m + n
    table = [[(ZERO,) * total for _ in range(total)] for _ in range(total)]
    pad_k, pad_v = (ZERO,) * n, (ZERO,) * m
    brackets = [(i, j, k.table[i][j] + pad_k)
                for i, j in combinations(range(m), 2)]
    brackets += [(i, m + j, pad_v + as_vector(action(i, j)))
                 for i in range(m) for j in range(n)]
    brackets += [(m + i, m + j, pad_v + v.table[i][j])
                 for i, j in combinations(range(n), 2)]
    for i, j, vec in brackets:
        table[i][j], table[j][i] = vec, tuple(-c for c in vec)
    pairs = tuple(tuple(tuple((t, c) for t, c in enumerate(vec) if c)
                        for vec in row) for row in table)
    return LieAlgebra(k.basis_names + v.basis_names, pairs)


def h_algebra(ws):
    """H = Der(G) ⋉ Z¹ as a LieAlgebra on the concatenated bases: the
    padded semidirect product of Der(G)'s table and the d-bracket table by
    the workspace's action, [D_i, L_j] = row i of ws.action[j]."""
    return semidirect(ws.der.as_lie_algebra, ws.dspace.as_lie_algebra,
                      lambda i, j: ws.action[j].row(i))


def terms(v):
    """The nonzero coordinate terms (i, a) of a dense vector."""
    return tuple((i, a) for i, a in enumerate(v) if a)


def h_derivation(dspace, d_terms, l_terms):
    """The matrix of (D, L) on C(G), each column found by its own
    coordinates_of: (D_j, 0) -> ([D, D_j], L(D_j)), (0, e_j) -> D e_j + L(ad e_j)."""
    der = dspace.der
    g, m = der.parent, der.dim
    D, L = der.matrix_of(d_terms), dspace.matrix_of(l_terms)
    cols = [der.coordinates_of(D.commutator(der.matrices[j])) + column(L, j)
            for j in range(m)]
    for j in range(g.dim):
        corr = apply(L, der.coordinates_of(g.adjoint[j]))
        cols.append((ZERO,) * m + tuple(a + b for a, b in zip(column(D, j), corr)))
    return Matrix.from_rows(cols).transpose()


def negate_g_rows(mat, m):
    """mat, a map of C(G), with its G rows (from row m on) negated."""
    return Matrix.from_rows([[-x if r >= m else x for x in mat.row(r)]
                             for r in range(mat.rows)])


def sign_mutation(h_derivation):
    """h_derivation with the G rows of each generator's matrix negated: a
    sign error in H's action on G that theorem 1 must catch."""
    def mutated(dspace, d_terms, l_terms):
        return negate_g_rows(h_derivation(dspace, d_terms, l_terms),
                             dspace.der.dim)
    return mutated


def check_theorem1(ws):
    """Theorem1Evidence with the homomorphism compared on all (m+n)² entries
    of each commutator, for every basis pair of h_algebra(ws), and the image
    spanned in Q^((m+n)²). It calls fullgraph's h_derivation, so a patched
    one reaches it too."""
    dspace, h = ws.dspace, h_algebra(ws)
    m, p, size = ws.der.dim, dspace.dim, ws.cg.dim
    total = m + p
    units = [unit(total, i) for i in range(total)]
    gens = [fullgraph.h_derivation(dspace, terms(u[:m]), terms(u[m:]))
            for u in units]
    each_der = all(fullgraph.is_block_derivation(dspace, M) for M in gens)
    flat = [_flat(M) for M in gens]
    homomorphism = True
    for i, j in combinations(range(total), 2):
        acc = {}
        for k, c in h.pairs[i][j]:
            for t, x in flat[k].items():
                acc[t] = acc.get(t, 0) - c * x
        a, b = gens[i].nonzeros, gens[j].nonzeros
        for r in range(size):
            for k, x in a[r]:
                for c, y in b[k]:
                    acc[r * size + c] = acc.get(r * size + c, 0) + x * y
            for k, y in b[r]:
                for c, x in a[k]:
                    acc[r * size + c] = acc.get(r * size + c, 0) - y * x
        if any(acc.values()):
            homomorphism = False
            break
    dim, image = ws.der_cg_dim, span(size * size, flat)
    return fullgraph.Theorem1Evidence(each_der, homomorphism, image.dim == total,
                                      total, dim, each_der and image.dim == dim)


def _summed(terms):
    """The {unknown: coefficient} row of (unknown, coefficient) terms,
    repeated unknowns added."""
    row = {}
    for u, x in terms:
        row[u] = row.get(u, 0) + x
    return row


def w_dim(g, der):
    """dim W, W the bilinear maps β: G × G → Z(G) that vanish on [G, G] in
    each slot, are Der(G)-invariant, Dβ(x, y) = β(Dx, y) + β(x, Dy) for
    each basis derivation D, and whose skew part is an adjoint coboundary,
    β(x, y) − β(y, x) = E[x, y] − [Ex, y] − [x, Ey] for some E in gl(G).

    One system in the n³ + n² unknowns (β, E), read off the dense table:
    the e_c coordinate of β(e_a, e_b) at (a·n + b)·n + c and E[r][t], the
    e_r coordinate of E e_t, at n³ + r·n + t. Its solutions with β = 0 are
    the E in Der(G), so dim W = dim(solutions) − dim Der(G)."""
    n, s = g.dim, g.table
    beta = lambda a, b, c: (a * n + b) * n + c
    e = lambda r, t: n ** 3 + r * n + t
    every = range(n)
    # β(e_a, e_b) is central: [β(e_a, e_b), e_l] = 0, coordinate k
    rows = [[(beta(a, b, c), s[c][l][k]) for c in every]
            for a, b, l, k in product(every, repeat=4)]
    # β([e_i, e_j], e_t) = β(e_t, [e_i, e_j]) = 0, coordinate c
    for (i, j), t, c in product(combinations(every, 2), every, every):
        rows.append([(beta(u, t, c), s[i][j][u]) for u in every])
        rows.append([(beta(t, u, c), s[i][j][u]) for u in every])
    # D β(e_a, e_b) − β(D e_a, e_b) − β(e_a, D e_b) = 0, coordinate c
    for d in der.matrices:
        cols = d.transpose().nonzeros  # cols[a] holds the terms of D e_a
        for a, b, c in product(every, repeat=3):
            rows.append([(beta(a, b, t), x) for t, x in d.nonzeros[c]]
                        + [(beta(t, b, c), -x) for t, x in cols[a]]
                        + [(beta(a, t, c), -x) for t, x in cols[b]])
    # β(e_a, e_b) − β(e_b, e_a) − E[e_a, e_b] + [E e_a, e_b] + [e_a, E e_b] = 0
    for (a, b), c in product(combinations(every, 2), every):
        rows.append([(beta(a, b, c), 1), (beta(b, a, c), -1)]
                    + [(e(c, t), -s[a][b][t]) for t in every]
                    + [(e(t, a), s[t][b][c]) for t in every]
                    + [(e(t, b), s[a][t][c]) for t in every])
    return (sparse_nullspace(n ** 3 + n * n, (_summed(r) for r in rows)).dim
            - der.dim)

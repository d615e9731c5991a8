"""Dense reference forms of the package's sparse fast paths.

The package reduces every linear system with one sparse Gauss-Jordan kernel
(``linalg.sparse_rref``) on ints and Fractions, builds each cocycle system
as sparse rows, checks a cocycle by walking the structure constants, and
holds structure constants as the nonzero terms of each bracket
(``LieAlgebra.pairs``). The dense forms below are the straightforward
versions of the same computations, on the dense n x n x n table, and
``sparse_rref_fractions`` is the sparse kernel with every scalar a
Fraction; the differential tests require the fast paths to give exactly
what these give. ``rref`` is the sparse kernel's RREF of a whole Matrix,
``build_parser`` the argparse command line that the CLI's own parser
replaced, and ``check_theorem1`` the theorem 1 check on every row of each
map of C(G), where the package reads only the G rows. ``column`` and
``apply`` are the dense column and matrix-vector product that the package's
Matrix does not offer, and ``coboundaries`` spans the coboundaries one
unit vector at a time.
"""

import argparse
from fractions import Fraction
from itertools import combinations

from liegraph import fullgraph
from liegraph.algebra import JacobiViolation, LieAlgebra, _flat, coboundary
from liegraph.linalg import Matrix, Subspace, _packed, as_vector, sparse_rref

ZERO = Fraction(0)
ONE = Fraction(1)


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
    """The span of the coboundaries of V's unit vectors."""
    n = rho[0].rows
    return Subspace._span(n * len(rho), [
        _flat(coboundary(rho, unit(n, k))) for k in range(n)])


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
    return Matrix._trusted(m.rows, m.cols, _packed(rows)), pivots


def sparse_rref_fractions(rows):
    """The sparse Gauss-Jordan kernel with every scalar a Fraction: the RREF
    rows of {column: entry} rows, in pivot order, and their pivot columns.

    Each incoming row is cleared at the existing pivot columns; what is
    left, if nonzero, is scaled to 1 at its smallest column, which becomes
    a new pivot and is cleared from the other pivot rows."""
    def subtract(row, f, other):
        for k, v in other.items():
            x = row.get(k, ZERO) - f * v
            if x:
                row[k] = x
            else:
                del row[k]

    piv = {}
    for src in rows:
        r = {c: Fraction(x) for c, x in src.items() if x}
        for c in [c for c in r if c in piv]:
            subtract(r, r[c], piv[c])
        if not r:
            continue
        p = min(r)
        lead = r[p]
        if lead != ONE:
            r = {k: x / lead for k, x in r.items()}
        for row in piv.values():
            if p in row:
                subtract(row, row[p], r)
        piv[p] = r
    pivots = sorted(piv)
    return [piv[p] for p in pivots], pivots


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
    return Subspace._span(a.ambient_dim, map(dict, a.rows + b.rows)) == a


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
    return Matrix(n, n, [cols[c][r] for r in range(n) for c in range(n)])


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
    return LieAlgebra(total, k.basis_names + v.basis_names, pairs)


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


def check_theorem1(ws):
    """Theorem1Evidence with the homomorphism compared on all (m+n)² entries
    of each commutator and the image spanned in Q^((m+n)²). It calls
    fullgraph's h_derivation, so a patched one reaches it too."""
    dspace, h = ws.dspace, ws.h
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
    dim, image = ws.der_cg_dim, Subspace._span(size * size, flat)
    return fullgraph.Theorem1Evidence(each_der, homomorphism, image.dim == total,
                                      total, dim, each_der and image.dim == dim)


def build_parser():
    """The argparse form of the command line, without prefix abbreviations
    (--fi for --file), which the CLI's parser does not take."""
    from liegraph.cli import _ALGEBRA_COMMANDS, _cmd_corpus_verify

    parser = argparse.ArgumentParser(
        prog="liegraph", allow_abbrev=False,
        description="Exact verification of holomorph constructions on "
                    "finite-dimensional Lie algebras over Q.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text) in _ALGEBRA_COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        p.add_argument("algebra", nargs="?",
                       help="catalog algebra name (see corpus-verify for the list)")
        p.add_argument("--file", help="structure-constant JSON file")
        p.set_defaults(func=func)
    sub.choices["verify"].add_argument(
        "--theorem", choices=["1", "2", "lemma", "all"], default="all")
    p = sub.add_parser("corpus-verify", allow_abbrev=False,
                       help="run all checks on every catalog entry")
    p.set_defaults(func=_cmd_corpus_verify)
    return parser

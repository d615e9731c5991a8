"""The algebras the differential tests run on: the catalog entries (and
the dense forms they must parse to), the six algebras of the benchmark's
``bench/fixtures.py`` at seed 1, seeded random 2-step nilpotent algebras,
the Heisenberg family, the complete families sl_n and b(sl_n) in the
matrix-unit basis, whose answers are known at every size, and seeded
central extensions, which reach every nilpotent algebra."""

import functools
import math
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from liegraph.algebra import LieAlgebra, make_lie_algebra
from liegraph.catalog import catalog, lookup
from liegraph.linalg import sparse_nullspace

# bench/ on the path, so that its fixtures are loaded once, here, under the
# name bench/run.py imports them by
BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))
import fixtures as FIXTURES  # noqa: E402

_SL2_BRACKETS = [
    (0, 1, [0, 2, 0]),    # [h, e] = 2e
    (0, 2, [0, 0, -2]),   # [h, f] = -2f
    (1, 2, [1, 0, 0]),    # [e, f] = h
]
# name -> make_lie_algebra's (dim, dense (i, j, [e_i, e_j]) brackets, basis
# names): the algebra each catalog document must parse to
CATALOG_DENSE = {
    "abelian1": (1, [], None),
    "abelian2": (2, [], None),
    "abelian3": (3, [], None),
    "affine2": (2, [(0, 1, [0, 1])], None),
    "heisenberg3": (3, [(0, 1, [0, 0, 1])], ("x", "y", "z")),
    "sl2": (3, _SL2_BRACKETS, ("h", "e", "f")),
    "sl2_plus_abelian1": (4, [(i, j, vec + [0]) for i, j, vec in _SL2_BRACKETS],
                          ("h", "e", "f", "u")),
}
CATALOG_NAMES = [e.name for e in catalog()]
NAMES = CATALOG_NAMES + sorted(FIXTURES.SPECS)


@functools.lru_cache(maxsize=None)
def algebra(name: str):
    return (FIXTURES.build(name, 1) if name in FIXTURES.SPECS
            else lookup(name).algebra)


def two_step_nilpotent(seed: int, n: int) -> LieAlgebra:
    """An n-dim algebra V + W, n >= 2, with [V, V] in W and W central: the
    bracket on V is a seeded random integer alternating map V x V -> W.
    dim V is drawn from 1 .. n - 1, and the map may be zero, so some draws
    are abelian. Jacobi holds because every double bracket is 0."""
    rng = random.Random(f"two-step:{seed}:{n}")
    v = rng.randint(1, n - 1)
    brackets = [(i, j, [0] * v + [rng.randint(-2, 2) for _ in range(n - v)])
                for i, j in combinations(range(v), 2)]
    return make_lie_algebra(n, brackets)


def heisenberg(k: int) -> LieAlgebra:
    """h_{2k+1}: [x_i, y_i] = z for i = 1..k, basis x1, y1, ..., xk, yk, z."""
    n = 2 * k + 1
    z = [1 if t == n - 1 else 0 for t in range(n)]
    return make_lie_algebra(n, [(2 * i, 2 * i + 1, z) for i in range(k)])


def direct_sum(g1: LieAlgebra, g2: LieAlgebra) -> LieAlgebra:
    """G1 ⊕ G2 on G1's basis followed by G2's: each factor keeps its
    brackets, and the two commute."""
    m, n = g1.dim, g2.dim
    brackets = [(i, j, g1.table[i][j] + (0,) * n)
                for i, j in combinations(range(m), 2)]
    brackets += [(m + i, m + j, (0,) * m + g2.table[i][j])
                 for i, j in combinations(range(n), 2)]
    return make_lie_algebra(m + n, brackets)


def _matrix_units(n: int, upper_only: bool) -> LieAlgebra:
    """The span of H_i = E_ii − E_{i+1,i+1} (i < n − 1) and then the E_ij,
    i ≠ j (i < j only, if upper_only), in row-major order, under the
    commutator [E_ij, E_kl] = δ_jk E_il − δ_li E_kj. A traceless diagonal
    diag(d) has H-coordinates the partial sums d_0 + ... + d_i."""
    units = [(i, j) for i in range(n) for j in range(n)
             if i != j and (i < j or not upper_only)]
    basis = [{(i, i): 1, (i + 1, i + 1): -1} for i in range(n - 1)]
    basis += [{ij: 1} for ij in units]
    index = {ij: n - 1 + t for t, ij in enumerate(units)}
    dim = len(basis)

    def coordinates(mat):
        v, partial = [0] * dim, 0
        for i in range(n - 1):
            partial += mat.get((i, i), 0)
            v[i] = partial
        for (i, j), c in mat.items():
            if i != j:
                v[index[i, j]] += c
        return v

    def commutator(x, y):
        out = {}
        for (i, j), a in x.items():
            for (k, l), b in y.items():
                if j == k:
                    out[i, l] = out.get((i, l), 0) + a * b
                if l == i:
                    out[k, j] = out.get((k, j), 0) - a * b
        return out

    return make_lie_algebra(dim, [(a, b, coordinates(commutator(basis[a], basis[b])))
                                  for a, b in combinations(range(dim), 2)])


def special_linear(n: int) -> LieAlgebra:
    """sl_n, n >= 2, in the matrix-unit basis: H_1 .. H_{n−1}, then the E_ij,
    i ≠ j. It is complete (Whitehead's lemma: Z = 0 and Der = ad)."""
    return _matrix_units(n, upper_only=False)


def borel(n: int) -> LieAlgebra:
    """b(sl_n), n >= 2, the upper triangular traceless matrices: H_1 ..
    H_{n−1}, then the E_ij, i < j. It is complete, a classical result for
    Borel subalgebras (Meng Daoji, Comm. Algebra 22, 1994)."""
    return _matrix_units(n, upper_only=True)


def central_extension(g: LieAlgebra, seed: int) -> LieAlgebra:
    """G ⊕ Qz, z central and last, with [x, y]' = [x, y] + ω(x, y)z for a
    seeded nonzero integer 2-cocycle ω of G with values in Q. Z²(G, Q) is
    the kernel of ω([x,y],z) + ω([y,z],x) + ω([z,x],y) = 0, one row per
    basis triple, in the C(n, 2) unknowns ω(e_a, e_b), a < b. ω sums its
    canonical basis with coefficients drawn from ±1, ±2, so it is not 0,
    and is then scaled to integers. Jacobi holds by the cocycle rule, and
    make_lie_algebra scans it again. Every nilpotent algebra is reached
    from an abelian one by such steps, since each has a central element to
    divide out (Skjelbred and Sund, C. R. Acad. Sci. Paris 286, 1978)."""
    n = g.dim
    pairs = list(combinations(range(n), 2))
    index = {ab: u for u, ab in enumerate(pairs)}

    def rows():
        for i, j, k in combinations(range(n), 3):
            row = {}
            # ω([a, b], c) = Σ_t c_ab^t ω(e_t, e_c), and ω(e_c, e_t) = −ω(e_t, e_c)
            for a, b, c in ((i, j, k), (j, k, i), (k, i, j)):
                for t, x in g.pairs[a][b]:
                    if t != c:
                        u = index[min(t, c), max(t, c)]
                        row[u] = row.get(u, 0) + (x if t < c else -x)
            if row := {u: x for u, x in row.items() if x}:
                yield row

    rng = random.Random(f"central-extension:{seed}:{n}")
    omega = [Fraction(0)] * len(pairs)
    for basis_row in sparse_nullspace(len(pairs), rows()).rows:
        c = rng.choice((-2, -1, 1, 2))
        for u, x in basis_row:
            omega[u] += c * x
    scale = math.lcm(*(x.denominator for x in omega))
    brackets = []
    for (i, j), x in zip(pairs, omega):
        vec = [0] * (n + 1)
        for t, c in g.pairs[i][j]:
            vec[t] = c
        vec[n] = int(x * scale)
        brackets.append((i, j, vec))
    return make_lie_algebra(n + 1, brackets)


# NAMES, then two-step nilpotent draws (seed, n) of dimension 3 to 5
CASES = NAMES + [(seed, n) for seed in range(6) for n in (3, 4, 5)]


def case_id(case) -> str:
    return case if isinstance(case, str) else "two_step_{}_{}".format(*case)


def case_algebra(case) -> LieAlgebra:
    """The algebra of one of CASES."""
    return algebra(case) if isinstance(case, str) else two_step_nilpotent(*case)

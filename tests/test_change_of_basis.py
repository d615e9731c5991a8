"""Change of basis: rewriting G's structure constants in another basis
changes no verdict and no dimension.

Let P be an invertible integer matrix and f_a = sum_i P[i][a] e_i, so G',
the algebra of the constants in the basis f, is isomorphic to G by
phi: x -> P^-1 x on coordinates. phi carries the center and the derived
subalgebra of G onto those of G'. D -> phi D phi^-1 is a Lie isomorphism
Der(G) -> Der(G') that takes ad(x) to ad(phi x), so it carries the inner
derivations onto the inner ones. L -> phi L psi^-1, with psi that
isomorphism, carries the cocycles of Der(G) on G onto those of Der(G') on
G', the inner ones onto the inner ones and the d-center onto the d-center.
Then (D, x) -> (psi D, phi x) is an isomorphism C(G) -> C(G') and
(D, L) -> (psi D, phi L psi^-1) one H -> H'. Every map of theorem 1 is
written in the brackets alone, so h' is h conjugated by these isomorphisms,
and Der(C(G')) is Der(C(G)) conjugated likewise. Hence every dimension
that verify and info report is equal for G and G', and so is each verdict:
h(H) lies in Der(C(G)) (which the generators decide, by linearity), h is a
homomorphism (decided on basis pairs, by bilinearity), h is injective,
h(H) = Der(C(G)), Z(C(G)) = 0 + d-center, completeness of C(G) and
d-completeness of G. The exit code of verify is a function of the
verdicts. A failing draw is a bug or a finding to record, never a reason
to loosen the test.
"""

import functools
import json
import os
import tempfile
from fractions import Fraction
from itertools import combinations

import sympy as sp
from hypothesis import assume, given, settings, strategies as st

from algebras import CASES, case_algebra, case_id
from child import main_output
from liegraph.algebra import LieAlgebra, make_lie_algebra
from liegraph.catalog import serialize_algebra
from liegraph.fullgraph import verify

SMALL = [c for c in CASES if case_algebra(c).dim <= 6]
INFO_DIMS = ("center_dim", "derived_subalgebra_dim", "der_dim",
             "inner_der_dim", "d_space_dim", "inner_d_dim", "d_center_dim")


def in_basis(g: LieAlgebra, p) -> LieAlgebra:
    """G's structure constants in the basis of P's columns, exactly."""
    n = g.dim
    inv = sp.Matrix(p).inv()
    inv = [[Fraction(int(x.p), int(x.q)) for x in inv.row(r)] for r in range(n)]
    brackets = []
    for a, b in combinations(range(n), 2):
        v = [0] * n  # [f_a, f_b] in the basis e
        for i in range(n):
            for j in range(n):
                for k, c in g.pairs[i][j]:
                    v[k] += p[i][a] * p[j][b] * c
        brackets.append((a, b, [sum(inv[r][k] * v[k] for k in range(n))
                                for r in range(n)]))
    return make_lie_algebra(n, brackets)


def cli_results(g: LieAlgebra):
    """The seven info dimensions and the exit code of verify on a file of g."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(serialize_algebra(g))
        code, out = main_output(["--json", "info", "--file", path])
        assert code == 0
        info = json.loads(out)
        code = main_output(["verify", "--file", path])[0]
    return {k: info[k] for k in INFO_DIMS}, code


@functools.lru_cache(maxsize=None)
def original(case):
    g = case_algebra(case)
    return verify(g, "G"), cli_results(g)


@given(st.sampled_from(SMALL), st.data())
@settings(max_examples=25, deadline=None)
def test_change_of_basis_keeps_every_verdict_and_dimension(case, data):
    g = case_algebra(case)
    n = g.dim
    # a third of the entries 0: a dense P makes every structure constant a
    # fraction, and a 5-dim check then takes seconds
    entry = st.sampled_from([0, 0, 1, -1, 2, -2])
    p = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                           min_size=n, max_size=n), label="P")
    assume(sp.Matrix(p).det() != 0)
    h = in_basis(g, p)
    report, cli = original(case)
    assert verify(h, "G") == report, case_id(case)
    assert cli_results(h) == cli, case_id(case)

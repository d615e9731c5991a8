"""No check writes out a dense basis vector of a span.

A ``Subspace`` holds the sparse RREF rows of its basis, and
``basis_vectors`` writes them out dense. ``verify`` needs that for no span:
the basis matrices of Der(G) in Q^(n²) and of the cocycle space in Q^(n·m)
are read off the rows of their spans, the d-center in Q^n is embedded in
C(G) by shifting its rows, and the spans on C(G), of dimension m + n, are
read as rows: the image of H in Q^((m+n)²) and the block space S in
Q^((m+n)·n).
"""

import io

import pytest

from algebras import FIXTURES
from liegraph.cli import main
from liegraph.linalg import Subspace


@pytest.mark.parametrize("name,code", [("heisenberg5", 1), ("abelian4", 0)])
def test_verify_writes_out_no_span(name, code, tmp_path, monkeypatch):
    FIXTURES.write_inputs((name,), 1, tmp_path)
    widths = []
    dense = Subspace.basis_vectors

    def recording(self):
        widths.append(self.ambient_dim)
        return dense(self)

    monkeypatch.setattr(Subspace, "basis_vectors", recording)
    args = ["--json", "verify", "--theorem", "all", "--file",
            str(tmp_path / f"{name}.json")]
    assert main(args, out=io.StringIO()) == code
    assert widths == []

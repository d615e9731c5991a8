"""No CLI command builds the dense n x n x n structure-constant table,
writes a matrix or a span out dense, or reads a coordinate vector dense.

``LieAlgebra.table`` is a dense view for tests and oracles; the package
reads the sparse ``pairs``. Likewise ``Matrix.flatten`` and
``Subspace.basis_vectors`` are dense views of the nonzeros of a matrix and
of the rows of a span, and ``Subspace.coordinates``,
``MatrixSpan.coordinates`` and its ``coordinates_of`` aliases are dense
views of the coordinate terms that ``Subspace._coordinates`` and
``MatrixSpan.terms_of`` read. With the views made to raise, every command
must still run to its usual exit code.
"""

import io

import pytest

from algebras import FIXTURES
from liegraph.algebra import DerivationAlgebra, LieAlgebra, MatrixSpan
from liegraph.catalog import parse_algebra_file, serialize_algebra
from liegraph.cli import _table_lines, main
from liegraph.dtheory import DDerivationSpace
from liegraph.linalg import Matrix, Subspace


@pytest.fixture
def no_dense_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense structure-constant table was built")
    monkeypatch.setattr(LieAlgebra, "table", property(refuse))


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    FIXTURES.write_inputs(("heisenberg5", "filiform8", "abelian4"), 1, tmp_path)
    monkeypatch.chdir(tmp_path)


COMMANDS = [
    (["verify", "--file", "heisenberg5.json"], 1),
    (["verify", "--file", "abelian4.json"], 0),
    (["info", "--file", "filiform8.json"], 0),
    (["der", "--file", "filiform8.json"], 0),
    (["dder", "--file", "filiform8.json"], 0),
    (["full-graph", "--file", "filiform8.json"], 0),
    (["verify", "--file", "filiform8.json", "--theorem", "lemma"], 0),
]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("args,code", COMMANDS, ids=[" ".join(c[0]) for c in COMMANDS])
def test_command_never_reads_the_dense_table(args, code, as_json, inputs,
                                             no_dense_table):
    out = io.StringIO()
    assert main((["--json"] if as_json else []) + args, out=out) == code
    assert out.getvalue()


@pytest.fixture
def no_dense_matrix_or_span(monkeypatch):
    def refuse(self):
        raise AssertionError("a matrix or a span was written out dense")
    monkeypatch.setattr(Matrix, "flatten", refuse)
    monkeypatch.setattr(Subspace, "basis_vectors", refuse)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("args,code", COMMANDS + [(["corpus-verify"], 1)],
                         ids=[" ".join(c[0]) for c in COMMANDS] + ["corpus-verify"])
def test_command_never_writes_a_matrix_or_span_out_dense(
        args, code, as_json, inputs, no_dense_matrix_or_span):
    out = io.StringIO()
    assert main((["--json"] if as_json else []) + args, out=out) == code
    assert out.getvalue()


@pytest.fixture
def no_dense_coordinates(monkeypatch):
    def refuse(self, v):
        raise AssertionError("a coordinate vector was read dense")
    for cls, name in ((MatrixSpan, "coordinates"),
                      (DerivationAlgebra, "coordinates_of"),
                      (DDerivationSpace, "coordinates_of"),
                      (Subspace, "coordinates")):
        monkeypatch.setattr(cls, name, refuse)


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("args,code", COMMANDS + [(["corpus-verify"], 1)],
                         ids=[" ".join(c[0]) for c in COMMANDS] + ["corpus-verify"])
def test_command_never_reads_a_coordinate_vector_dense(
        args, code, as_json, inputs, no_dense_coordinates):
    out = io.StringIO()
    assert main((["--json"] if as_json else []) + args, out=out) == code
    assert out.getvalue()


def test_a_large_abelian_file_parses_and_prints_without_the_table(no_dense_table):
    # info's bracket listing of a 60-dim file; its Der(G) (3600 unknowns)
    # is beyond what info finishes in reasonable time, so it is not run
    g = parse_algebra_file('{"dim": 60}')
    assert g.dim == 60 and _table_lines(g) == ["(abelian)"]
    assert parse_algebra_file(serialize_algebra(g)) == g

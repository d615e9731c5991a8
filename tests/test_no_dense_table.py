"""No CLI command builds the dense n x n x n structure-constant table,
writes a matrix or a span out dense, or reads a coordinate vector dense.

``LieAlgebra.table`` is a dense view for tests and oracles; the package
reads the sparse ``pairs``. Likewise ``Matrix.flatten`` is a dense view of
the nonzeros of a matrix, and ``MatrixSpan.coordinates`` and its
``coordinates_of`` aliases are dense views of the coordinate terms that
``MatrixSpan.terms_of`` reads. With the views made to raise, every command
must still run to its usual exit code. A span has no dense view: its rows
and the coordinates ``Subspace._coordinates`` reads are nonzero terms.

A Matrix is built from dense entries only by ``Matrix(rows, cols,
entries)``, which ``Matrix.from_rows`` calls, and a span only by
``Subspace.from_rows``; with both made to raise, every command must give
the same output as without.

Coordinates enter the package as nonzero terms, the form ``terms_of``
gives them out: ``MatrixSpan.matrix_of`` and ``h_derivation`` take terms.
``LieAlgebra.ad`` reads a dense coordinate vector, and so does
``liegraph.algebra.as_vector``, which otherwise reads only a catalog
entry's bracket vectors; with ``ad`` made to raise on every input, and
``as_vector`` too where the structure constants come from a file, every
command must give the same output as without.
"""

import io

import pytest

from algebras import CATALOG_NAMES, FIXTURES
from liegraph import algebra as alg_mod
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
                      (DDerivationSpace, "coordinates_of")):
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


@pytest.fixture
def no_matrix_from_dense_entries(monkeypatch):
    def refuse(*args):
        raise AssertionError("a Matrix or a span was built from dense entries")
    monkeypatch.setattr(Matrix, "__init__", refuse)
    monkeypatch.setattr(Subspace, "from_rows", classmethod(refuse))


SPY_COMMANDS = [["info"], ["der"], ["dder"], ["full-graph"]] + [
    ["verify", "--theorem", t] for t in ("1", "2", "lemma", "all")]
SPY_TARGETS = CATALOG_NAMES + [f"{n}.json" for n in sorted(FIXTURES.SPECS)]


def _run_json(args, capsys):
    out = io.StringIO()
    code = main(["--json"] + args, out=out)
    return code, out.getvalue(), capsys.readouterr().err


@pytest.mark.parametrize("target", SPY_TARGETS + [None],
                         ids=SPY_TARGETS + ["corpus-verify"])
def test_no_command_builds_a_matrix_from_dense_entries(
        target, tmp_path, monkeypatch, capsys, request):
    FIXTURES.write_inputs(sorted(FIXTURES.SPECS), 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    if target is None:
        runs = [["corpus-verify"]]
    else:
        where = ["--file", target] if target.endswith(".json") else [target]
        runs = [cmd + where for cmd in SPY_COMMANDS]
    want = [_run_json(args, capsys) for args in runs]
    request.getfixturevalue("no_matrix_from_dense_entries")
    assert [_run_json(args, capsys) for args in runs] == want


@pytest.fixture
def no_dense_coordinate_read(monkeypatch):
    """Make LieAlgebra.ad raise; the returned function makes
    liegraph.algebra.as_vector raise too."""
    def refuse(*args):
        raise AssertionError("a coordinate vector was read dense")
    monkeypatch.setattr(LieAlgebra, "ad", refuse)
    return lambda: monkeypatch.setattr(alg_mod, "as_vector", refuse)


@pytest.mark.parametrize("target", SPY_TARGETS + [None],
                         ids=SPY_TARGETS + ["corpus-verify"])
def test_no_command_reads_a_coordinate_vector_dense(
        target, tmp_path, monkeypatch, capsys, request):
    FIXTURES.write_inputs(sorted(FIXTURES.SPECS), 1, tmp_path)
    monkeypatch.chdir(tmp_path)
    if target is None:
        runs = [["corpus-verify"]]
    else:
        where = ["--file", target] if target.endswith(".json") else [target]
        runs = [cmd + where for cmd in SPY_COMMANDS]
    want = [_run_json(args, capsys) for args in runs]
    refuse_as_vector = request.getfixturevalue("no_dense_coordinate_read")
    if target is not None and target.endswith(".json"):
        refuse_as_vector()
    assert [_run_json(args, capsys) for args in runs] == want

import contextlib
import errno
import importlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from liegraph.algebra import JacobiViolation, make_lie_algebra
from liegraph.catalog import (AlgebraFileError, CatalogError, catalog, lookup,
                              parse_algebra_file, serialize_algebra)
from liegraph.cli import main
from liegraph import fullgraph as fg_mod


class TestCatalog:
    def test_expected_entries_present(self):
        names = {e.name for e in catalog()}
        assert {"abelian1", "abelian2", "abelian3", "affine2", "heisenberg3",
                "sl2", "sl2_plus_abelian1"} <= names

    def test_lookup_sl2(self):
        e = lookup("sl2")
        assert e.algebra.dim == 3
        assert e.algebra.bracket([1, 0, 0], [0, 1, 0]) == e.algebra.table[0][1]

    def test_lookup_paren_spelling(self):
        e = lookup("abelian(2)")
        assert e.name == "abelian2"
        assert all(not any(e.algebra.table[i][j]) for i in range(2) for j in range(2))

    def test_lookup_unknown(self):
        with pytest.raises(CatalogError):
            lookup("so8")

    def test_lookup_builds_only_the_entry_it_returns(self, monkeypatch):
        built = []

        def counting(n, brackets, basis_names=None):
            built.append(n)
            return make_lie_algebra(n, brackets, basis_names)

        # the package's `catalog` attribute is the function, not the module
        module = importlib.import_module("liegraph.catalog")
        monkeypatch.setattr(module, "make_lie_algebra", counting)
        assert lookup("sl2").algebra.basis_names == ("h", "e", "f")
        assert built == [3]
        with pytest.raises(CatalogError):
            lookup("so8")
        assert built == [3]


class TestAlgebraFile:
    def test_heisenberg_file_matches_catalog(self):
        text = json.dumps({
            "dim": 3,
            "basis_names": ["x", "y", "z"],
            "brackets": [{"i": 0, "j": 1, "result": [{"k": 2, "coeff": "1"}]}],
        })
        g = parse_algebra_file(text)
        assert g.table == lookup("heisenberg3").algebra.table

    def test_bad_rational_literal(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 0, "coeff": "1/0"}]}]})
        with pytest.raises(AlgebraFileError, match="1/0"):
            parse_algebra_file(text)

    def test_float_coefficient_rejected(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 0, "coeff": 0.5}]}]})
        with pytest.raises(AlgebraFileError):
            parse_algebra_file(text)

    @pytest.mark.parametrize("literal", ["1e3", "0.5", "1e999999999"])
    def test_decimal_and_exponent_strings_rejected(self, literal, tmp_path):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 0, "coeff": literal}]}]})
        with pytest.raises(AlgebraFileError, match="bad rational literal"):
            parse_algebra_file(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["info", "--file", str(path)], out=io.StringIO()) == 2

    @pytest.mark.parametrize("literal,value", [
        ("3/2", Fraction(3, 2)), ("-3/2", Fraction(-3, 2)), ("+4", Fraction(4)),
        (7, Fraction(7))])
    def test_integer_and_fraction_literals_accepted(self, literal, value):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 1, "coeff": literal}]}]})
        assert parse_algebra_file(text).table[0][1] == (Fraction(0), value)

    def test_jacobi_violation_passthrough(self):
        text = json.dumps({"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": "1"}]},
            {"i": 0, "j": 2, "result": [{"k": 0, "coeff": "1"}]}]})
        with pytest.raises(JacobiViolation) as exc:
            parse_algebra_file(text)
        assert exc.value.triple == (0, 1, 2)

    def test_requires_i_less_than_j(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 1, "j": 0, "result": []}]})
        with pytest.raises(AlgebraFileError, match="i < j"):
            parse_algebra_file(text)

    def test_duplicate_pair(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": []}, {"i": 0, "j": 1, "result": []}]})
        with pytest.raises(AlgebraFileError, match="duplicate"):
            parse_algebra_file(text)

    def test_repeated_k_names_the_bracket(self):
        # adding the two terms up would load this as abelian
        text = json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [
            {"k": 2, "coeff": "1"}, {"k": 2, "coeff": "-1"}]}]})
        with pytest.raises(AlgebraFileError, match=r"\(0,1\) gives k=2 twice"):
            parse_algebra_file(text)

    def test_index_out_of_range(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 5, "result": []}]})
        with pytest.raises(AlgebraFileError, match="out of range"):
            parse_algebra_file(text)

    def test_malformed_json(self):
        with pytest.raises(AlgebraFileError, match="malformed"):
            parse_algebra_file("{not json")

    @pytest.mark.parametrize("doc", [
        {"dim": 2, "brackets": 5},
        {"dim": 2, "brackets": None},
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "result": 5}]},
        {"dim": 2, "brackets": [{"i": 0, "j": 1, "result": {"k": 0}}]},
        {"dim": True},
        {"dim": 2, "brackets": [{"i": False, "j": 1, "result": []}]},
        {"dim": 2, "brackets": [{"i": 0, "j": True, "result": []}]},
        {"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": True, "coeff": 1}]}]},
        {"dim": 3, "basis_names": ["x", "x", "x"], "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": 1}]}]},
        {"dim": 3, "bracket": [{"i": 0, "j": 1, "result": [{"k": 2, "coeff": 1}]}]},
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "results": [{"k": 2, "coeff": 1}]}]},
        {"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": 1, "c": 1}]}]},
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [
            {"k": 2, "coeff": "1"}, {"k": 2, "coeff": "-1"}]}]},
    ], ids=["brackets-int", "brackets-null", "result-int", "result-object",
            "dim-bool", "i-bool", "j-bool", "k-bool", "duplicate-names",
            "unknown-top-key", "unknown-bracket-key", "unknown-term-key",
            "repeated-k"])
    def test_wrong_json_types_are_file_errors(self, doc, tmp_path, capsys):
        text = json.dumps(doc)
        with pytest.raises(AlgebraFileError):
            parse_algebra_file(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["info", "--file", str(path)], out=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("key, doc", [
        ("bracket", {"dim": 2, "bracket": []}),
        ("results", {"dim": 2, "brackets": [{"i": 0, "j": 1, "results": []}]}),
        ("coef", {"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 1, "coef": 1}]}]}),
    ])
    def test_unknown_field_is_named(self, key, doc):
        with pytest.raises(AlgebraFileError, match=f"unknown field '{key}'"):
            parse_algebra_file(json.dumps(doc))

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["info", "--file", str(path)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_round_trip(self, name):
        g = lookup(name).algebra
        again = parse_algebra_file(serialize_algebra(g))
        assert again.table == g.table and again.basis_names == g.basis_names


# JSON values of the wrong type for a field that wants an integer or a list
_WRONG_TYPE = st.one_of(st.none(), st.booleans(), st.just(2.0), st.just("3"),
                        st.lists(st.integers(0, 3), max_size=2))
_GOOD_COEFFS = st.one_of(st.integers(-2, 2),
                         st.sampled_from(["1", "-2", "+1", "0", "3/2", "-1/3"]))
_BAD_COEFFS = st.one_of(st.booleans(), st.just(0.5), st.sampled_from(
    ["1/0", "0.5", "1e3", "", "x", "1/-2", "\u0663"]))


@st.composite
def algebra_documents(draw):
    """Small structure-constant documents in which each field is broken now
    and then. dim stays at most 4: a large dim is beyond the budget of info."""
    def mostly(good, bad):
        # one field in five is broken, so that some documents are valid
        return draw(bad if draw(st.integers(0, 4)) == 0 else good)

    def with_unknown_key(obj):
        if draw(st.integers(0, 9)) == 0:
            obj["extra"] = 0
        return obj

    dim = mostly(st.integers(1, 4), _WRONG_TYPE)
    n = dim if type(dim) is int else 2
    index = lambda: mostly(st.integers(0, n - 1), st.sampled_from([-1, n]))
    term = lambda: with_unknown_key(
        {"k": index(), "coeff": mostly(_GOOD_COEFFS, _BAD_COEFFS)})
    bracket = lambda: with_unknown_key(
        {"i": index(), "j": index(),
         "result": [term() for _ in range(draw(st.integers(0, 2)))]})
    doc = with_unknown_key(
        {"dim": dim, "brackets": [bracket() for _ in range(draw(st.integers(0, 3)))]})
    if draw(st.booleans()):
        doc["basis_names"] = mostly(
            st.lists(st.text(max_size=2), min_size=n, max_size=n, unique=True),
            st.one_of(_WRONG_TYPE, st.lists(st.text(max_size=2), max_size=5)))
    return doc


@pytest.mark.parametrize("command", ["info", "verify"])
@given(doc=algebra_documents())
@settings(max_examples=100, deadline=None)
def test_drawn_file_gives_a_report_or_one_error_line(command, doc, tmp_path_factory):
    path = tmp_path_factory.mktemp("doc") / "algebra.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--json", command, "--file", str(path)], out=out)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
    else:
        json.loads(out.getvalue())
        assert err.getvalue() == ""


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), out=out)
    return code, out.getvalue()


class TestCli:
    def test_info(self):
        code, text = run_cli("info", "sl2")
        assert code == 0
        assert "der dim: 3" in text

    def test_info_json(self):
        code, text = run_cli("--json", "info", "heisenberg3")
        assert code == 0
        data = json.loads(text)
        assert data["der_dim"] == 6 and data["d_space_dim"] == 3
        assert data["d_center_dim"] == 0

    def test_der(self):
        code, text = run_cli("der", "sl2")
        assert code == 0 and "dimension 3" in text

    def test_dder_json(self):
        code, text = run_cli("--json", "dder", "sl2")
        assert code == 0
        data = json.loads(text)
        assert data["d_space_dim"] == 3 and len(data["basis"]) == 3

    def test_full_graph(self):
        code, text = run_cli("full-graph", "abelian1")
        assert code == 0 and "dimension 2" in text

    def test_verify_sl2_all_passes(self):
        code, text = run_cli("verify", "sl2", "--theorem", "all")
        assert code == 0
        assert "overall:  pass" in text

    def test_verify_lemma_only(self):
        code, text = run_cli("verify", "heisenberg3", "--theorem", "lemma")
        assert code == 0 and "lemma" in text

    def test_verify_unknown_algebra_usage_error(self):
        code, _ = run_cli("verify", "nope")
        assert code == 2

    def test_verify_missing_algebra_usage_error(self):
        code, _ = run_cli("verify")
        assert code == 2

    @pytest.mark.parametrize("command", ["info", "der", "dder", "full-graph",
                                         "verify"])
    def test_name_and_file_together_usage_error(self, command, tmp_path, capsys):
        path = tmp_path / "sl2.json"
        path.write_text(serialize_algebra(lookup("sl2").algebra))
        code, text = run_cli(command, "abelian1", "--file", str(path))
        assert code == 2 and text == ""
        assert (capsys.readouterr().err
                == "error: give an algebra name or --file, not both\n")

    def test_verify_jacobi_violating_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": "1"}]},
            {"i": 0, "j": 2, "result": [{"k": 0, "coeff": "1"}]}]}))
        code, _ = run_cli("verify", "--file", str(bad))
        assert code == 2
        assert "(0, 1, 2)" in capsys.readouterr().err

    def test_verify_file_roundtrip(self, tmp_path):
        path = tmp_path / "sl2.json"
        path.write_text(serialize_algebra(lookup("sl2").algebra))
        code, text = run_cli("verify", "--file", str(path))
        assert code == 0

    def test_json_output_is_byte_stable(self):
        first = run_cli("--json", "verify", "sl2")
        second = run_cli("--json", "verify", "sl2")
        assert first == second

    def test_corpus_verify_json_one_report_per_entry(self):
        code, text = run_cli("--json", "corpus-verify")
        data = json.loads(text)
        assert [d["algebra"] for d in data] == [e.name for e in catalog()]

    def test_mutation_sign_error_detected(self, monkeypatch):
        # flip one sign in the holomorph action; theorem 1 must then fail
        real = fg_mod.h_derivation

        def mutated(dspace, d_coords, l_coords):
            mat = real(dspace, d_coords, l_coords)
            rows = [list(mat.row(r)) for r in range(mat.rows)]
            for r in range(dspace.der.dim, mat.rows):  # negate the G-block output
                for c in range(mat.cols):
                    rows[r][c] = -rows[r][c]
            from liegraph.linalg import Matrix
            return Matrix.from_rows(rows)

        monkeypatch.setattr(fg_mod, "h_derivation", mutated)
        code, text = run_cli("verify", "sl2", "--theorem", "1")
        assert code == 1
        assert "FAIL" in text


class ClosedStream(io.StringIO):
    """An output stream whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [["--json", "corpus-verify"], ["der", "abelian3"]])
def test_closed_output_stream_ends_without_traceback(argv, capsys):
    assert main(argv, out=ClosedStream()) == 1
    assert capsys.readouterr().err == ""


def test_reader_closing_after_one_byte_leaves_stderr_empty():
    import fcntl  # F_SETPIPE_SZ is Linux-only
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    r, w = os.pipe()
    # a 4096-byte pipe holds less than the 4.5 kB report, so the writer is
    # still blocked when the reader closes and must see EPIPE
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "liegraph.cli", "--json", "der", "abelian3"],
            stdout=w, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(w)
    try:
        first = os.read(r, 1)
    finally:
        os.close(r)
    _, err = proc.communicate(timeout=120)
    assert len(first) == 1
    assert err == b""
    assert proc.returncode == 1

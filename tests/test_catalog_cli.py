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

        # lookup reads make_lie_algebra from the catalog module's globals
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

    # json keeps only the last copy of a repeated key, so each of these
    # would load quietly as another algebra: the first as abelian3, the
    # last with [x, y] = 0
    @pytest.mark.parametrize("key, text", [
        ("brackets", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "result": '
                     '[{"k": 2, "coeff": "1"}]}], "brackets": []}'),
        ("i", '{"dim": 3, "brackets": [{"i": 1, "j": 1, "i": 0, "result": '
              '[{"k": 2, "coeff": "1"}]}]}'),
        ("coeff", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "result": '
                  '[{"k": 2, "coeff": "1", "coeff": "0"}]}]}'),
    ], ids=["top-brackets", "bracket-i", "term-coeff"])
    def test_repeated_field_is_named_and_exits_2(self, key, text, tmp_path,
                                                 capsys):
        with pytest.raises(AlgebraFileError, match=f"repeated field '{key}'"):
            parse_algebra_file(text)
        path = tmp_path / "dup.json"
        path.write_text(text)
        out = io.StringIO()
        assert main(["info", "--file", str(path)], out=out) == 2
        err = capsys.readouterr().err
        assert out.getvalue() == ""
        assert err == f"error: repeated field '{key}'\n"

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert main(["info", "--file", str(path)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_deeply_nested_file_exits_2_without_traceback(self, tmp_path):
        # json.loads recurses once per "[" and runs out of stack long
        # before the end of the file; a fresh process shows all of stderr
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "liegraph.cli", "info", "--file", str(path)],
            capture_output=True, text=True, timeout=120,
            env=dict(os.environ, PYTHONPATH=str(src)))
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: malformed JSON: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_huge_dim_exits_2_before_any_per_dimension_work(self, tmp_path, capsys):
        # 2**70 is past what a list can index, so the pair table is refused
        # before one entry is allocated; a loop over range(dim) would hang
        text = json.dumps({"dim": 2 ** 70})
        with pytest.raises(AlgebraFileError, match="too large"):
            parse_algebra_file(text)
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["info", "--file", str(path)], out=io.StringIO()) == 2
        err = capsys.readouterr().err
        assert err == f"error: 'dim' {2 ** 70} is too large\n"

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


@st.composite
def bracket_files(draw):
    """A valid document and the same brackets as make_lie_algebra entries:
    each result lists its terms in a drawn order, zero coefficients
    included, so the Jacobi identity may fail."""
    n = draw(st.integers(1, 5))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=4)) if pairs else []
    doc, entries = {"dim": n, "brackets": []}, []
    for i, j in chosen:
        ks = draw(st.permutations(range(n)))[:draw(st.integers(0, n))]
        coeffs = [draw(st.sampled_from([0, "0", "0/3", 1, -2, "3/2", "-1/3"]))
                  for _ in ks]
        doc["brackets"].append({"i": i, "j": j, "result": [
            {"k": k, "coeff": c} for k, c in zip(ks, coeffs)]})
        vec = [0] * n
        for k, c in zip(ks, coeffs):
            vec[k] = Fraction(c)
        entries.append((i, j, vec))
    return doc, entries


def _built(build):
    try:
        return build()
    except JacobiViolation as exc:
        return exc.triple, exc.residual


@given(bracket_files())
@settings(max_examples=150, deadline=None)
def test_parsed_file_equals_make_lie_algebra(case):
    # the parser hands its sorted nonzero terms straight to the sparse
    # table; make_lie_algebra reads the same brackets as dense vectors
    doc, entries = case
    parsed = _built(lambda: parse_algebra_file(json.dumps(doc)))
    assert parsed == _built(lambda: make_lie_algebra(doc["dim"], entries))
    if isinstance(parsed, tuple):
        return
    for row in parsed.pairs:
        for terms in row:
            assert all(c for _, c in terms)
            assert [k for k, _ in terms] == sorted(k for k, _ in terms)


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


# CPython (3.11 and later) refuses to convert an integer string of more than
# sys.get_int_max_str_digits() digits, 4300 by default. Such an integer in a
# file is a file error that names its field, not CPython's ValueError.
_LONG = "1" * 5000


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="no integer digit limit before Python 3.11")
@pytest.mark.parametrize("doc, field", [
    ('{"dim": %s}' % _LONG, "'dim'"),
    ('{"dim": 2, "brackets": [{"i": %s, "j": 1}]}' % _LONG, "brackets[0]: 'i'"),
    ('{"dim": 2, "brackets": [{"i": 0, "j": 1, "result": [{"k": %s, '
     '"coeff": 1}]}]}' % _LONG, "brackets[0]: 'k'"),
    ('{"dim": 2, "brackets": [{"i": 0, "j": 1, "result": [{"k": 1, '
     '"coeff": %s}]}]}' % _LONG, "brackets[0]: 'coeff'"),
    ('{"dim": 2, "brackets": [{"i": 0, "j": 1, "result": [{"k": 1, '
     '"coeff": "%s"}]}]}' % _LONG, "brackets[0]: 'coeff'"),
    ('{"dim": 2, "brackets": [{"i": 0, "j": 1, "result": [{"k": 1, '
     '"coeff": "-1/%s"}]}]}' % _LONG, "brackets[0]: 'coeff'"),
], ids=["dim", "i", "k", "coeff_int", "coeff_string", "coeff_fraction"])
def test_integer_past_the_digit_limit_is_one_short_error_line(doc, field, tmp_path):
    message = f"{field} has more than {sys.get_int_max_str_digits()} digits"
    with pytest.raises(AlgebraFileError) as exc:
        parse_algebra_file(doc)
    assert str(exc.value) == message
    path = tmp_path / "long.json"
    path.write_text(doc)
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "liegraph.cli", "info", "--file", str(path)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(src)))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {message}\n")


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

    def test_empty_file_name_beside_an_algebra_usage_error(self, capsys):
        code, text = run_cli("info", "sl2", "--file", "")
        assert code == 2 and text == ""
        assert (capsys.readouterr().err
                == "error: give an algebra name or --file, not both\n")

    def test_empty_file_name_is_opened_as_a_file(self, capsys):
        code, text = run_cli("info", "--file", "")
        assert code == 2 and text == ""
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read : ") and err.count("\n") == 1

    def test_verify_jacobi_violating_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": "1"}]},
            {"i": 0, "j": 2, "result": [{"k": 0, "coeff": "1"}]}]}))
        code, _ = run_cli("verify", "--file", str(bad))
        assert code == 2
        assert "(0, 1, 2)" in capsys.readouterr().err

    def test_jacobi_residual_is_written_as_file_rationals(self, tmp_path, capsys):
        # [h,e] = 1/2 e, [h,f] = -1/2 f, [e,f] = 3/2 h - 2/3 e
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 1, "coeff": "1/2"}]},
            {"i": 0, "j": 2, "result": [{"k": 2, "coeff": "-1/2"}]},
            {"i": 1, "j": 2, "result": [{"k": 0, "coeff": "3/2"},
                                        {"k": 1, "coeff": "-2/3"}]}]}))
        code, text = run_cli("verify", "--file", str(bad))
        assert code == 2 and text == ""
        assert capsys.readouterr().err == (
            "error: Jacobi identity fails on basis triple (0, 1, 2), "
            "residual (0, -1/3, 0)\n")
        with pytest.raises(JacobiViolation) as exc:
            parse_algebra_file(bad.read_text())
        assert exc.value.residual == (0, Fraction(-1, 3), 0)

    @pytest.mark.parametrize("argv", [
        ["verify", "--theorem", "all", "--file"], ["dder", "--file"],
        ["full-graph", "--file"], ["verify", "sl2"]], ids=" ".join)
    def test_one_jacobi_scan_per_request_on_its_input(self, argv, tmp_path,
                                                      monkeypatch):
        # every table the program derives is Lie by construction, so a
        # request scans only the structure constants it was given
        given = lookup("sl2" if argv[-1] == "sl2" else "heisenberg3").algebra
        if argv[-1] == "--file":
            path = tmp_path / "g.json"
            path.write_text(serialize_algebra(given))
            argv = argv + [str(path)]
        algebra_module = importlib.import_module("liegraph.algebra")
        original, scanned = algebra_module._validate_jacobi, []

        def spy(g):
            scanned.append(g)
            return original(g)

        # patched wherever a module of the package bound the name
        for name in ("algebra", "catalog", "dtheory", "fullgraph", "cli"):
            module = importlib.import_module(f"liegraph.{name}")
            if getattr(module, "_validate_jacobi", None) is original:
                monkeypatch.setattr(module, "_validate_jacobi", spy)
        code, _ = run_cli(*argv)
        assert code in (0, 1)
        assert scanned == [given]

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


class CountingStream(io.StringIO):
    """An output stream that counts the calls made to its write."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.fixture(scope="module")
def heisenberg7_file(tmp_path_factory):
    from algebras import algebra  # the benchmark's explore fixture
    path = tmp_path_factory.mktemp("explore") / "heisenberg7.json"
    path.write_text(serialize_algebra(algebra("heisenberg7")))
    return str(path)


@pytest.mark.parametrize("argv", [["--json", "der"], ["--json", "full-graph"],
                                  ["der"]])
def test_each_result_is_written_in_one_call(argv, heisenberg7_file):
    # unbuffered, each write of stdout is a write(2) of its own
    argv = [*argv, "--file", heisenberg7_file]
    out = CountingStream()
    assert main(argv, out=out) == 0
    assert out.writes == 1
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-m", "liegraph.cli", *argv], capture_output=True,
        timeout=120, env={**os.environ, "PYTHONPATH": str(src),
                          "PYTHONUNBUFFERED": "1"})
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, out.getvalue().encode(), b"")


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


@pytest.mark.parametrize("unbuffered", ["1", ""])
def test_one_write_meets_epipe_buffered_or_not(unbuffered, heisenberg7_file):
    # an 8 kB result to a 4096-byte pipe: unbuffered, write(2) takes 4096
    # bytes and returns when the reader closes; the rest must still meet EPIPE
    import fcntl  # F_SETPIPE_SZ is Linux-only
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    r, w = os.pipe()
    fcntl.fcntl(w, fcntl.F_SETPIPE_SZ, 4096)
    try:
        proc = subprocess.Popen(
            [sys.executable, "-m", "liegraph.cli", "der", "--file",
             heisenberg7_file], stdout=w, stderr=subprocess.PIPE, env=env)
    finally:
        os.close(w)
    try:
        first = os.read(r, 1)
    finally:
        os.close(r)
    _, err = proc.communicate(timeout=120)
    assert (len(first), err, proc.returncode) == (1, b"", 1)


class FullStream(io.StringIO):
    """An output stream on a device with no space left."""

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", [["info", "sl2"], ["--json", "corpus-verify"]])
def test_failed_write_is_one_error_line(argv, capsys):
    # a write error other than EPIPE is reported, unlike a closed reader
    assert main(argv, out=FullStream()) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write the result: {os.strerror(errno.ENOSPC)}\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("argv", [["info", "sl2"], ["--json", "corpus-verify"]])
def test_write_to_a_full_device_is_one_error_line(argv, unbuffered):
    # every write(2) to /dev/full fails with ENOSPC: one error line and
    # exit 1, with no traceback from main or from the interpreter's flush
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONUNBUFFERED=unbuffered)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-m", "liegraph.cli", *argv],
                              stdout=full, stderr=subprocess.PIPE, env=env,
                              timeout=120)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write")
    assert "Traceback" not in err and "Exception ignored" not in err

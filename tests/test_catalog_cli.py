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

import child
from algebras import CATALOG_DENSE
from liegraph.algebra import (JacobiViolation, LieAlgebra, LieError,
                              make_lie_algebra)
from liegraph.catalog import (catalog, lookup, parse_algebra_file,
                              serialize_algebra)
from liegraph.cli import _table_lines, main


class TestCatalog:
    def test_expected_entries_present(self):
        names = {e.name for e in catalog()}
        assert {"abelian1", "abelian2", "abelian3", "affine2", "heisenberg3",
                "sl2", "sl2_plus_abelian1"} <= names

    def test_lookup_sl2(self):
        e = lookup("sl2")
        assert e.algebra.dim == 3
        assert e.algebra.table[0][1] == (0, 2, 0)

    def test_lookup_paren_spelling(self):
        e = lookup("abelian(2)")
        assert e.name == "abelian2"
        assert all(not any(e.algebra.table[i][j]) for i in range(2) for j in range(2))

    def test_lookup_unknown(self):
        with pytest.raises(LieError, match="^no catalog algebra named 'so8'$"):
            lookup("so8")

    def test_lookup_builds_only_the_entry_it_returns(self, monkeypatch):
        built = []

        def counting(text):
            g = parse_algebra_file(text)
            built.append(g.dim)
            return g

        # lookup reads parse_algebra_file from the catalog module's globals
        module = importlib.import_module("liegraph.catalog")
        monkeypatch.setattr(module, "parse_algebra_file", counting)
        assert lookup("sl2").algebra.basis_names == ("h", "e", "f")
        assert built == [3]
        with pytest.raises(LieError, match="^no catalog algebra named 'so8'$"):
            lookup("so8")
        assert built == [3]

    def test_each_entry_parses_to_its_dense_form(self):
        got = {e.name: (e.algebra.pairs, e.algebra.basis_names) for e in catalog()}
        dense = {name: make_lie_algebra(*form) for name, form in CATALOG_DENSE.items()}
        assert got == {name: (g.pairs, g.basis_names) for name, g in dense.items()}


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
        with pytest.raises(LieError, match="1/0"):
            parse_algebra_file(text)

    def test_float_coefficient_rejected(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 0, "coeff": 0.5}]}]})
        with pytest.raises(LieError, match="coefficient must be an exact "
                                           "rational string or integer, got 0.5"):
            parse_algebra_file(text)

    @pytest.mark.parametrize("literal", ["1e3", "0.5", "1e999999999"])
    def test_decimal_and_exponent_strings_rejected(self, literal, tmp_path):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 0, "coeff": literal}]}]})
        with pytest.raises(LieError, match="bad rational literal"):
            parse_algebra_file(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli("info", "--file", str(path)) == (2, "")

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
        with pytest.raises(LieError, match="i < j"):
            parse_algebra_file(text)

    def test_duplicate_pair(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": []}, {"i": 0, "j": 1, "result": []}]})
        with pytest.raises(LieError, match="duplicate"):
            parse_algebra_file(text)

    def test_repeated_k_names_the_bracket(self):
        # adding the two terms up would load this as abelian
        text = json.dumps({"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [
            {"k": 2, "coeff": "1"}, {"k": 2, "coeff": "-1"}]}]})
        with pytest.raises(LieError, match=r"\(0,1\) gives k=2 twice"):
            parse_algebra_file(text)

    def test_index_out_of_range(self):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 5, "result": []}]})
        with pytest.raises(LieError, match="out of range"):
            parse_algebra_file(text)

    def test_malformed_json(self):
        with pytest.raises(LieError, match="malformed"):
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
        {"dim": 2, "basis_names": None},
        {"dim": 3, "bracket": [{"i": 0, "j": 1, "result": [{"k": 2, "coeff": 1}]}]},
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "results": [{"k": 2, "coeff": 1}]}]},
        {"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": 1, "c": 1}]}]},
        {"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [
            {"k": 2, "coeff": "1"}, {"k": 2, "coeff": "-1"}]}]},
    ], ids=["brackets-int", "brackets-null", "result-int", "result-object",
            "dim-bool", "i-bool", "j-bool", "k-bool", "duplicate-names",
            "names-null",
            "unknown-top-key", "unknown-bracket-key", "unknown-term-key",
            "repeated-k"])
    def test_wrong_json_types_are_file_errors(self, doc, tmp_path, capfd):
        text = json.dumps(doc)
        with pytest.raises(LieError):
            parse_algebra_file(text)
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert run_cli("info", "--file", str(path)) == (2, "")
        err = capfd.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("key, doc", [
        ("bracket", {"dim": 2, "bracket": []}),
        ("results", {"dim": 2, "brackets": [{"i": 0, "j": 1, "results": []}]}),
        ("coef", {"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 1, "coef": 1}]}]}),
    ])
    def test_unknown_field_is_named(self, key, doc):
        with pytest.raises(LieError, match=f"unknown field '{key}'"):
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
                                                 capfd):
        with pytest.raises(LieError, match=f"repeated field '{key}'"):
            parse_algebra_file(text)
        path = tmp_path / "dup.json"
        path.write_text(text)
        assert run_cli("info", "--file", str(path)) == (2, "")
        assert capfd.readouterr().err == f"error: repeated field '{key}'\n"

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, capfd):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe")
        assert run_cli("info", "--file", str(path)) == (2, "")
        err = capfd.readouterr().err
        assert err.startswith("error: ") and str(path) in err

    def test_deeply_nested_file_exits_2_without_traceback(self, tmp_path):
        # json.loads recurses once per "[" and runs out of stack long
        # before the end of the file; a fresh process shows all of stderr
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000)
        proc = subprocess.run(
            [sys.executable, "-m", "liegraph.cli", "info", "--file", str(path)],
            capture_output=True, text=True, timeout=120, env=child.env())
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("error: malformed JSON: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_huge_dim_exits_2_before_any_per_dimension_work(self, tmp_path, capfd):
        # 2**70 is past what a list can index, so the pair table is refused
        # before one entry is allocated; a loop over range(dim) would hang
        text = json.dumps({"dim": 2 ** 70})
        with pytest.raises(LieError, match="too large"):
            parse_algebra_file(text)
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert run_cli("info", "--file", str(path)) == (2, "")
        err = capfd.readouterr().err
        assert err == f"error: 'dim' {2 ** 70} is too large\n"

    # each basis name is printed bare, so an empty name or one with
    # whitespace would blur or split info's lines, and one that begins with
    # "(" would read as a coefficient term "(c)*name"
    @pytest.mark.parametrize("bad", ["", " ", "a b", "a\nb", "\t", "(2)*z"])
    def test_name_that_prints_ambiguously_exits_2(self, bad, tmp_path, capfd):
        path = tmp_path / "names.json"
        path.write_text(json.dumps({"dim": 2, "basis_names": ["x", bad]}))
        with pytest.raises(LieError, match=r"^basis_names\[1\]: "):
            parse_algebra_file(path.read_text())
        assert run_cli("info", "--file", str(path)) == (2, "")
        err = capfd.readouterr().err
        assert err.startswith(f"error: basis_names[1]: {bad!r} is not a name")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_round_trip(self, name):
        g = lookup(name).algebra
        again = parse_algebra_file(serialize_algebra(g))
        assert again.table == g.table and again.basis_names == g.basis_names


@pytest.fixture
def no_dense_table(monkeypatch):
    def refuse(self):
        raise AssertionError("the dense structure-constant table was built")
    monkeypatch.setattr(LieAlgebra, "table", property(refuse))


def test_a_large_abelian_file_parses_and_prints_without_the_table(no_dense_table):
    # info's bracket listing of a 60-dim file; its Der(G) (3600 unknowns)
    # is beyond what info finishes in reasonable time, so it is not run
    g = parse_algebra_file('{"dim": 60}')
    assert g.dim == 60 and _table_lines(g) == ["(abelian)"]
    assert parse_algebra_file(serialize_algebra(g)) == g


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
    code, out, err = child.main_streams(["--json", command, "--file", str(path)])
    assert code in (0, 1, 2)
    if code == 2:
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1 and err.endswith("\n")
    else:
        json.loads(out)
        assert err == ""


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
    with pytest.raises(LieError) as exc:
        parse_algebra_file(doc)
    assert str(exc.value) == message
    path = tmp_path / "long.json"
    path.write_text(doc)
    proc = subprocess.run(
        [sys.executable, "-m", "liegraph.cli", "info", "--file", str(path)],
        capture_output=True, text=True, timeout=120, env=child.env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        2, "", f"error: {message}\n")


def run_cli(*argv):
    return child.main_output(list(argv))


class TestCli:
    # C(G) names its Der block D1 ... Dm, so G's own names may clash with
    # them: full-graph, which prints both, refuses the clash, and the other
    # commands print as they do under G's default names
    @staticmethod
    def _affine2_file(path, names):
        doc = json.loads(serialize_algebra(lookup("affine2").algebra))
        path.write_text(json.dumps({**doc, "basis_names": names}))
        return str(path)

    def test_full_graph_refuses_a_name_of_the_der_block(self, tmp_path, capfd):
        path = self._affine2_file(tmp_path / "g.json", ["D1", "D2"])
        assert run_cli("full-graph", "--file", path) == (2, "")
        assert run_cli("--json", "full-graph", "--file", path) == (2, "")
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 2 and err[0] == err[1]
        assert err[0].startswith("error: ") and "'D1'" in err[0]

    @pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
    @pytest.mark.parametrize("command", ["info", "der", "dder", "verify"])
    def test_other_commands_read_names_of_the_der_block(self, command,
                                                        json_flag, tmp_path):
        path = tmp_path / "g.json"
        argv = [*json_flag, command, "--file", str(path)]
        self._affine2_file(path, ["e1", "e2"])
        code, want = run_cli(*argv)
        self._affine2_file(path, ["D1", "D2"])
        assert code == 0
        assert run_cli(*argv) == (0, want.replace("e1", "D1").replace("e2", "D2"))

    def test_verify_sl2_all_passes(self):
        code, text = run_cli("verify", "sl2", "--theorem", "all")
        assert code == 0
        assert "overall:  pass" in text

    def test_verify_unknown_algebra_usage_error(self):
        code, _ = run_cli("verify", "nope")
        assert code == 2

    def test_verify_missing_algebra_usage_error(self):
        code, _ = run_cli("verify")
        assert code == 2

    @pytest.mark.parametrize("command", ["info", "der", "dder", "full-graph",
                                         "verify"])
    def test_name_and_file_together_usage_error(self, command, tmp_path, capfd):
        path = tmp_path / "sl2.json"
        path.write_text(serialize_algebra(lookup("sl2").algebra))
        code, text = run_cli(command, "abelian1", "--file", str(path))
        assert code == 2 and text == ""
        assert (capfd.readouterr().err
                == "error: give an algebra name or --file, not both\n")

    def test_empty_file_name_beside_an_algebra_usage_error(self, capfd):
        code, text = run_cli("info", "sl2", "--file", "")
        assert code == 2 and text == ""
        assert (capfd.readouterr().err
                == "error: give an algebra name or --file, not both\n")

    def test_empty_file_name_is_opened_as_a_file(self, capfd):
        code, text = run_cli("info", "--file", "")
        assert code == 2 and text == ""
        err = capfd.readouterr().err
        assert err.startswith("error: cannot read : ") and err.count("\n") == 1

    def test_verify_jacobi_violating_file(self, tmp_path, capfd):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 2, "coeff": "1"}]},
            {"i": 0, "j": 2, "result": [{"k": 0, "coeff": "1"}]}]}))
        code, _ = run_cli("verify", "--file", str(bad))
        assert code == 2
        err = capfd.readouterr().err
        assert err.startswith("error: Jacobi identity fails on basis triple (0, 1, 2)")
        assert err.count("\n") == 1

    def test_jacobi_residual_is_written_as_file_rationals(self, tmp_path, capfd):
        # [h,e] = 1/2 e, [h,f] = -1/2 f, [e,f] = 3/2 h - 2/3 e
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"dim": 3, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 1, "coeff": "1/2"}]},
            {"i": 0, "j": 2, "result": [{"k": 2, "coeff": "-1/2"}]},
            {"i": 1, "j": 2, "result": [{"k": 0, "coeff": "3/2"},
                                        {"k": 1, "coeff": "-2/3"}]}]}))
        code, text = run_cli("verify", "--file", str(bad))
        assert code == 2 and text == ""
        assert capfd.readouterr().err == (
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

    # h_{2k+1} from a file with no basis names fails theorem 1 as the
    # catalog's heisenberg3 does: dim H = 2k²+5k+2 misses one dimension of
    # Der(C(G)); at k = 4 Der(C(G)) is solved from its blocks alone
    @pytest.mark.parametrize("k, theorem", [(1, "all"), (4, "1")])
    def test_heisenberg_file_misses_one_derivation(self, k, theorem, tmp_path):
        n = 2 * k + 1
        path = tmp_path / "h.json"
        path.write_text(json.dumps({"dim": n, "brackets": [
            {"i": 2 * i, "j": 2 * i + 1, "result": [{"k": n - 1, "coeff": "1"}]}
            for i in range(k)]}))
        code, text = run_cli("--json", "verify", "--theorem", theorem,
                             "--file", str(path))
        t1 = json.loads(text)["theorem1"]
        assert (code, t1["dim_h"], t1["dim_der_cg"]) == (
            1, 2 * k * k + 5 * k + 2, 2 * k * k + 5 * k + 3)

    def test_verify_file_roundtrip(self, tmp_path):
        path = tmp_path / "sl2.json"
        path.write_text(serialize_algebra(lookup("sl2").algebra))
        code, text = run_cli("verify", "--file", str(path))
        assert code == 0


@pytest.mark.parametrize("argv", [["--json", "corpus-verify"], ["der", "abelian3"]])
def test_closed_output_stream_ends_without_traceback(argv, capfd):
    # a pipe whose reader has gone away
    r, w = os.pipe()
    os.close(r)
    with open(w, "w", encoding="utf-8") as out, contextlib.redirect_stdout(out):
        assert main(argv) == 1
    assert capfd.readouterr().err == ""


def test_a_short_write_is_continued(monkeypatch, capfd):
    # write(2) may take only a part of what it is given: here at most 7
    # bytes of the descriptor of stdout or stderr in each call
    argv = ["--json", "der", "abelian3"]
    whole, write, calls = child.main_output(argv), os.write, []
    line = "error: no catalog algebra named 'nope'\n"

    def short_write(fd, data):
        if fd in (sys.stdout.fileno(), sys.stderr.fileno()):
            calls.append(fd)
            data = data[:7]
        return write(fd, data)

    monkeypatch.setattr(os, "write", short_write)
    assert child.main_output(argv) == whole
    assert len(calls) == -(-len(whole[1].encode()) // 7)
    assert main(["info", "nope"]) == 2
    assert capfd.readouterr().err == line
    assert len(calls) == -(-len(whole[1].encode()) // 7) + -(-len(line) // 7)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_stderr_that_cannot_take_the_line_keeps_the_exit_code():
    # a pipe whose reader has gone away: the line is dropped, nothing raised
    r, w = os.pipe()
    os.close(r)
    with open(w, "w") as gone, contextlib.redirect_stderr(gone):
        assert main(["info", "nope"]) == 2
        with open("/dev/full", "w") as full, contextlib.redirect_stdout(full):
            assert main(["info", "sl2"]) == 1
    # main writes to descriptors: a stream with none drops the line too
    with contextlib.redirect_stderr(io.StringIO()) as err:
        assert main(["info", "nope"]) == 2
    assert err.getvalue() == ""


def test_a_stdout_with_no_descriptor_is_one_error_line(capfd):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["info", "sl2"]) == 1
    err = capfd.readouterr().err
    assert out.getvalue() == ""
    assert err.startswith("error: cannot write the result: ")
    assert err.count("\n") == 1 and "None" not in err and "Traceback" not in err


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A directory of input files: the benchmark's explore fixture
    heisenberg7.json, an 8 kB der report; greek.json, whose basis names
    ascii cannot encode; and bad.json, which is not JSON."""
    from algebras import algebra
    path = tmp_path_factory.mktemp("inputs")
    (path / "heisenberg7.json").write_text(serialize_algebra(algebra("heisenberg7")))
    (path / "greek.json").write_text(json.dumps({
        "dim": 2, "basis_names": ["α", "β"],
        "brackets": [{"i": 0, "j": 1, "result": [{"k": 1, "coeff": "1"}]}]}),
        encoding="utf-8")
    (path / "bad.json").write_text('{"dim": 2,')
    return path


@pytest.mark.parametrize("argv", [["--json", "der"], ["--json", "full-graph"],
                                  ["der"]])
def test_each_result_is_written_whole(argv, files):
    # unbuffered, a process writes to fd 1 what main writes to a file
    argv = [*argv, "--file", str(files / "heisenberg7.json")]
    code, out = child.main_output(argv)
    proc = subprocess.run(
        [sys.executable, "-m", "liegraph.cli", *argv], capture_output=True,
        timeout=120, env=child.env(PYTHONUNBUFFERED="1"))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out.encode(), b"")
    assert code == 0


# Every state of fd 1 and fd 2 that a process may start in, through both
# entries, buffered and not. A row is (argv, fd 1, fd 2) -> (exit code,
# stdout, stderr), and a descriptor is
# - "pipe", all of which is read;
# - "early", a 4096-byte pipe whose reader closes after one byte, so that a
#   longer result meets EPIPE after a partial write(2);
# - "gone", a pipe whose reader closed before the start;
# - "full", /dev/full, where every write(2) fails with ENOSPC;
# - "closed" at start-up, so that Python sets sys.stdout or sys.stderr to None.
# Nothing is read from the last three (None). Whatever fd 2 is, input and
# usage errors exit 2 and a result that cannot be written exits 1; an error
# line that stderr cannot take is dropped.
CANNOT_WRITE = "error: cannot write the result: "
ENOSPC = f"{CANNOT_WRITE}{os.strerror(errno.ENOSPC)}\n"
DESCRIPTOR_ROWS = {
    # EPIPE is silent: the reader closed on purpose (`liegraph ... | head`)
    "json-early": (["--json", "der", "abelian3"], "early", "pipe", (1, "{", "")),
    "text-early": (["der", "--file", "heisenberg7.json"], "early", "pipe",
                   (1, "D", "")),
    "ascii-stdout": (["info", "--file", "greek.json"], "pipe", "pipe", (
        1, "", f"{CANNOT_WRITE}'ascii' codec can't encode character '\\u03b1' "
        "in position 25: ordinal not in range(128)\n"),
        {"PYTHONIOENCODING": "ascii"}),
    "full-stdout": (["info", "sl2"], "full", "pipe", (1, None, ENOSPC)),
    "full-stdout-json": (["--json", "corpus-verify"], "full", "pipe",
                         (1, None, ENOSPC)),
    "closed-stdout": (["info", "sl2"], "closed", "pipe",
                      (1, None, f"{CANNOT_WRITE}standard output is closed\n")),
    "closed-stderr-name": (["info", "nope"], "pipe", "closed", (2, "", None)),
    "closed-stderr-usage": (["nope"], "pipe", "closed", (2, "", None)),
    # the file may be opened as fd 2, which nothing must write to
    "closed-stderr-file": (["info", "--file", "bad.json"], "pipe", "closed",
                           (2, "", None)),
    "gone-stderr": (["info", "nope"], "pipe", "gone", (2, "", None)),
    "full-stderr": (["nope"], "pipe", "full", (2, "", None)),
    "full-both": (["info", "sl2"], "full", "full", (1, None, None)),
    "full-stdout-gone-stderr": (["info", "sl2"], "full", "gone", (1, None, None)),
}
TRACE_CLI = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"
TRACED_CLOSED_STDOUT = pytest.mark.xfail(strict=True, reason=(
    "bench/trace_cli.py main's finally calls sys.stdout.flush(), and "
    "sys.stdout is None when fd 1 was closed at start-up: an AttributeError "
    "traceback follows the error line and no spans file is written"))


def run_with_descriptors(argv, fd1, fd2, cwd, env):
    """Start argv in cwd with fd 1 and fd 2 in the given states: its exit
    code and what was read from each descriptor."""
    import fcntl  # F_SETPIPE_SZ is Linux-only
    states, writers, readers, closes = {1: fd1, 2: fd2}, {}, {}, ""
    for fd, state in states.items():
        if state == "closed":
            closes += f" {fd}>&-"
        elif state == "full":
            writers[fd] = os.open("/dev/full", os.O_WRONLY)
        else:
            readers[fd], writers[fd] = os.pipe()
            if state == "early":
                fcntl.fcntl(writers[fd], fcntl.F_SETPIPE_SZ, 4096)
            if state == "gone":
                os.close(readers.pop(fd))
    try:
        proc = subprocess.Popen(["sh", "-c", 'exec "$0" "$@"' + closes, *argv],
                                stdout=writers.get(1), stderr=writers.get(2),
                                cwd=cwd, env=env)
    finally:
        for w in writers.values():
            os.close(w)
    read = {1: None, 2: None}
    for fd, r in readers.items():  # fd 1 first; stderr holds at most a line
        with open(r, "rb") as pipe:
            read[fd] = pipe.read(1 if states[fd] == "early" else -1).decode()
    return proc.wait(timeout=120), read[1], read[2]


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="F_SETPIPE_SZ and /dev/full")
@pytest.mark.parametrize("row, entry, unbuffered", [
    pytest.param(row, entry, unbuffered, id=f"{row}-{entry}-{mode}", marks=(
        [TRACED_CLOSED_STDOUT] if entry == "traced"
        and DESCRIPTOR_ROWS[row][1] == "closed" else []))
    for row in DESCRIPTOR_ROWS for entry in ("module", "traced")
    for unbuffered, mode in (("", "buffered"), ("1", "unbuffered"))])
def test_each_descriptor_state_gives_its_exit_code(row, entry, unbuffered,
                                                   files, tmp_path):
    argv, fd1, fd2, expected, *env = DESCRIPTOR_ROWS[row]
    spans = tmp_path / "spans.json"
    head = (["-m", "liegraph.cli"] if entry == "module"
            else [str(TRACE_CLI), str(spans)])
    inputs = {path: path.read_bytes() for path in files.iterdir()}
    got = run_with_descriptors(
        [sys.executable, *head, *argv], fd1, fd2, files,
        child.env(PYTHONUNBUFFERED=unbuffered, **(env[0] if env else {})))
    assert got == expected
    assert {path: path.read_bytes() for path in files.iterdir()} == inputs
    assert entry == "module" or spans.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["info", "sl2"], ["--json", "corpus-verify"]])
def test_failed_write_is_one_error_line(argv, capfd):
    # a write error other than EPIPE is reported, unlike a closed reader:
    # every write(2) to /dev/full fails with ENOSPC
    with open("/dev/full", "w") as full, contextlib.redirect_stdout(full):
        assert main(argv) == 1
    assert capfd.readouterr().err == (
        f"error: cannot write the result: {os.strerror(errno.ENOSPC)}\n")


def test_a_name_stdout_cannot_encode_is_one_error_line(files, capfd):
    # the text form prints the names as they are; --json escapes them
    argv = ["info", "--file", str(files / "greek.json")]
    assert child.main_output(argv, encoding="ascii") == (1, "")
    err = capfd.readouterr().err
    assert err.startswith("error: cannot write the result: 'ascii' codec")
    assert err.count("\n") == 1
    code, out = child.main_output(["--json", *argv], encoding="ascii")
    assert (code, json.loads(out)["basis_names"]) == (0, ["α", "β"])
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("argv", [["info", "nope"], ["nope"]])
def test_no_stderr_puts_no_error_line_on_stdout(argv, monkeypatch, capfd):
    # with no stream to take it, the line is dropped, not sent to stdout
    monkeypatch.setattr(sys, "stderr", None)
    assert main(argv) == 2
    assert capfd.readouterr().out == ""

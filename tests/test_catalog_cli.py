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
                              _validate_jacobi, make_lie_algebra)
from liegraph.catalog import (catalog, lookup, parse_algebra_file,
                              serialize_algebra)
from liegraph.cli import _table_lines, main, parse_args
from test_trace_targets import TRACE_CLI


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

    @pytest.mark.parametrize("literal,value", [
        ("3/2", Fraction(3, 2)), ("-3/2", Fraction(-3, 2)), ("+4", Fraction(4)),
        (7, Fraction(7))])
    def test_integer_and_fraction_literals_accepted(self, literal, value):
        text = json.dumps({"dim": 2, "brackets": [
            {"i": 0, "j": 1, "result": [{"k": 1, "coeff": literal}]}]})
        assert parse_algebra_file(text).table[0][1] == (Fraction(0), value)

    @pytest.mark.parametrize("name", [e.name for e in catalog()])
    def test_round_trip(self, name):
        g = lookup(name).algebra
        again = parse_algebra_file(serialize_algebra(g))
        assert again.table == g.table and again.basis_names == g.basis_names


def _one_term(term: dict) -> dict:
    """A 2-dim document whose one bracket [e1, e2] has the one given term."""
    return {"dim": 2, "brackets": [{"i": 0, "j": 1, "result": [term]}]}


# Each document that parse_algebra_file refuses: name, the document (text,
# or an object to dump), its message and, where info does not read it, the
# command that does
_DOCUMENTS = [
    # a coefficient is an exact rational: "1e999999999" would build a
    # billion-digit integer before any check ran
    ("zero-denominator", _one_term({"k": 0, "coeff": "1/0"}),
     "brackets[0]: bad rational literal '1/0'"),
    ("float-coeff", _one_term({"k": 0, "coeff": 0.5}), "brackets[0]: coefficient "
     "must be an exact rational string or integer, got 0.5"),
    *((f"coeff-{s}", _one_term({"k": 0, "coeff": s}),
       f"brackets[0]: bad rational literal {s!r}") for s in ("1e3", "0.5", "1e999999999")),
    # the violation passes through the parser to every command
    *((name, {"dim": 3, "brackets": [
        {"i": 0, "j": 1, "result": [{"k": 2, "coeff": 1}]},
        {"i": 0, "j": 2, "result": [{"k": 0, "coeff": 1}]}]},
       "Jacobi identity fails on basis triple (0, 1, 2), residual (0, 0, 1)", command)
      for name, command in [("jacobi", "verify"), ("jacobi-info", "info")]),
    # [h,e] = 1/2 e, [h,f] = -1/2 f, [e,f] = 3/2 h - 2/3 e: the residual is
    # written as the file writes rationals
    ("jacobi-rational-residual", {"dim": 3, "brackets": [
        {"i": 0, "j": 1, "result": [{"k": 1, "coeff": "1/2"}]},
        {"i": 0, "j": 2, "result": [{"k": 2, "coeff": "-1/2"}]},
        {"i": 1, "j": 2, "result": [{"k": 0, "coeff": "3/2"}, {"k": 1, "coeff": "-2/3"}]}]},
     "Jacobi identity fails on basis triple (0, 1, 2), residual (0, -1/3, 0)", "verify"),
    ("i-not-below-j", {"dim": 2, "brackets": [{"i": 1, "j": 0, "result": []}]},
     "brackets[0]: requires i < j, got (1,0)"),
    ("duplicate-pair", {"dim": 2, "brackets": [{"i": 0, "j": 1, "result": []}] * 2},
     "brackets[1]: duplicate pair (0,1)"),
    # adding the two terms up would load this as abelian
    ("repeated-k", {"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [
        {"k": 2, "coeff": "1"}, {"k": 2, "coeff": "-1"}]}]},
     "brackets[0]: bracket (0,1) gives k=2 twice"),
    ("index-out-of-range", {"dim": 2, "brackets": [{"i": 0, "j": 5, "result": []}]},
     "brackets[0]: indices (0,5) out of range for dim 2"),
    ("malformed-json", "{not json", "malformed JSON: …"),
    # json.loads recurses once per "[" and runs out of stack long before the
    # end of the file
    ("deep-nesting", "[" * 100000, "malformed JSON: …"),
    # 2**70 is past what a list can index, so the pair table is refused
    # before one entry is allocated; a loop over range(dim) would hang
    ("huge-dim", {"dim": 2 ** 70}, f"'dim' {2 ** 70} is too large"),
    ("brackets-int", {"dim": 2, "brackets": 5},
     "top level: 'brackets' must be a list, got 5"),
    ("brackets-null", {"dim": 2, "brackets": None},
     "top level: 'brackets' must be a list, got None"),
    ("result-int", {"dim": 2, "brackets": [{"i": 0, "j": 1, "result": 5}]},
     "brackets[0]: 'result' must be a list, got 5"),
    ("result-object", {"dim": 2, "brackets": [{"i": 0, "j": 1, "result": {"k": 0}}]},
     "brackets[0]: 'result' must be a list, got {'k': 0}"),
    ("dim-bool", {"dim": True}, "'dim' must be a positive integer, got True"),
    ("i-bool", {"dim": 2, "brackets": [{"i": False, "j": 1, "result": []}]},
     "brackets[0]: i and j must be integers"),
    ("j-bool", {"dim": 2, "brackets": [{"i": 0, "j": True, "result": []}]},
     "brackets[0]: i and j must be integers"),
    *((f"k-{name}", _one_term({"k": k, "coeff": 1}), "brackets[0]: k must be an integer")
      for name, k in [("bool", True), ("string", "1"), ("float", 1.0), ("null", None)]),
    ("k-out-of-range", _one_term({"k": 2, "coeff": 1}), "brackets[0]: k=2 out of range for dim 2"),
    ("duplicate-names", {"dim": 3, "basis_names": ["x", "x", "x"]},
     "'basis_names' has duplicates: ['x', 'x', 'x']"),
    ("names-null", {"dim": 2, "basis_names": None}, "'basis_names' must be 2 strings"),
    # a misspelled field would be ignored
    ("unknown-top-key", {"dim": 2, "bracket": []}, "top level: unknown field 'bracket'"),
    ("unknown-bracket-key", {"dim": 2, "brackets": [{"i": 0, "j": 1, "results": []}]},
     "brackets[0]: unknown field 'results'"),
    ("unknown-term-key", _one_term({"k": 1, "coef": 1}),
     "brackets[0]: unknown field 'coef'"),
    # the same in heisenberg3's document, which would load as abelian3
    ("unknown-top-key-heisenberg3", {"dim": 3, "bracket": [{"i": 0, "j": 1, "result": [
        {"k": 2, "coeff": 1}]}]}, "top level: unknown field 'bracket'"),
    ("unknown-bracket-key-heisenberg3", {"dim": 3, "brackets": [{"i": 0, "j": 1, "results": [
        {"k": 2, "coeff": 1}]}]}, "brackets[0]: unknown field 'results'"),
    ("unknown-term-key-heisenberg3", {"dim": 3, "brackets": [{"i": 0, "j": 1, "result": [
        {"k": 2, "coeff": 1, "c": 1}]}]}, "brackets[0]: unknown field 'c'"),
    # json keeps only the last copy of a repeated field, so each of these
    # would load quietly as another algebra: the first as abelian3, the last
    # with [x, y] = 0
    ("repeated-top-brackets", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "result": '
     '[{"k": 2, "coeff": "1"}]}], "brackets": []}', "repeated field 'brackets'"),
    ("repeated-bracket-i", '{"dim": 3, "brackets": [{"i": 1, "j": 1, "i": 0, '
     '"result": [{"k": 2, "coeff": "1"}]}]}', "repeated field 'i'"),
    ("repeated-term-coeff", '{"dim": 3, "brackets": [{"i": 0, "j": 1, "result": '
     '[{"k": 2, "coeff": "1", "coeff": "0"}]}]}', "repeated field 'coeff'"),
    # each basis name is printed bare, so an empty name or one with
    # whitespace would blur or split info's lines, and one that begins with
    # "(" would read as a coefficient term "(c)*name"
    *((f"name-{name}", {"dim": 2, "basis_names": ["x", bad]},
       f"basis_names[1]: {bad!r} is not a name: a name is nonempty and "
       "printable, with no whitespace, and does not begin with '('")
      for name, bad in [("empty", ""), ("space", " "), ("inner-space", "a b"),
                        ("newline", "a\nb"), ("tab", "\t"), ("coefficient", "(2)*z")]),
]
# CPython (3.11 and later) refuses to convert an integer string of more than
# sys.get_int_max_str_digits() digits, 4300 by default. Such an integer in a
# file is a file error that names its field, not CPython's ValueError.
if hasattr(sys, "get_int_max_str_digits"):
    _LONG, _DIGITS = "1" * 5000, f"has more than {sys.get_int_max_str_digits()} digits"
    _TERM = ('{"dim": 2, "brackets": [{"i": 0, "j": 1, "result": [{"k": %s, '
             '"coeff": %s}]}]}')
    _DOCUMENTS += [
        ("digits-dim", '{"dim": %s}' % _LONG, f"'dim' {_DIGITS}"),
        ("digits-i", '{"dim": 2, "brackets": [{"i": %s, "j": 1}]}' % _LONG,
         f"brackets[0]: 'i' {_DIGITS}"),
        ("digits-k", _TERM % (_LONG, 1), f"brackets[0]: 'k' {_DIGITS}"),
        ("digits-coeff-int", _TERM % (1, _LONG), f"brackets[0]: 'coeff' {_DIGITS}"),
        ("digits-coeff-string", _TERM % (1, f'"{_LONG}"'),
         f"brackets[0]: 'coeff' {_DIGITS}"),
        ("digits-coeff-fraction", _TERM % (1, f'"-1/{_LONG}"'),
         f"brackets[0]: 'coeff' {_DIGITS}"),
        ("digits-brackets", '{"dim": 1, "brackets": %s}' % _LONG,
         "top level: 'brackets' must be a list, got <integer past the digit limit>")]


def _document(doc, line: str, command: str = "info"):
    """The row of a document, text or an object to dump, that
    parse_algebra_file refuses with line, read as g.json by command."""
    text = doc if isinstance(doc, str) else json.dumps(doc)
    return ([command, "--file", "g.json"], {"g.json": text}, f"error: {line}",
            lambda: parse_algebra_file(text))


def _usage(argv: list, line: str, files=()):
    """The row of an argv, run beside files, that parse_args refuses with line."""
    return argv, dict(files), f"error: {line}", lambda: parse_args(argv)


_NOT_BOTH = "give an algebra name or --file, not both"
_FILE_VALUE = "--file needs a value"
# Each argv that parse_args refuses: name, argv and its message
_ARGV = [
    ("no-command", [], "a command is required"),
    ("json-alone", ["--json"], "a command is required"),
    ("unknown-command", ["nope"], "unknown command 'nope'"),
    ("name-as-command", ["sl2"], "unknown command 'sl2'"),
    ("double-dash-first", ["--", "info", "sl2"], "unknown command '--'"),
    ("json-with-a-value", ["--json=x", "info", "sl2"], "unknown command '--json=x'"),
    ("cluster-alone", ["-hx"], "unknown command '-hx'"),
    # options are written in full, --json goes before the command, and
    # --theorem is for verify only
    ("prefix-file", ["info", "sl2", "--fi", "x"], "info does not take '--fi'"),
    ("prefix-theorem", ["verify", "sl2", "--theo", "1"], "verify does not take '--theo'"),
    ("json-after-command", ["info", "--json", "sl2"], "info does not take '--json'"),
    ("theorem-for-info", ["info", "sl2", "--theorem", "1"], "info does not take '--theorem'"),
    ("theorem-joined-for-info", ["info", "--theorem=a b"], "info does not take '--theorem=a b'"),
    ("corpus-file", ["corpus-verify", "--file", "x"], "corpus-verify does not take '--file'"),
    ("corpus-double-dash", ["corpus-verify", "--"], "corpus-verify does not take '--'"),
    # an argument that starts with "-" is no algebra name, "--" separates
    # nothing, and -h and --help take no value
    *((f"info-{name}", ["info", arg], f"info does not take {arg!r}") for name, arg in [
        ("dash", "-"), ("minus-5", "-5"), ("minus-.5", "-.5"), ("minus-1.5", "-1.5"),
        ("minus-1e3", "-1e3"), ("minus-5.", "-5."), ("spaced-option", "-x y"),
        ("unknown-option", "--bogus=a b"), ("help-with-a-value", "--help=a b"),
        ("hx", "-hx"), ("hh", "-hh"), ("hhx", "-hhx"), ("h-equals", "-h="),
        ("h-equals-h", "-h=h")]),
    ("name-then-help-with-a-value", ["info", "sl2", "--help=a b"],
     "info does not take '--help=a b'"),
    ("name-then-spaced-h", ["info", "sl2", "-h x"], "info does not take '-h x'"),
    ("double-dash-before-name", ["info", "--", "sl2"], "info does not take '--'"),
    ("double-dash-after-name", ["info", "sl2", "--"], "info does not take '--'"),
    ("double-dash-twice", ["info", "--", "--", "sl2"], "info does not take '--'"),
    ("double-dash-before-theorem", ["verify", "--", "sl2", "--theorem", "1"],
     "verify does not take '--'"),
    ("double-dash-after-file", ["info", "sl2", "--file", "x", "--"], "info does not take '--'"),
    ("double-dash-before-name-after-file", ["info", "--file", "x", "--", "sl2"],
     "info does not take '--'"),
    # a value after a space does not start with "-": --file=-5 names that file
    *((f"file-{name}", [command, "--file", *value], _FILE_VALUE) for name, command, value in [
        ("missing", "info", []), ("dash", "info", ["-"]), ("minus-5", "info", ["-5"]),
        ("minus-.5", "info", ["-.5"]), ("json", "info", ["--json"]),
        ("spaced-option", "info", ["-x y"]), ("theorem-joined", "info", ["--theorem=a b"]),
        ("help-with-a-value", "info", ["--help=a b"]),
        ("theorem-joined-verify", "verify", ["--theorem=a b"])]),
    ("theorem-missing", ["verify", "sl2", "--theorem"], "--theorem needs a value"),
    ("theorem-json", ["verify", "sl2", "--theorem", "--json"], "--theorem needs a value"),
    ("theorem-3", ["verify", "sl2", "--theorem", "3"],
     "--theorem must be one of 1, 2, lemma, all, not '3'"),
    ("theorem-joined-empty", ["verify", "sl2", "--theorem="],
     "--theorem must be one of 1, 2, lemma, all, not ''"),
    # a part given twice is refused: reading the last copy would run
    # theorem 2 alone
    ("theorem-twice", ["verify", "sl2", "--theorem", "1", "--theorem", "2"],
     "--theorem is given twice"),
    ("file-twice", ["info", "--file", "x", "--file=y"], "--file is given twice"),
    ("name-twice", ["info", "sl2", "heisenberg3"], "ALGEBRA is given twice"),
    ("missing-algebra", ["verify"], "an algebra name or --file is required"),
    ("theorem-without-algebra", ["verify", "--theorem=1"], "an algebra name or --file is required"),
    ("empty-file-name-beside-a-name", ["info", "sl2", "--file", ""], _NOT_BOTH),
]

# Every input that the CLI refuses, one row each: name -> (argv, the files it
# names, each text or, where it is not UTF-8, bytes, the one error line, and
# the library call that refuses it, or None). The files lie in the directory
# that argv runs in. A line that ends in "…" is a prefix, and the OS or json
# words the rest.
REFUSED = {
    **{name: _document(*document) for name, *document in _DOCUMENTS},
    "not-utf8": (["info", "--file", "g.json"], {"g.json": b"\xff\xfe"},
                 "error: cannot read g.json: 'utf-8' codec can't decode byte "
                 "0xff in position 0: invalid start byte", None),
    # C(G) names its Der block D1 ... Dm, and full-graph prints both blocks
    **{f"der-block-name{form}": (
        [*flag, "full-graph", "--file", "g.json"], {"g.json": json.dumps({
            **_one_term({"k": 1, "coeff": 1}), "basis_names": ["D1", "D2"]})},
        "error: C(g.json) would name two basis elements 'D1': its Der block "
        "is named D1 to D2", None) for form, flag in [("", []), ("-json", ["--json"])]},
    "unknown-name": (["verify", "nope"], {}, "error: no catalog algebra named 'nope'",
                     lambda: lookup("nope")),
    **{name: _usage(argv, line) for name, argv, line in _ARGV},
    **{f"name-and-file-{command}": _usage(
        [command, "abelian1", "--file", "sl2.json"], _NOT_BOTH,
        {"sl2.json": serialize_algebra(lookup("sl2").algebra)})
       for command in ["info", "der", "dder", "full-graph", "verify"]},
    "empty-file-name": (["info", "--file", ""], {}, "error: cannot read : …", None),
}
# these run in a fresh process too, which shows all of stderr
IN_A_PROCESS = {"deep-nesting", "digits-coeff-int", "jacobi"}


def write_inputs(files: dict, directory: Path) -> dict:
    """Write a row's files into directory: their bytes, by name."""
    for name, x in files.items():
        (directory / name).write_bytes(x if isinstance(x, bytes) else x.encode())
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def assert_line(err: str, line: str) -> None:
    """err is line and a newline; where line ends in "…", err is one line
    that begins with what comes before it."""
    if line.endswith("…"):
        assert err.startswith(line[:-1]) and err.find("\n") == len(err) - 1
    else:
        assert err == line + "\n"


@pytest.mark.parametrize("row", REFUSED)
def test_each_refused_input_is_one_error_line(row, tmp_path, monkeypatch):
    argv, files, line, call = REFUSED[row]
    inputs = write_inputs(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    runs = [child.main_streams(argv)]
    if row in IN_A_PROCESS:
        runs.append(child.run_python("-m", "liegraph.cli", *argv))
    for code, out, err in runs:
        assert (code, out) == (2, "")
        assert_line(err, line)
    if call is not None:
        with pytest.raises(LieError) as exc:
            call()
        assert_line(f"error: {exc.value}\n", line)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == inputs


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
        scanned = []

        def spy(g):
            scanned.append(g)
            return _validate_jacobi(g)

        child.patch_bindings(monkeypatch, _validate_jacobi, spy)
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
    assert child.run_python("-m", "liegraph.cli", *argv,
                            PYTHONUNBUFFERED="1") == (0, out, "")
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
    # fd 1 first; stderr holds at most a line. Unbuffered, "early" takes one
    # byte: a buffered read drains the page, and the writer may then finish
    for fd, r in readers.items():
        with open(r, "rb", buffering=0) as pipe:
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

"""The package functions that no request runs are exactly ALLOWED, each
with the reason it stays; one that only tests reach belongs in tests/. A
"called only by" reason names its callers by module.qualname, and each of
them must still be a def in the package that no request runs either, so a
reason cannot outlive a deleted caller.

So this guard also stands for dense-view spies: a request that built the
dense structure-constant table, wrote a matrix out dense, read a coordinate
vector dense, built a Matrix or a span from dense entries, or read dense
bracket vectors (make_lie_algebra, as_vector) would run a function that
ALLOWED lists, and fail it.

Every command (info, der, dder, full-graph, verify --theorem 1|2|lemma|all),
text and --json, runs in-process under sys.setprofile on the catalog names
and the six bench/fixtures.py algebras at seed 1, and so do corpus-verify,
--help, a usage error (an unknown command), two argv with an option
before the algebra, joined by "=" (verify --theorem=1 sl2 and verify
--theorem=lemma --file=heisenberg7.json), and every input that
tests/test_catalog_cli.py's REFUSED lists, each in a directory of its own.

The package's size is pinned too: CODE_LINES counts the lines of
src/liegraph/*.py that hold code, outside docstrings, comments and blank
lines. A change that moves the count re-pins it and gives the count before
and after in CHANGES.md.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

import liegraph
import trace_cli
from algebras import CATALOG_NAMES, FIXTURES
from child import main_output
from test_catalog_cli import REFUSED, write_inputs
from test_trace_targets import resolve

SRC = Path(liegraph.__file__).resolve().parent
TRACED, DUNDER = "a bench/trace_cli.py TARGETS name", "a value-object dunder"
CALLED = "called only by "
ALLOWED = {
    **dict.fromkeys([
        "algebra.MatrixSpan.coordinates", "algebra.induced_lie_structure",
        "algebra.inner_derivations", "algebra.lie_algebra_from_table",
        "algebra.make_lie_algebra",
        "dtheory.d_bracket", "dtheory.der_action", "dtheory.inner_d_derivation",
        "linalg.Subspace.from_rows", "linalg.nullspace", "linalg.rank",
        "linalg.solve"], TRACED),
    **dict.fromkeys([
        "algebra.LieAlgebra.__eq__", "algebra.LieAlgebra.__hash__",
        "algebra.LieAlgebra.__repr__", "linalg.Matrix.__hash__",
        "linalg.Matrix.__repr__", "linalg.Subspace.__eq__",
        "linalg.Subspace.__hash__", "linalg.Subspace.__repr__"], DUNDER),
    "linalg.as_vector": CALLED + "algebra.make_lie_algebra, linalg.solve, "
                                 "linalg.Matrix.from_rows, linalg.Subspace.from_rows",
    "linalg.Matrix.from_rows": CALLED + "algebra.induced_lie_structure",
    "algebra.LieAlgebra.table": "read by the trace counter of derivation_algebra",
    "linalg.Matrix.flatten": "read by the trace counter of nullspace",
    "catalog.serialize_algebra": "imported by bench/fixtures.py",
    "cli.run": "the process entry, which calls main",
}
COMMANDS = [["info"], ["der"], ["dder"], ["full-graph"]] + [
    ["verify", "--theorem", t] for t in ("1", "2", "lemma", "all")]
WHERE = [[name] for name in CATALOG_NAMES] + [
    ["--file", f"{name}.json"] for name in sorted(FIXTURES.SPECS)]
RUNS = [form + cmd + where for form in ([], ["--json"]) for cmd in COMMANDS
        for where in WHERE] + [["corpus-verify"], ["--json", "corpus-verify"], ["--help"],
                               ["nope"], ["verify", "--theorem=1", "sl2"],
                               ["verify", "--theorem=lemma", "--file=heisenberg7.json"]]


CODE_LINES = 989
NO_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _code_lines(source: str) -> int:
    """The number of lines that a code token touches (tokenize), less the
    lines of each module, class and function docstring (ast)."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.update(range(first.lineno, first.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NO_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings)


def test_package_code_lines_are_pinned():
    assert sum(_code_lines(path.read_text()) for path in SRC.glob("*.py")) == CODE_LINES


def _functions() -> dict[tuple[str, int], str]:
    """module.qualname of every def in the package source, keyed by its
    module and the first line of its code, where its decorators start."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                if isinstance(child, ast.FunctionDef):
                    first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                    out[module, first] = f"{module}.{prefix}{child.name}"
                visit(child, module, f"{prefix}{child.name}.")

    for path in SRC.glob("*.py"):
        visit(ast.parse(path.read_text()), path.stem, "")
    return out


def _traced() -> set[str]:
    """The functions that bench/trace_cli.py wraps, resolved as install does."""
    return {f"{mod_name}.{resolve(mod_name, attr).__qualname__}"
            for mod_name, attr in trace_cli.TARGETS}


def test_every_function_no_request_runs_is_allowed(tmp_path, monkeypatch):
    FIXTURES.write_inputs(sorted(FIXTURES.SPECS), 1, tmp_path)
    for row, (_, files, _, _) in REFUSED.items():
        (tmp_path / row).mkdir()
        write_inputs(files, tmp_path / row)
    monkeypatch.chdir(tmp_path)
    called, refused = set(), {}
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for args in RUNS:
            main_output(args)
        for row, (argv, _, _, _) in REFUSED.items():
            monkeypatch.chdir(tmp_path / row)
            refused[row] = main_output(argv)
    finally:
        sys.setprofile(None)
    assert refused == dict.fromkeys(REFUSED, (2, ""))
    ran = {(Path(c.co_filename).stem, c.co_firstlineno) for c in called
           if Path(c.co_filename).resolve().parent == SRC and c.co_name[0] != "<"}
    functions = _functions()
    assert sorted(functions[key] for key in functions.keys() - ran) == sorted(ALLOWED)
    assert {name for name, why in ALLOWED.items() if why == TRACED} <= _traced()


def test_each_named_caller_is_a_function_no_request_runs():
    callers = {c for why in ALLOWED.values() if why.startswith(CALLED)
               for c in why[len(CALLED):].split(", ")}
    assert callers and callers <= set(_functions().values()) & ALLOWED.keys()

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
--help and two refused files: one breaks Jacobi on (e1, e2, e3), and one has
an integer past the digit limit.
"""

import ast
import importlib
import io
import sys
from pathlib import Path

import liegraph
from algebras import CATALOG_NAMES, FIXTURES
from liegraph.cli import main
from test_trace_targets import _load_trace_cli

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
    "algebra.coboundary": CALLED + "dtheory.inner_d_derivation",
    "linalg.Matrix.__init__": CALLED + "linalg.Matrix.from_rows",
    "linalg.as_vector": CALLED + "algebra.make_lie_algebra, linalg.solve, "
                                 "linalg.Subspace.from_rows",
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
        for where in WHERE] + [["corpus-verify"], ["--json", "corpus-verify"], ["--help"]]
REFUSED = {"jacobi.json": '{"dim": 3, "brackets": [{"i": 0, "j": 1, "result": '
                          '[{"k": 2, "coeff": 1}]}, {"i": 0, "j": 2, "result": '
                          '[{"k": 0, "coeff": 1}]}]}',
           "long.json": '{"dim": 1, "brackets": %s}' % ("1" * 5000)}


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
    names = set()
    for mod_name, attr in _load_trace_cli().TARGETS:
        obj = importlib.import_module(f"liegraph.{mod_name}")
        for part in attr.split("."):
            obj = vars(obj)[part]
        names.add(f"{mod_name}.{getattr(obj, '__func__', obj).__qualname__}")
    return names


def test_every_function_no_request_runs_is_allowed(tmp_path, monkeypatch, capsys):
    FIXTURES.write_inputs(sorted(FIXTURES.SPECS), 1, tmp_path)
    for file_name, text in REFUSED.items():
        (tmp_path / file_name).write_text(text)
    monkeypatch.chdir(tmp_path)
    called = set()
    sys.setprofile(lambda frame, event, arg: event == "call" and called.add(frame.f_code))
    try:
        for args in RUNS:
            main(args, out=io.StringIO())
        refused = [main(["info", "--file", name]) for name in REFUSED]
    finally:
        sys.setprofile(None)
    err = capsys.readouterr().err
    assert refused == [2, 2] and "Jacobi" in err and "digit limit" in err
    ran = {(Path(c.co_filename).stem, c.co_firstlineno) for c in called
           if Path(c.co_filename).resolve().parent == SRC and c.co_name[0] != "<"}
    functions = _functions()
    assert sorted(functions[key] for key in functions.keys() - ran) == sorted(ALLOWED)
    assert {name for name, why in ALLOWED.items() if why == TRACED} <= _traced()


def test_each_named_caller_is_a_function_no_request_runs():
    callers = {c for why in ALLOWED.values() if why.startswith(CALLED)
               for c in why[len(CALLED):].split(", ")}
    assert callers and callers <= set(_functions().values()) & ALLOWED.keys()

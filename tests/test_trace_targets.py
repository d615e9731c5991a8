"""The traced names of bench/trace_cli.py still exist in the package.

``trace_cli.install`` replaces each target as a module attribute or, for
``Class.method``, through the class ``__dict__``; a refactor that renames a
traced function or moves a method off its class would make ``--trace 1``
crash, so this test resolves every target the same way. A traced run of
``verify`` checks that the spans of the two completeness tests see work,
and each counter is called once on a real call of its target.
"""

import importlib
import json
from pathlib import Path

import pytest

import child
import trace_cli  # bench/trace_cli.py, on the path from conftest.py
from liegraph.algebra import derivation_algebra
from liegraph.catalog import lookup
from liegraph.linalg import ZERO, Matrix, Subspace, nullspace, rank, solve

TRACE_CLI = Path(trace_cli.__file__)


def resolve(module_name: str, attr: str):
    """The function trace_cli.install wraps for (module_name, attr): a module
    attribute, or for ``Class.method`` the class ``__dict__`` entry, unwrapped."""
    obj = importlib.import_module(f"liegraph.{module_name}")
    for part in attr.split("."):
        obj = vars(obj)[part]
    return getattr(obj, "__func__", obj)


@pytest.mark.parametrize("module_name,attr", sorted(trace_cli.TARGETS))
def test_trace_target_resolves(module_name, attr):
    assert callable(resolve(module_name, attr))


def test_traced_verify_reaches_both_completeness_spans(tmp_path):
    # theorem2 calls is_complete and is_d_complete once each; a span that
    # reads 0 here means the call path goes round the traced name
    args = ["--json", "verify", "heisenberg3"]
    spans = tmp_path / "spans.json"
    traced = child.run_python(str(TRACE_CLI), str(spans), *args)
    code, out, _ = child.run_python("-m", "liegraph.cli", *args)
    assert traced[:2] == (code, out)
    assert code == 1
    counts = trace_cli.aggregate(json.loads(spans.read_text()))
    assert counts.get("algebra.is_complete.calls") == 1
    assert counts.get("dtheory.is_d_complete.calls") == 1


def test_each_trace_counter_reads_a_real_call_of_its_target():
    # no request reaches the linalg counters, so without this a deleted name
    # that a counter reads (Matrix.flatten, LieAlgebra.table) would make
    # every --trace 1 request crash with no test failing
    counters = trace_cli._counters(trace_cli.Tracer(ZERO))
    m, b, rows = Matrix.from_rows([[1, 2], [2, 4]]), [1, 2], [[1, 2]]
    g = lookup("sl2").algebra
    calls = {
        "linalg.nullspace": ((m,), nullspace(m)),
        "linalg.solve": ((m, b), solve(m, b)),
        "linalg.rank": ((m,), rank(m)),
        # the classmethod's wrapper sees the class first
        "linalg.subspace": ((Subspace, 2, rows), Subspace.from_rows(2, rows)),
        "algebra.derivation_algebra": ((g,), derivation_algebra(g)),
    }
    assert set(calls) == set(counters)
    assert {span: counters[span](*call) for span, call in calls.items()} == {
        "linalg.nullspace": {"rows": 2, "cols": 2, "nnz": 4, "rank": 1},
        "linalg.solve": {"rows": 2, "cols": 2},
        "linalg.rank": {"rows": 2, "cols": 2, "rank": 1},
        "linalg.subspace": {"rows": 1, "cols": 2, "rank": 1},
        "algebra.derivation_algebra": {"input": hash(g.table)},
    }

"""The traced names of bench/trace_cli.py still exist in the package.

``trace_cli.install`` replaces each target as a module attribute or, for
``Class.method``, through the class ``__dict__``; a refactor that renames a
traced function or moves a method off its class would make ``--trace 1``
crash, so this test resolves every target the same way. A traced run of
``verify`` checks that the spans of the two completeness tests see work,
and each counter is called once on a real call of its target.
"""

import importlib
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import child
from liegraph.algebra import derivation_algebra
from liegraph.catalog import lookup
from liegraph.linalg import ZERO, Matrix, Subspace, nullspace, rank, solve

TRACE_CLI = Path(__file__).resolve().parents[1] / "bench" / "trace_cli.py"


def _load_trace_cli():
    spec = importlib.util.spec_from_file_location("trace_cli", TRACE_CLI)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = sorted(_load_trace_cli().TARGETS)


@pytest.mark.parametrize("module_name,attr", TARGETS)
def test_trace_target_resolves(module_name, attr):
    module = importlib.import_module(f"liegraph.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in vars(getattr(module, cls_name))
    else:
        assert callable(getattr(module, attr))


def test_traced_verify_reaches_both_completeness_spans(tmp_path):
    # theorem2 calls is_complete and is_d_complete once each; a span that
    # reads 0 here means the call path goes round the traced name
    env = child.env()
    args = ["--json", "verify", "heisenberg3"]
    spans = tmp_path / "spans.json"
    traced = subprocess.run([sys.executable, str(TRACE_CLI), str(spans), *args],
                            capture_output=True, text=True, env=env)
    plain = subprocess.run([sys.executable, "-m", "liegraph.cli", *args],
                           capture_output=True, text=True, env=env)
    assert (traced.returncode, traced.stdout) == (plain.returncode, plain.stdout)
    assert plain.returncode == 1
    counts = _load_trace_cli().aggregate(json.loads(spans.read_text()))
    assert counts.get("algebra.is_complete.calls") == 1
    assert counts.get("dtheory.is_d_complete.calls") == 1


def test_each_trace_counter_reads_a_real_call_of_its_target():
    # no request reaches the linalg counters, so without this a deleted name
    # that a counter reads (Matrix.flatten, LieAlgebra.table) would make
    # every --trace 1 request crash with no test failing
    trace_cli = _load_trace_cli()
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

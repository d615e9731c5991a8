"""The traced names of bench/trace_cli.py still exist in the package.

``trace_cli.install`` replaces each target as a module attribute or, for
``Class.method``, through the class ``__dict__``; a refactor that renames a
traced function or moves a method off its class would make ``--trace 1``
crash, so this test resolves every target the same way. A traced run of
``verify`` checks that the spans of the two completeness tests see work.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])])}
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

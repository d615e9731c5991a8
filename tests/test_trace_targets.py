"""The traced names of bench/trace_cli.py still exist in the package.

``trace_cli.install`` replaces each target as a module attribute or, for
``Class.method``, through the class ``__dict__``; a refactor that renames a
traced function or moves a method off its class would make ``--trace 1``
crash, so this test resolves every target the same way.
"""

import importlib
import importlib.util
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

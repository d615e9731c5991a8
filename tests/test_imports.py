"""What the package imports, and what a request pays for at start-up.

Every name a package module imports is read in that module. An import
left behind by a refactor still runs at every start-up, so it costs each
request its time and hides that the code it served is gone.
``__init__.py`` re-exports its names, and ``__future__`` imports are
directives, so both are exempt. A request never loads ``dataclasses``,
whose own imports (``inspect``, ``ast``, ``dis``, ``tokenize``) cost more
start-up time than a small check computes.
"""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

from liegraph.algebra import make_lie_algebra

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "liegraph"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_caught():
    source = "from __future__ import annotations\nimport os\nfrom x import a, b\nb()\n"
    assert unused_imports(source) == ["a", "os"]


def test_a_request_imports_no_dataclasses_or_inspect():
    # -S: no site-packages .pth file may import a module first and hide
    # (or fake) what the request itself loads
    code = ("import io, sys\n"
            "from liegraph.cli import main\n"
            "code = main(['--json', 'verify', 'sl2'], out=io.StringIO())\n"
            "print(code, sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "0 []\n"


def test_the_catalog_attribute_is_the_submodule(monkeypatch):
    import liegraph
    import liegraph.catalog as module

    assert isinstance(module, types.ModuleType)
    assert liegraph.catalog is module
    built = []

    def counting(n, brackets, basis_names=None):
        built.append(n)
        return make_lie_algebra(n, brackets, basis_names)

    monkeypatch.setattr("liegraph.catalog.make_lie_algebra", counting)
    assert module.lookup("affine2").algebra.dim == 2
    assert built == [2]

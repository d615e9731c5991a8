"""What the package imports, and what a request pays for at start-up.

Every name a package module or a test file imports is read in that file.
An import left behind by a refactor still runs at every start-up, so it
costs each request its time and hides that the code it served is gone; in
a test, it hides which API the test no longer calls.
``__future__`` imports are directives, so they are exempt. A request never
loads ``dataclasses``, whose own imports (``inspect``, ``ast``, ``dis``,
``tokenize``) cost more start-up time than a small check computes, nor
``argparse`` with its ``gettext`` and ``locale``: ``cli.parse_args`` reads
every command line itself, and no package module imports argparse. The
package root imports nothing, so a process that reads only the algebra
and the catalog loads neither the d-theory nor the checks. Every top-level
function of the tests' two references, ``reference.py`` and ``oracle.py``,
is called in tests/, so a fold that deletes a reference's last caller
cannot leave the reference behind.
"""

import ast
import subprocess
import sys
import types
from pathlib import Path

import pytest

import child
from liegraph.catalog import parse_algebra_file

TESTS = sorted(Path(__file__).parent.glob("*.py"))
MODULES = sorted(child.PACKAGE.glob("*.py")) + TESTS


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


@pytest.mark.parametrize("path", MODULES, ids=[
    f"tests/{p.name}" if p in TESTS else p.name for p in MODULES])
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unread_import_is_caught():
    source = "from __future__ import annotations\nimport os\nfrom x import a, b\nb()\n"
    assert unused_imports(source) == ["a", "os"]


def uncalled(module: str, sources: dict[str, str]) -> list[str]:
    """The top-level functions of sources[module] that no source calls: by
    module.name, by a name imported from module, or by name from module
    itself."""
    tree = ast.parse(sources[module])
    defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    called = set()
    for stem, source in sources.items():
        tree = ast.parse(source)
        # each name a call may use -> the function of module it calls
        local = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == module
                 for alias in node.names}
        local.update({name: name for name in defined if stem == module})
        for node in ast.walk(tree):
            f = getattr(node, "func", None)
            if (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == module):
                called.add(f.attr)
            elif isinstance(f, ast.Name) and f.id in local:
                called.add(local[f.id])
    return sorted(defined - called)


@pytest.mark.parametrize("module", ["reference", "oracle"])
def test_every_reference_function_is_called(module):
    # a fold that deletes a reference's last caller deletes the reference too
    sources = {p.stem: p.read_text(encoding="utf-8") for p in TESTS}
    assert uncalled(module, sources) == []


def test_an_uncalled_reference_is_caught():
    sources = {"ref": "def a(): b()\ndef b(): pass\ndef c(): pass\ndef d(): pass\n",
               "test_x": "import ref\nfrom ref import d as e\nref.a()\ne()\n"}
    assert uncalled("ref", sources) == ["c"]


def test_a_request_imports_no_dataclasses_or_inspect():
    # -S: no site-packages .pth file may import a module first and hide
    # (or fake) what the request itself loads
    code = ("import sys\n"
            "from liegraph.cli import main\n"
            "code = main(['--json', 'verify', 'sl2'])\n"
            "print(code, sorted({'dataclasses', 'inspect', 'argparse', 'gettext',\n"
            "                    'locale'} & set(sys.modules)))\n")
    run = subprocess.run([sys.executable, "-S", "-c", code], env=child.env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.endswith("}\n0 []\n")


def test_the_algebra_and_catalog_load_no_dtheory_or_fullgraph():
    code = ("import sys\n"
            "import liegraph.algebra\n"
            "from liegraph.catalog import lookup\n"
            "print(lookup('sl2').algebra.dim, sorted(\n"
            "    {'liegraph.dtheory', 'liegraph.fullgraph'} & set(sys.modules)))\n")
    run = subprocess.run([sys.executable, "-S", "-c", code], env=child.env(),
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "3 []\n"


def test_the_catalog_attribute_is_the_submodule(monkeypatch):
    import liegraph
    import liegraph.catalog as module

    assert isinstance(module, types.ModuleType)
    assert liegraph.catalog is module
    built = []

    def counting(text):
        g = parse_algebra_file(text)
        built.append(g.dim)
        return g

    monkeypatch.setattr("liegraph.catalog.parse_algebra_file", counting)
    assert module.lookup("affine2").algebra.dim == 2
    assert built == [2]

"""The environment of a child process, so that it imports the package this
test run imported: the checkout's ``src/`` under ``PYTHONPATH=src``, or an
installed copy when the tests run against one. A child that built its path
from the checkout instead would test the checkout while the parent tests
the install; ``run_python`` starts one. ``main_output`` and ``main_streams``
run the CLI in this process instead, writing to real files as a process
writes to its fd 1 and fd 2, and ``patch_bindings`` spies on a function."""

import contextlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import liegraph
from liegraph.cli import main

PACKAGE = Path(liegraph.__file__).resolve().parent


def env(**extra: str) -> dict:
    """os.environ with the directory that holds the imported package first
    on PYTHONPATH, and with the given variables set."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}


def run_python(*args: str, **extra: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``python`` args in a child with
    env(**extra), decoded as UTF-8 with no newline translation; the CLI is
    run_python("-m", "liegraph.cli", *argv)."""
    proc = subprocess.run([sys.executable, *args],
                          capture_output=True, timeout=120, env=env(**extra))
    return proc.returncode, proc.stdout.decode(), proc.stderr.decode()


def main_output(argv, encoding: str = "utf-8") -> tuple[int, str]:
    """main(argv)'s exit code and what it wrote to standard output, a
    temporary file in the given encoding."""
    with tempfile.TemporaryFile("w+", encoding=encoding, newline="") as out:
        with contextlib.redirect_stdout(out):
            code = main(argv)
        out.seek(0)
        return code, out.read()


def main_streams(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code and what it wrote to standard output and to
    standard error, each a temporary file."""
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as err:
        with contextlib.redirect_stderr(err):
            code, out = main_output(argv)
        err.seek(0)
        return code, out, err.read()


def patch_bindings(monkeypatch, original, replacement) -> None:
    """Set replacement wherever a package module binds original, as
    bench/trace_cli.py's install does; importing the CLI loaded them all."""
    for module in [m for n, m in sys.modules.items() if n.startswith("liegraph.")]:
        for name, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, name, replacement)

"""The environment of a child process, so that it imports the package this
test run imported: the checkout's ``src/`` under ``PYTHONPATH=src``, or an
installed copy when the tests run against one. A child that built its path
from the checkout instead would test the checkout while the parent tests
the install. ``main_output`` and ``main_streams`` run the CLI in this process
instead, writing to real files as a process writes to its fd 1 and fd 2."""

import contextlib
import os
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

"""The environment of a child process, so that it imports the package this
test run imported: the checkout's ``src/`` under ``PYTHONPATH=src``, or an
installed copy when the tests run against one. A child that built its path
from the checkout instead would test the checkout while the parent tests
the install."""

import os
from pathlib import Path

import liegraph

PACKAGE = Path(liegraph.__file__).resolve().parent


def env(**extra: str) -> dict:
    """os.environ with the directory that holds the imported package first
    on PYTHONPATH, and with the given variables set."""
    path = [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path), **extra}

"""Deliberate faults that the benchmark's pinned outputs must catch.

Each row of FAULTS names one package function and a wrapper that breaks
it: a sign, a count, a verdict or a dropped row. The fault is applied in
this process through child.patch_bindings, wherever a package module binds
the function, and the requests that test_golden.py replays against
bench/pins.json run again until one gives another exit code or output
hash. A check that raises (InternalConsistencyError) exits 2 with no
output, which changes the hash too, and so does a crash: an exception that
escapes main ends the process with exit 1 and nothing on stdout. A fault
that no request catches fails its row: the pins would not see that fault
in the program.
"""

import hashlib
import types

import pytest

import reference
from algebras import FIXTURES
from child import patch_bindings
from liegraph import dtheory, fullgraph, linalg
from test_golden import BENCH_REQUESTS, PINS, hashed


def _with_globals(fn, **names):
    """fn, reading the given names in place of its module's globals."""
    return types.FunctionType(fn.__code__, {**fn.__globals__, **names},
                              fn.__name__, fn.__defaults__, fn.__closure__)


def _without_last_row(reduce):
    """reduce(ncols, rows) on all of the rows but the last."""
    return lambda ncols, rows: reduce(ncols, list(rows)[:-1])


# name -> (the function, a wrapper that makes the faulty one from it)
FAULTS = {
    "h_derivation-negates-g-rows": (fullgraph.h_derivation, reference.sign_mutation),
    "is_d_complete-counts-one-more-inner": (
        dtheory.is_d_complete,
        lambda f: lambda dspace, cd: (ev := f(dspace, cd))._replace(
            inner_d_dim=ev.inner_d_dim + 1)),
    "check_lemma-reports-no-match": (
        fullgraph.check_lemma, lambda f: lambda ws: f(ws)._replace(match=False)),
    "der_cg_blocks-drops-its-last-row": (
        fullgraph.der_cg_blocks,
        lambda f: _with_globals(
            f, sparse_nullspace=_without_last_row(linalg.sparse_nullspace))),
    "_subtract-adds": (linalg._subtract,
                       lambda f: lambda row, x, other: f(row, -x, other)),
    "build_h-negates-its-action": (
        dtheory.build_h,
        lambda f: lambda dspace: tuple(a.scale(-1) for a in f(dspace))),
    "span-drops-its-last-row": (linalg.span, _without_last_row),
}


def _replayed(argv):
    """hashed(argv), or what the process makes of an exception that escapes
    main: exit 1, the traceback on stderr and nothing on stdout."""
    try:
        return hashed(argv)
    except Exception:
        return 1, hashlib.sha256(b"").hexdigest()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("inputs")
    FIXTURES.write_inputs(FIXTURES.LADDER + FIXTURES.EXPLORE,
                          PINS["default_seed"], directory)
    return directory


@pytest.mark.parametrize("fault", FAULTS)
def test_fault_changes_a_pinned_output(fault, inputs, monkeypatch):
    original, make_faulty = FAULTS[fault]
    patch_bindings(monkeypatch, original, make_faulty(original))
    monkeypatch.chdir(inputs)
    pins = PINS["requests"]
    caught = next((req.id for req in BENCH_REQUESTS
                   if _replayed(["--json", *req.args])
                   != (pins[req.id]["exit"], pins[req.id]["sha256"])), None)
    assert caught is not None, f"no pinned request catches {fault}"

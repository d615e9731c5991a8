"""The command line, read by ``cli.parse_args``, and the process entry.

``tests/reference.build_parser`` is the argparse form of the same command
line. On argv lists drawn from the CLI's own vocabulary, the two must
accept the same lists with the same fields, and ask for help on the same
ones. ``python -m liegraph.cli`` runs ``cli.run``, which ends the process
with ``os._exit``; its output must be byte-identical to ``main``'s.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import reference
from liegraph.algebra import LieError
from liegraph.catalog import catalog
from liegraph.cli import main, parse_args

SRC = Path(__file__).resolve().parents[1] / "src"
COMMANDS = ["info", "der", "dder", "full-graph", "verify", "corpus-verify"]
FIELDS = ("json", "command", "algebra", "file", "theorem")

# each token is one or more argv entries: "--file x" stays one pair, and
# --theorem comes alone, before each of its values and joined to two. A
# lone "-" and a negative integer start with "-" but are values to argparse
THEOREMS = ("1", "2", "lemma", "all", "3")
TOKENS = st.sampled_from(
    [(c,) for c in COMMANDS] + [(e.name,) for e in catalog()]
    + [(t,) for t in ("nope", "--json", "--file=x", "--theorem", *THEOREMS,
                      "--theorem=lemma", "--theorem=3", "-h", "--help",
                      "--bogus", "-", "-5")]
    + [("--file", f) for f in ("x", "-", "-5")]
    + [("--theorem", t) for t in THEOREMS])


@st.composite
def command_lines(draw):
    """Free token lists, and lists that start like a command line, so that
    both rejected and accepted argv come up often."""
    tokens = draw(st.lists(TOKENS, max_size=6))
    if draw(st.booleans()):
        head = [("--json",)] if draw(st.booleans()) else []
        tokens = head + [(draw(st.sampled_from(COMMANDS)),)] + tokens[:3]
    return [a for token in tokens for a in token]


def reference_outcome(argv):
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            ns = reference.build_parser().parse_args(argv)
        except SystemExit as exc:
            return "help" if exc.code == 0 else "error"
    return {k: getattr(ns, k, None) for k in FIELDS}


def outcome(argv):
    try:
        args = parse_args(argv)
    except LieError:
        return "error"
    if args is None:
        return "help"
    fields = {k: getattr(args, k) for k in FIELDS}
    if args.command != "verify":
        fields["theorem"] = None  # argparse sets theorem on verify only
    return fields


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv, out=out)
    return code, out.getvalue(), err.getvalue()


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_parser_accepts_what_argparse_accepts(argv):
    expected = reference_outcome(argv)
    assert outcome(argv) == expected
    if expected == "error":
        code, out, err = run_main(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--json", "--help"],
                                  ["verify", "-h"], ["info", "nope", "--help"]])
def test_help_exits_0_and_names_every_command(argv):
    code, out, err = run_main(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: liegraph ")
    assert all(f"  {c} " in out for c in COMMANDS)


@pytest.mark.parametrize("argv", [
    ["info", "sl2", "--fi", "x"],       # no prefix abbreviations
    ["verify", "sl2", "--theo", "1"],
    ["info", "--json", "sl2"],          # --json goes before the command
    ["info", "sl2", "--theorem", "1"],  # --theorem is for verify only
    ["corpus-verify", "--file", "x"],
    ["verify", "sl2", "--theorem"],
    ["verify", "sl2", "--theorem", "--json"],
    ["info", "--file", "--json"],       # an option is no value
    ["info", "--file", "-h"],
    ["sl2"],
    [],
])
def test_usage_error_is_one_line_and_exit_2(argv):
    assert reference_outcome(argv) == outcome(argv) == "error"
    code, out, err = run_main(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv, field, error", [
    (["info", "-"], "algebra", "no catalog algebra named '-'"),
    (["info", "-5"], "algebra", "no catalog algebra named '-5'"),
    (["info", "--file", "-"], "file", "cannot read -: "),
    (["info", "--file", "-5"], "file", "cannot read -5: "),
])
def test_a_lone_dash_and_a_negative_integer_are_values(argv, field, error):
    # argparse reads both as values, so they parse as the algebra name or
    # the file, and only the lookup or the read refuses them
    expected = reference_outcome(argv)
    assert outcome(argv) == expected and expected[field] == argv[-1]
    code, out, err = run_main(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


@pytest.mark.parametrize("argv, code", [
    (["--json", "verify", "sl2"], 0),
    (["verify", "heisenberg3"], 1),
    (["verify", "sl2", "--theorem", "3"], 2),
    (["--help"], 0),
])
def test_entry_output_equals_main(argv, code):
    # run() flushes both streams before os._exit, which would drop
    # anything left in a buffer
    proc = subprocess.run([sys.executable, "-m", "liegraph.cli", *argv],
                          capture_output=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(SRC)})
    expected = run_main(argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected[1].encode(), expected[2].encode())

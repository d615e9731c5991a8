"""The command line, read by ``cli.parse_args``, and the process entry.

``parse_args`` reads the common form itself and hands every other argv to
``cli._argparse``, the running Python's argparse. On argv lists drawn from
the CLI's own vocabulary, the two must accept the same lists with the same
fields, and ask for help on the same ones, so an argv reads the same on
either path. ``python -m liegraph.cli`` runs ``cli.run``, which ends the
process with ``os._exit``; its output must be byte-identical to ``main``'s.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import child
from liegraph import cli
from liegraph.algebra import LieError
from liegraph.catalog import catalog
from liegraph.cli import parse_args

COMMANDS = ["info", "der", "dder", "full-graph", "verify", "corpus-verify"]

# each token is one or more argv entries: "--file x" stays one pair, and
# --theorem comes alone, before each of its values and joined to two.
# argparse versions differ on some readings of "--", a negative decimal or
# exponent, a spaced argument, and -h or --json with an explicit argument,
# so the comparison is with the running one
THEOREMS = ("1", "2", "lemma", "all", "3")
TOKENS = st.sampled_from(
    [(c,) for c in COMMANDS] + [(e.name,) for e in catalog()]
    + [(t,) for t in ("nope", "--json", "--file=x", "--theorem", *THEOREMS,
                      "--theorem=lemma", "--theorem=3", "-h", "--help",
                      "--bogus", "-", "-5", "--", "-.5", "-1e3", "-x y",
                      "-hx", "-h=", "--json=x", "")]
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


def outcome(parse, argv):
    try:
        args = parse(argv)
    except LieError:
        return "error"
    return "help" if args is None else vars(args)


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_parser_accepts_what_argparse_accepts(argv):
    expected = outcome(cli._argparse, argv)
    assert outcome(parse_args, argv) == expected
    if expected == "error":
        code, out, err = child.main_streams(argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--json", "--help"],
                                  ["verify", "-h"], ["info", "nope", "--help"],
                                  ["info", "-hh"], ["info", "-h=h"]])
def test_help_exits_0_and_names_every_command(argv):
    code, out, err = child.main_streams(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: liegraph ")
    assert all(f"  {c} " in out for c in COMMANDS)


# an error on the argparse of every Python version, whatever its wording
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
    # values that the lookup or the read refuses
    ["info", "-.5"],
    ["info", "-1.5"],
    ["info", "-x y"],
    ["info", "--bogus=a b"],
    ["info", "--theorem=a b"],
    ["info", "--file", "-.5"],
    ["info", "--file", "-x y"],
    ["info", "--file", "--theorem=a b"],
    # options with a value or none that no command takes
    ["info", "-1e3"],
    ["info", "-5."],
    ["info", "sl2", "--help=a b"],
    ["info", "--file", "--help=a b"],
    ["verify", "--file", "--theorem=a b"],
    ["info", "--help=a b"],
    ["info", "-h="],
    ["verify", "--", "sl2", "--theorem", "1"],
    ["info", "--", "--", "sl2"],
    ["info", "sl2", "--file", "x", "--"],
    ["corpus-verify", "--"],
    ["--", "info", "sl2"],
    ["--json=x", "-h"],
    ["--json=", "--help"],
    ["--json=x", "info", "sl2"],
    ["info", "--", "-h"],
    ["info", "--file", "x", "--", "sl2"],
])
def test_usage_error_is_one_line_and_exit_2(argv):
    code, out, err = child.main_streams(argv)
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
    assert getattr(parse_args(argv), field) == argv[-1]
    code, out, err = child.main_streams(argv)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {error}") and err.count("\n") == 1


def help_with_a_value(number, argv, value):
    # the ids keep the numbers these cases had in a longer table
    error = f"argument -h/--help: ignored explicit argument {value!r}"
    return pytest.param(argv, error, id=f"argv{number}-{error}")


@pytest.mark.parametrize("argv, error", [
    help_with_a_value(2, ["info", "sl2", "-h x"], " x"),
    help_with_a_value(6, ["info", "-hx", "-h"], "x"),
    help_with_a_value(7, ["info", "-hx"], "x"),
    help_with_a_value(9, ["-hx"], "x"),
    help_with_a_value(10, ["info", "-hhx"], "x"),
])
def test_other_arguments_that_start_with_a_dash_are_options(argv, error):
    # -h with anything after it is an option even with a space, so never the
    # algebra name: argparse 3.10 to 3.12 refuse its explicit argument where
    # it is met, even before a later -h, and 3.13.0 reads it as help
    code, out, err = child.main_streams(argv)
    if code == 0:
        assert err == "" and out.startswith("usage: liegraph ")
    else:
        assert (code, out, err) == (2, "", f"error: {error}\n")


# after the command, "--" makes every later argument a value, and the
# algebra takes the first one
@pytest.mark.parametrize("argv, algebra, file", [
    (["info", "--", "sl2"], "sl2", None),
    (["info", "sl2", "--"], "sl2", None),
])
def test_double_dash_makes_every_later_argument_a_value(argv, algebra, file):
    args = parse_args(argv)
    assert (args.command, args.algebra, args.file) == ("info", algebra, file)


@pytest.mark.parametrize("argv, code", [
    (["--json", "verify", "sl2"], 0),
    (["verify", "heisenberg3"], 1),
    (["verify", "sl2", "--theorem", "3"], 2),
    (["--help"], 0),
])
def test_entry_output_equals_main(argv, code):
    # run() ends with os._exit, which would drop anything left in a
    # buffer: main writes the result to fd 1 and an error line to fd 2 itself
    proc = subprocess.run([sys.executable, "-m", "liegraph.cli", *argv],
                          capture_output=True, timeout=120, env=child.env())
    expected = child.main_streams(argv)
    assert expected[0] == code
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        code, expected[1].encode(), expected[2].encode())

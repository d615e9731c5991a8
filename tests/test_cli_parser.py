"""The command line's grammar, as ``cli.parse_args`` reads it, and the
process entry.

``[--json] COMMAND``, then, in any order and each at most once, an ALGEBRA
name (a word that does not start with "-") and each option the command
takes, spaced or joined by "=". On argv lists drawn from the CLI's own
vocabulary, an accepted argv gives the same fields in every such spelling,
one that holds -h or --help asks for help, and every other one is one
``error: …`` line and exit 2. ``tests/test_catalog_cli.py``'s ``REFUSED``
holds the exact line of each refusal. ``python -m liegraph.cli`` runs
``cli.run``, which ends the process with ``os._exit``; its output must be
byte-identical to ``main``'s.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

import child
from liegraph.algebra import LieError
from liegraph.catalog import catalog
from liegraph.cli import parse_args

COMMANDS = ["info", "der", "dder", "full-graph", "verify", "corpus-verify"]

# each token is one or more argv entries: "--file x" stays one pair, and
# --theorem comes alone, before each of its values and joined to two. PARTS
# holds the tokens of each part: an algebra name, a file, a theorem
THEOREMS = ("1", "2", "lemma", "all", "3")
PARTS = [[(e.name,) for e in catalog()],
         [("--file=x",), ("--file=-5",)] + [("--file", f) for f in ("x", "-", "-5")],
         [("--theorem=lemma",), ("--theorem=3",)] + [("--theorem", t) for t in THEOREMS]]
TOKENS = st.sampled_from(
    [token for part in PARTS for token in part] + [(c,) for c in COMMANDS]
    + [(t,) for t in ("nope", "--json", "--theorem", *THEOREMS, "-h", "--help",
                      "--bogus", "-", "-5", "--", "-.5", "-1e3", "-x y", "-hx", "-h=",
                      "--json=x", "")])


@st.composite
def command_lines(draw):
    """Free token lists, and lists that start like a command line, followed
    by free tokens or by at most one token of each part in some order, so
    that both rejected and accepted argv come up often."""
    tokens = draw(st.lists(TOKENS, max_size=6))
    if draw(st.booleans()):
        head = [("--json",)] if draw(st.booleans()) else []
        rest = tokens[:3] if draw(st.booleans()) else draw(st.permutations(
            [draw(st.sampled_from(part)) for part in PARTS if draw(st.booleans())]))
        tokens = head + [(draw(st.sampled_from(COMMANDS)),)] + rest
    return [a for token in tokens for a in token]


def _option(key: str, value: str) -> list[list[str]]:
    """An option's spellings: joined by "=" and, unless value starts with
    "-", spaced."""
    return [[f"{key}={value}"]] + ([[key, value]] if value[:1] != "-" else [])


def spellings(args) -> list[list[str]]:
    """Every argv that reads as args: its ALGEBRA, --file and --theorem
    parts in each order and each spelling, and without --theorem all."""
    parts = [[[args.algebra]]] if args.algebra is not None else []
    if args.file is not None:
        parts.append(_option("--file", args.file))
    if args.command == "verify":
        parts.append(_option("--theorem", args.theorem)
                     + ([[]] if args.theorem == "all" else []))
    head = ["--json"] * args.json + [args.command]
    return [head + [a for part in order for a in part]
            for chosen in itertools.product(*parts)
            for order in itertools.permutations(chosen)]


@given(command_lines())
@settings(max_examples=400, deadline=None)
def test_an_argv_is_read_by_the_grammar_or_refused_in_one_line(argv):
    helps = "-h" in argv or "--help" in argv
    try:
        args = parse_args(argv)
    except LieError as exc:
        assert not helps
        assert child.main_streams(argv) == (2, "", f"error: {exc}\n")
        assert "\n" not in str(exc)
        return
    assert (args is None) == helps
    if args is not None:
        forms = spellings(args)
        assert argv in forms
        assert all(vars(parse_args(form)) == vars(args) for form in forms)


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["--json", "--help"],
                                  ["verify", "-h"], ["info", "nope", "--help"],
                                  ["corpus-verify", "--help"],
                                  ["verify", "sl2", "--theorem", "1", "-h"],
                                  ["info", "--file", "-h"], ["--json=x", "-h"],
                                  ["--json=", "--help"], ["info", "--", "-h"],
                                  ["info", "-hx", "-h"]])
def test_help_exits_0_and_names_every_command(argv):
    code, out, err = child.main_streams(argv)
    assert code == 0 and err == ""
    assert out.startswith("usage: liegraph ")
    assert all(f"  {c} " in out for c in COMMANDS)


@pytest.mark.parametrize("argv, code", [
    (["--json", "verify", "sl2"], 0),
    (["verify", "heisenberg3"], 1),
    (["verify", "sl2", "--theorem", "3"], 2),
    (["--help"], 0),
])
def test_entry_output_equals_main(argv, code):
    # run() ends with os._exit, which would drop anything left in a
    # buffer: main writes the result to fd 1 and an error line to fd 2 itself
    expected = child.main_streams(argv)
    assert expected[0] == code
    assert child.run_python("-m", "liegraph.cli", *argv) == expected

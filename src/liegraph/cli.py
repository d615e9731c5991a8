"""Command-line interface: parse_args reads argv, and main runs the command.

Subcommands: info, der, dder, full-graph, verify, corpus-verify. Each one
returns its `--json` document, its text lines and its exit code, and
`main` renders the form that was asked for to one string. It writes all of
it, or an error line, to the descriptor of sys.stdout or sys.stderr, so
nothing is left in a buffer; an error line that stderr cannot take is
dropped, and the exit code stays. `run`, the process entry, then ends with
os._exit, skipping interpreter teardown.
Exit codes: 0 all requested checks pass, 1 a verification failed or the
result could not be written, 2 input/usage error.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import fullgraph as fg_mod
from .algebra import (LieAlgebra, LieError, center, derived_subalgebra,
                      is_complete)
from .catalog import catalog, lookup, parse_algebra_file, sparse_brackets
from .linalg import Matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _load_algebra(args) -> tuple[str, LieAlgebra]:
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise LieError(f"cannot read {args.file}: {exc}") from None
        return args.file, parse_algebra_file(text)
    entry = lookup(args.algebra)
    return entry.name, entry.algebra


def _matrix_cells(m: Matrix) -> list[list[str]]:
    return [[str(x) for x in m.row(r)] for r in range(m.rows)]


def _fmt_cells(cells: list[list[str]]) -> str:
    width = max((len(x) for row in cells for x in row), default=1)
    return "\n".join("  [" + "  ".join(x.rjust(width) for x in row) + "]"
                     for row in cells)


def _table_lines(alg: LieAlgebra) -> list[str]:
    names = alg.basis_names
    out = []
    for i, row in enumerate(alg.pairs):
        for j, terms in enumerate(row[i + 1:], i + 1):
            if terms:
                rhs = " + ".join(names[k] if c == 1 else f"({c})*{names[k]}"
                                 for k, c in terms)
                out.append(f"[{names[i]}, {names[j]}] = {rhs}")
    return out or ["(abelian)"]


def report_to_dict(rep: fg_mod.VerificationReport) -> dict:
    """Each check's evidence fields and verdict, and the dimensions behind
    the two completeness tests that theorem2 compares."""
    doc: dict = {"algebra": rep.algebra_name, "passed": rep.passed}
    for key in ("theorem1", "lemma", "theorem2"):
        part = getattr(rep, key)
        if part is not None:
            doc[key] = {**part._asdict(), "passed": part.passed}
    for key, part in (("d_completeness", rep.d_evidence),
                      ("full_graph_completeness", rep.cg_evidence)):
        if part is not None:
            doc[key] = {k: v for k, v in part._asdict().items() if k.endswith("_dim")}
    return doc


def _report_lines(rep: fg_mod.VerificationReport) -> list[str]:
    ok = lambda b: "pass" if b else "FAIL"
    lines = [f"== {rep.algebra_name} =="]
    if rep.theorem1 is not None:
        t = rep.theorem1
        lines += [
            f"theorem1: {ok(t.passed)}",
            f"  generators are derivations: {ok(t.each_generator_is_derivation)}",
            f"  bracket homomorphism:       {ok(t.bracket_homomorphism)}",
            f"  injective:                  {ok(t.injective)}",
            f"  dim H = {t.dim_h}, dim Der(C(G)) = {t.dim_der_cg}, "
            f"spans equal: {ok(t.image_equals_der_cg)}"]
    if rep.lemma is not None:
        l = rep.lemma
        lines.append(f"lemma:    {ok(l.passed)}  (dim center C(G) = "
                     f"{l.center_cg_dim}, dim d-center = {l.d_center_dim})")
    if rep.theorem2 is not None:
        t2 = rep.theorem2
        lines.append(f"theorem2: {ok(t2.passed)}  (d-complete: {t2.d_complete}, "
                     f"C(G) complete: {t2.full_graph_complete})")
    lines.append(f"overall:  {ok(rep.passed)}")
    return lines


def _cmd_info(args):
    name, g = _load_algebra(args)
    ws = fg_mod._Workspace(g)
    cc, dc = is_complete(g, ws.der.dim, center(g)), ws.d_completeness
    dims = {
        "center_dim": cc.center_dim,
        "derived_subalgebra_dim": derived_subalgebra(g).dim,
        "der_dim": ws.der.dim,
        "inner_der_dim": cc.inner_dim,
        "d_space_dim": dc.d_space_dim,
        "inner_d_dim": dc.inner_d_dim,
        "d_center_dim": dc.d_center_dim,
    }
    doc = {"algebra": name, "dim": g.dim, "basis_names": list(g.basis_names),
           **dims}
    lines = [f"{name}: dim {g.dim}, basis {', '.join(g.basis_names)}",
             *("  " + t for t in _table_lines(g)),
             *(f"{key.replace('_', ' ')}: {v}" for key, v in dims.items())]
    return doc, lines, EXIT_OK


def _span_result(doc: dict, span, header: str, label: str):
    """A span's basis matrices and bracket table: as JSON, beside doc; as
    text, under header, each matrix after label.format(its number)."""
    alg = span.as_lie_algebra
    cells = [_matrix_cells(b) for b in span.matrices]
    lines = [header]
    for i, c in enumerate(cells, 1):
        lines += [label.format(i), _fmt_cells(c)]
    lines += ["bracket table:", *("  " + t for t in _table_lines(alg))]
    return ({**doc, "basis": cells, "structure_constants": sparse_brackets(alg)},
            lines, EXIT_OK)


def _cmd_der(args):
    name, g = _load_algebra(args)
    der = fg_mod._Workspace(g).der
    return _span_result({"algebra": name, "der_dim": der.dim}, der,
                        f"Der({name}): dimension {der.dim}", "D{} =")


def _cmd_dder(args):
    name, g = _load_algebra(args)
    ws = fg_mod._Workspace(g)
    p, inner = ws.d_completeness.d_space_dim, ws.d_completeness.inner_d_dim
    return _span_result(
        {"algebra": name, "d_space_dim": p, "inner_d_dim": inner}, ws.dspace,
        f"d-derivations of {name}: dimension {p} (inner: {inner})",
        "L{} (columns indexed by the Der basis) =")


def _cmd_full_graph(args):
    name, g = _load_algebra(args)
    ws = fg_mod._Workspace(g)
    der, cg = ws.der, ws.cg
    # G's names are distinct, and so are those of the Der block, D1 ... Dm
    der_names = set(cg.basis_names[:der.dim])
    for x in g.basis_names:
        if x in der_names:
            raise LieError(f"C({name}) would name two basis elements {x!r}: "
                           f"its Der block is named D1 to D{der.dim}")
    doc = {"algebra": name, "dim": cg.dim, "basis_names": list(cg.basis_names),
           "structure_constants": sparse_brackets(cg)}
    lines = [f"C({name}): dimension {cg.dim} "
             f"(Der block {der.dim}, algebra block {g.dim})",
             *("  " + t for t in _table_lines(cg))]
    return doc, lines, EXIT_OK


def _cmd_verify(args):
    name, g = _load_algebra(args)
    rep = fg_mod.verify(g, name, args.theorem)
    return (report_to_dict(rep), _report_lines(rep),
            EXIT_OK if rep.passed else EXIT_VERIFY_FAILED)


def _cmd_corpus_verify(args):
    reports = [fg_mod.verify(entry.algebra, entry.name, "all")
               for entry in catalog()]
    return ([report_to_dict(r) for r in reports],
            [line for r in reports for line in _report_lines(r)],
            EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED)


# the subcommands that read one algebra: name -> (handler, help)
_ALGEBRA_COMMANDS = {
    "info": (_cmd_info, "dimensions of the derived objects"),
    "der": (_cmd_der, "derivation algebra basis and table"),
    "dder": (_cmd_dder, "d-derivation basis and bracket table"),
    "full-graph": (_cmd_full_graph, "structure constants of C(G)"),
    "verify": (_cmd_verify, "run the theorem checks on one algebra"),
}
_COMMANDS = {**_ALGEBRA_COMMANDS, "corpus-verify": (
    _cmd_corpus_verify, "run all checks on every catalog entry")}
USAGE = "\n".join([
    "usage: liegraph [--json] COMMAND [ALGEBRA | --file FILE] [--theorem T]",
    "ALGEBRA is a catalog name, FILE a structure-constant JSON file, and T",
    "(verify only) 1, 2, lemma or all, the default. Commands:",
    *(f"  {c:<15}{h}" for c, (_, h) in _COMMANDS.items())])


def parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """json, command, algebra, file and theorem, or None for -h or --help
    anywhere in argv. After [--json] COMMAND come, in any order and each at
    most once, the ALGEBRA name, a word that does not start with "-", and
    each option the command takes, as --OPTION VALUE or --OPTION=VALUE; a
    value after a space does not start with "-" either. Any other argv, and
    an algebra command given both or neither of ALGEBRA and --file, raises
    LieError."""
    if "-h" in argv or "--help" in argv:
        return None
    json_flag = argv[:1] == ["--json"]
    command, *rest = argv[json_flag:] or [None]
    if command not in _COMMANDS:
        raise LieError("a command is required" if command is None
                       else f"unknown command {command!r}")
    args = SimpleNamespace(json=json_flag, command=command, algebra=None,
                           file=None, theorem="all")
    # the options the command takes
    options = {"--file": command in _ALGEBRA_COMMANDS,
               "--theorem": command == "verify"}
    given, rest = set(), iter(rest)
    for arg in rest:
        key, eq, value = arg.partition("=")
        if command in _ALGEBRA_COMMANDS and not arg.startswith("-"):
            key, value = "ALGEBRA", arg
        elif not options.get(key):
            raise LieError(f"{command} does not take {arg!r}")
        elif not eq:  # the next argument, and "-" if there is none
            value = next(rest, "-")
            if value.startswith("-"):
                raise LieError(f"{key} needs a value")
        if key in given:
            raise LieError(f"{key} is given twice")
        if key == "--theorem" and value not in fg_mod.CHECKS:
            raise LieError(f"--theorem must be one of "
                           f"{', '.join(fg_mod.CHECKS)}, not {value!r}")
        given.add(key)
        setattr(args, key.lstrip("-").lower(), value)
    if command in _ALGEBRA_COMMANDS and (args.file is None) == (args.algebra is None):
        raise LieError("an algebra name or --file is required" if args.file is None
                       else "give an algebra name or --file, not both")
    return args


def _write(stream, text: str, name: str) -> None:
    """Write all of text to the descriptor of stream, sys.stdout or
    sys.stderr, encoded as stream encodes, so nothing waits in its buffer.
    A None stream, whose descriptor was closed at start-up, raises OSError
    "<name> is closed"; a failed write raises OSError or ValueError."""
    if stream is None:
        raise OSError(errno.EBADF, f"{name} is closed")
    fd = stream.fileno()
    data = text.encode(stream.encoding, stream.errors)
    while data:  # write(2) may take only a part
        data = data[os.write(fd, data):]


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        doc, lines, code = ((None, [USAGE], EXIT_OK) if args is None
                            else _COMMANDS[args.command][0](args))
    except (LieError, ValueError) as exc:
        code, error = EXIT_USAGE, f"error: {exc}\n"
    else:
        text = (json.dumps(doc, indent=2, sort_keys=True) if args and args.json
                else "\n".join(lines)) + "\n"
        try:
            _write(sys.stdout, text, "standard output")
            return code
        except BrokenPipeError:  # a reader that closed early (`... | head`)
            return EXIT_VERIFY_FAILED
        except (OSError, ValueError) as exc:
            # a full disk, a basis name that stdout's encoding cannot hold,
            # a stdout with no descriptor
            reason = getattr(exc, "strerror", None) or exc
            code = EXIT_VERIFY_FAILED
            error = f"error: cannot write the result: {reason}\n"
    # the exit code is fixed: an error line that stderr cannot take is dropped
    with contextlib.suppress(OSError, ValueError):
        _write(sys.stderr, error, "standard error")
    return code


def run() -> None:
    """The process entry: main(), then os._exit without teardown. main
    leaves nothing in the buffer of stdout or stderr."""
    os._exit(main())


if __name__ == "__main__":
    run()

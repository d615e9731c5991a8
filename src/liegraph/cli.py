"""Command-line interface, read off the command table without argparse.

Subcommands: info, der, dder, full-graph, verify, corpus-verify. Each one
returns its `--json` document, its text lines and its exit code, and
`main` renders the form that was asked for to one string and writes it in
one call. `run`, the process entry, then flushes both streams and ends
with os._exit, skipping interpreter teardown.
Exit codes: 0 all requested checks pass, 1 a verification failed or the
result could not be written, 2 input/usage error.
"""

from __future__ import annotations

import io
import json
import os
import sys
from types import SimpleNamespace
from typing import Optional, Sequence

from . import fullgraph as fg_mod
from .algebra import (LieAlgebra, LieError, center, derivation_algebra,
                      derived_subalgebra, is_complete)
from .catalog import (CatalogError, catalog, lookup, parse_algebra_file,
                      sparse_brackets)
from .dtheory import d_center, d_derivations, is_d_complete
from .fullgraph import VerificationReport, build_full_graph
from .linalg import Matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _load_algebra(args) -> tuple[str, LieAlgebra]:
    if args.file is not None and args.algebra is not None:
        raise LieError("give an algebra name or --file, not both")
    if args.file is not None:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise LieError(f"cannot read {args.file}: {exc}") from None
        return args.file, parse_algebra_file(text)
    if args.algebra is None:
        raise LieError("an algebra name or --file is required")
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


def report_to_dict(rep: VerificationReport) -> dict:
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


def _report_lines(rep: VerificationReport) -> list[str]:
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
    der = derivation_algebra(g)
    cc = is_complete(g, der.dim, center(g))
    dc = is_d_complete(d_derivations(der), d_center(der))
    dims = {
        "center_dim": cc.center_dim,
        "derived_subalgebra_dim": derived_subalgebra(g).dim,
        "der_dim": der.dim,
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
    der = derivation_algebra(g)
    return _span_result({"algebra": name, "der_dim": der.dim}, der,
                        f"Der({name}): dimension {der.dim}", "D{} =")


def _cmd_dder(args):
    name, g = _load_algebra(args)
    der = derivation_algebra(g)
    dspace = d_derivations(der)
    dc = is_d_complete(dspace, d_center(der))
    p, inner = dc.d_space_dim, dc.inner_d_dim
    return _span_result(
        {"algebra": name, "d_space_dim": p, "inner_d_dim": inner}, dspace,
        f"d-derivations of {name}: dimension {p} (inner: {inner})",
        "L{} (columns indexed by the Der basis) =")


def _cmd_full_graph(args):
    name, g = _load_algebra(args)
    der = derivation_algebra(g)
    cg = build_full_graph(der)
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


def _is_option(a: str) -> bool:
    """Whether argparse reads a as an option: it starts with "-" and is
    neither a lone "-" nor a negative integer, which argparse takes as
    values while no option of its own looks like a negative number."""
    return a.startswith("-") and a != "-" and not a[1:].isdecimal()


def parse_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """json, command, algebra, file and theorem, or None for -h or --help.
    Read left to right as argparse reads it: a bad command or option value
    raises LieError where it is met, a left-over argument only at the end."""
    args = SimpleNamespace(json=False, command=None, algebra=None, file=None,
                           theorem="all")
    extra, rest = [], iter(argv)
    for a in rest:
        key, eq, value = a.partition("=")
        if a in ("-h", "--help"):
            return None
        if a == "--json" and args.command is None:
            args.json = True
        elif (key == "--file" and args.command in _ALGEBRA_COMMANDS
              or key == "--theorem" and args.command == "verify"):
            # a missing value reads as the option "--"
            if not eq and _is_option(value := next(rest, "--")):
                raise LieError(f"{key} needs a value")
            if key == "--theorem" and value not in ("1", "2", "lemma", "all"):
                raise LieError("--theorem takes 1, 2, lemma or all")
            setattr(args, key[2:], value)
        elif args.command is None and not _is_option(a):
            if a not in _COMMANDS:
                raise LieError(f"unknown command {a!r}; see liegraph --help")
            args.command = a
        elif (_is_option(a) or args.algebra is not None
              or args.command not in _ALGEBRA_COMMANDS):
            extra.append(a)
        else:
            args.algebra = a
    if args.command is None or extra:
        raise LieError(f"unrecognized arguments: {' '.join(extra)}" if args.command
                       else "a command is required; see liegraph --help")
    return args


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
        doc, lines, code = ((None, [USAGE], EXIT_OK) if args is None
                            else _COMMANDS[args.command][0](args))
    except (LieError, CatalogError, ValueError) as exc:
        print(f"error: {exc.args[0] if exc.args else exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        out.write((json.dumps(doc, indent=2, sort_keys=True) if args and args.json
                   else "\n".join(lines)) + "\n")
        out.flush()
    except OSError as exc:
        # EPIPE, a reader that closed early (`liegraph ... | head`), is
        # silent, and any other failure (a full disk) one error line. Point
        # stdout at devnull so the flush after main (run's, or the
        # interpreter's at exit) cannot raise again, and exit 1.
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write the result: {exc.strerror}", file=sys.stderr)
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_VERIFY_FAILED
    return code


def run() -> None:
    """The process entry: main(), flushed, then os._exit without teardown.
    Unbuffered (-u), stdout's text layer drops unreported what a raw
    write(2) leaves; a BufferedWriter writes it, or meets EPIPE."""
    if isinstance(sys.stdout.buffer, io.RawIOBase):
        sys.stdout = io.TextIOWrapper(
            io.BufferedWriter(sys.stdout.buffer), sys.stdout.encoding,
            sys.stdout.errors, newline="\n", write_through=True)
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()

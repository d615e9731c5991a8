"""Command-line interface.

Subcommands: info, der, dder, full-graph, verify, corpus-verify.
Exit codes: 0 all requested checks pass, 1 a verification failed or
stdout was closed before all output was written, 2 input/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Optional, Sequence

from . import fullgraph as fg_mod
from .algebra import (LieAlgebra, LieError, center, derivation_algebra,
                      derived_subalgebra, inner_derivations)
from .catalog import (CatalogError, catalog, lookup, parse_algebra_file,
                      sparse_brackets)
from .dtheory import d_center, d_derivations
from .fullgraph import VerificationReport, build_full_graph
from .linalg import Matrix

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2


def _load_algebra(args) -> tuple[str, LieAlgebra]:
    if args.file and args.algebra:
        raise LieError("give an algebra name or --file, not both")
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise LieError(f"cannot read {args.file}: {exc}") from None
        return args.file, parse_algebra_file(text)
    if not args.algebra:
        raise LieError("an algebra name or --file is required")
    entry = lookup(args.algebra)
    return entry.name, entry.algebra


def _write_json(data, out) -> None:
    json.dump(data, out, indent=2, sort_keys=True)
    out.write("\n")


def _fmt_matrix(m: Matrix) -> str:
    cells = _matrix_cells(m)
    width = max((len(x) for row in cells for x in row), default=1)
    return "\n".join("  [" + "  ".join(x.rjust(width) for x in row) + "]"
                     for row in cells)


def _matrix_cells(m: Matrix) -> list[list[str]]:
    return [[str(m[r, c]) for c in range(m.cols)] for r in range(m.rows)]


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
            doc[key] = {**asdict(part), "passed": part.passed}
    for key, part in (("d_completeness", rep.d_evidence),
                      ("full_graph_completeness", rep.cg_evidence)):
        if part is not None:
            doc[key] = {k: v for k, v in asdict(part).items() if k.endswith("_dim")}
    return doc


def _print_report(rep: VerificationReport, out) -> None:
    ok = lambda b: "pass" if b else "FAIL"
    print(f"== {rep.algebra_name} ==", file=out)
    if rep.theorem1 is not None:
        t = rep.theorem1
        print(f"theorem1: {ok(t.passed)}", file=out)
        print(f"  generators are derivations: {ok(t.each_generator_is_derivation)}",
              file=out)
        print(f"  bracket homomorphism:       {ok(t.bracket_homomorphism)}", file=out)
        print(f"  injective:                  {ok(t.injective)}", file=out)
        print(f"  dim H = {t.dim_h}, dim Der(C(G)) = {t.dim_der_cg}, "
              f"spans equal: {ok(t.image_equals_der_cg)}", file=out)
    if rep.lemma is not None:
        l = rep.lemma
        print(f"lemma:    {ok(l.passed)}  "
              f"(dim center C(G) = {l.center_cg_dim}, dim d-center = {l.d_center_dim})",
              file=out)
    if rep.theorem2 is not None:
        t2 = rep.theorem2
        print(f"theorem2: {ok(t2.passed)}  "
              f"(d-complete: {t2.d_complete}, C(G) complete: {t2.full_graph_complete})",
              file=out)
    print(f"overall:  {ok(rep.passed)}", file=out)


def _cmd_info(args, out) -> int:
    name, g = _load_algebra(args)
    der = derivation_algebra(g)
    dspace = d_derivations(der)
    data = {
        "algebra": name,
        "dim": g.dim,
        "basis_names": list(g.basis_names),
        "center_dim": center(g).dim,
        "derived_subalgebra_dim": derived_subalgebra(g).dim,
        "der_dim": der.dim,
        "inner_der_dim": inner_derivations(g).dim,
        "d_space_dim": dspace.dim,
        "inner_d_dim": dspace.inner.dim,
        "d_center_dim": d_center(der).dim,
    }
    if args.json:
        _write_json(data, out)
    else:
        print(f"{name}: dim {g.dim}, basis {', '.join(g.basis_names)}", file=out)
        for line in _table_lines(g):
            print("  " + line, file=out)
        for key in ("center_dim", "derived_subalgebra_dim", "der_dim",
                    "inner_der_dim", "d_space_dim", "inner_d_dim", "d_center_dim"):
            print(f"{key.replace('_', ' ')}: {data[key]}", file=out)
    return EXIT_OK


def _write_span(args, out, data: dict, span, header: str, label: str) -> int:
    """A span's basis matrices and bracket table: as JSON, beside data; as
    text, under header, each matrix after label.format(its number)."""
    alg = span.as_lie_algebra
    if args.json:
        _write_json({**data, "basis": [_matrix_cells(b) for b in span.matrices],
                     "structure_constants": sparse_brackets(alg)}, out)
    else:
        print(header, file=out)
        for i, b in enumerate(span.matrices, 1):
            print(label.format(i), file=out)
            print(_fmt_matrix(b), file=out)
        print("bracket table:", file=out)
        for line in _table_lines(alg):
            print("  " + line, file=out)
    return EXIT_OK


def _cmd_der(args, out) -> int:
    name, g = _load_algebra(args)
    der = derivation_algebra(g)
    return _write_span(args, out, {"algebra": name, "der_dim": der.dim}, der,
                       f"Der({name}): dimension {der.dim}", "D{} =")


def _cmd_dder(args, out) -> int:
    name, g = _load_algebra(args)
    dspace = d_derivations(derivation_algebra(g))
    p, inner = dspace.dim, dspace.inner.dim
    return _write_span(
        args, out, {"algebra": name, "d_space_dim": p, "inner_d_dim": inner},
        dspace, f"d-derivations of {name}: dimension {p} (inner: {inner})",
        "L{} (columns indexed by the Der basis) =")


def _cmd_full_graph(args, out) -> int:
    name, g = _load_algebra(args)
    der = derivation_algebra(g)
    cg = build_full_graph(der)
    if args.json:
        data = {
            "algebra": name,
            "dim": cg.dim,
            "basis_names": list(cg.basis_names),
            "structure_constants": sparse_brackets(cg),
        }
        _write_json(data, out)
    else:
        print(f"C({name}): dimension {cg.dim} "
              f"(Der block {der.dim}, algebra block {g.dim})", file=out)
        for line in _table_lines(cg):
            print("  " + line, file=out)
    return EXIT_OK


def _cmd_verify(args, out) -> int:
    name, g = _load_algebra(args)
    rep = fg_mod.verify(g, name, args.theorem)
    if args.json:
        _write_json(report_to_dict(rep), out)
    else:
        _print_report(rep, out)
    return EXIT_OK if rep.passed else EXIT_VERIFY_FAILED


def _cmd_corpus_verify(args, out) -> int:
    reports = [fg_mod.verify(entry.algebra, entry.name, "all")
               for entry in catalog()]
    if args.json:
        _write_json([report_to_dict(r) for r in reports], out)
    else:
        for rep in reports:
            _print_report(rep, out)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="liegraph",
        description="Exact verification of holomorph constructions on "
                    "finite-dimensional Lie algebras over Q.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_algebra_args(p):
        p.add_argument("algebra", nargs="?",
                       help="catalog algebra name (see corpus-verify for the list)")
        p.add_argument("--file", help="structure-constant JSON file")

    p = sub.add_parser("info", help="dimensions of the derived objects")
    add_algebra_args(p)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("der", help="derivation algebra basis and table")
    add_algebra_args(p)
    p.set_defaults(func=_cmd_der)

    p = sub.add_parser("dder", help="d-derivation basis and bracket table")
    add_algebra_args(p)
    p.set_defaults(func=_cmd_dder)

    p = sub.add_parser("full-graph", help="structure constants of C(G)")
    add_algebra_args(p)
    p.set_defaults(func=_cmd_full_graph)

    p = sub.add_parser("verify", help="run the theorem checks on one algebra")
    add_algebra_args(p)
    p.add_argument("--theorem", choices=["1", "2", "lemma", "all"],
                   default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("corpus-verify",
                       help="run all checks on every catalog entry")
    p.set_defaults(func=_cmd_corpus_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    out = out or sys.stdout
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        code = args.func(args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # The reader closed early (`liegraph ... | head`). Point stdout at
        # devnull so the flush at interpreter exit cannot raise again, and
        # exit 1 as Python does after EPIPE.
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_VERIFY_FAILED
    except (LieError, CatalogError, ValueError) as exc:
        msg = exc.args[0] if exc.args else str(exc)
        print(f"error: {msg}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())

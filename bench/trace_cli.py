"""The liegraph CLI with spans around the public functions of each module.

    PYTHONPATH=src python3 bench/trace_cli.py SPANS.json [liegraph arguments]

behaves like ``python -m liegraph.cli [liegraph arguments]`` (same output,
same exit code) and at exit writes the spans it recorded to SPANS.json.
A span is ``[name, start, end, parent, counters]``: ``parent`` is the index
of the enclosing span or -1, and ``counters`` is a dict or null. The wrappers
are installed from outside: the package source is not modified. Each target
is replaced both as a module attribute and wherever a sibling module bound
it with ``from .x import y``, so every call path goes through the span.

``aggregate`` turns one request's spans into per-layer numbers; it imports
nothing from liegraph, so run.py can use it too.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute) -> span name. A dotted attribute is a method.
TARGETS = {
    ("linalg", "nullspace"): "linalg.nullspace",
    ("linalg", "solve"): "linalg.solve",
    ("linalg", "rank"): "linalg.rank",
    ("linalg", "Subspace.from_rows"): "linalg.subspace",
    ("linalg", "Matrix.__matmul__"): "linalg.matmul",
    ("algebra", "derivation_algebra"): "algebra.derivation_algebra",
    ("algebra", "induced_lie_structure"): "algebra.structure_table",
    ("algebra", "DerivationAlgebra.coordinates_of"): "algebra.coordinates_of",
    ("algebra", "lie_algebra_from_table"): "algebra.validate",
    ("algebra", "make_lie_algebra"): "algebra.make_lie_algebra",
    ("algebra", "is_complete"): "algebra.is_complete",
    ("algebra", "center"): "algebra.center",
    ("algebra", "inner_derivations"): "algebra.inner_derivations",
    ("algebra", "derived_subalgebra"): "algebra.derived_subalgebra",
    ("dtheory", "d_derivations"): "dtheory.d_derivations",
    ("dtheory", "d_bracket"): "dtheory.d_bracket",
    ("dtheory", "der_action"): "dtheory.der_action",
    ("dtheory", "build_h"): "dtheory.build_h",
    ("dtheory", "d_center"): "dtheory.d_center",
    ("dtheory", "is_d_complete"): "dtheory.is_d_complete",
    ("dtheory", "inner_d_derivation"): "dtheory.inner_d_derivation",
    ("dtheory", "DDerivationSpace.coordinates_of"): "dtheory.coordinates_of",
    ("fullgraph", "verify"): "fullgraph.verify",
    ("fullgraph", "build_full_graph"): "fullgraph.build_full_graph",
    ("fullgraph", "h_derivation"): "fullgraph.h_derivation",
    ("fullgraph", "check_theorem1"): "fullgraph.check_theorem1",
    ("fullgraph", "check_lemma"): "fullgraph.check_lemma",
    ("fullgraph", "check_theorem2"): "fullgraph.check_theorem2",
    ("catalog", "catalog"): "catalog.build",
    ("catalog", "lookup"): "catalog.lookup",
    ("catalog", "parse_algebra_file"): "catalog.parse",
    ("cli", "main"): "cli.main",
    ("cli", "report_to_dict"): "cli.report",
}

LAYERS = ("linalg", "algebra", "dtheory", "fullgraph", "catalog", "cli")
CHECKS = ("fullgraph.check_theorem1", "fullgraph.check_lemma",
          "fullgraph.check_theorem2")
COUNT_SPAN = "trace.count"  # time spent computing counters; in no layer


class Tracer:
    """Spans of one process, kept in memory until `dump`."""

    def __init__(self, zero):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._zero = zero  # the shared Fraction(0) of liegraph.linalg

    def wrap(self, name: str, fn, counters=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if counters is not None:
                # counting is a sibling span in no layer, so the enclosing
                # span is not charged for it
                count_rec = [COUNT_SPAN, clock(), 0.0, stack[-1] if stack else -1,
                             None]
                spans.append(count_rec)
                rec[4] = counters(args, result)
                count_rec[2] = clock()
            return result
        return traced

    def nnz(self, m) -> int:
        # zeros built by linalg are the shared ZERO object, which tuple.count
        # matches by identity; computed zeros still compare equal
        return len(m.flatten()) - m.flatten().count(self._zero)

    def dump(self, path: str, import_s: float) -> None:
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans}, fh)


def _counters(tracer: Tracer) -> dict:
    """Span name -> function of (args, result) giving that call's counters."""
    return {
        "linalg.nullspace": lambda a, r: {
            "rows": a[0].rows, "cols": a[0].cols, "nnz": tracer.nnz(a[0]),
            "rank": a[0].cols - r.dim},
        "linalg.solve": lambda a, r: {"rows": a[0].rows, "cols": a[0].cols},
        "linalg.rank": lambda a, r: {"rows": a[0].rows, "cols": a[0].cols,
                                     "rank": r},
        # a classmethod: a[0] is the class
        "linalg.subspace": lambda a, r: {"rows": len(a[2]), "cols": a[1],
                                         "rank": r.dim},
        # distinct inputs are told apart by the structure constants
        "algebra.derivation_algebra": lambda a, r: {"input": hash(a[0].table)},
    }


def install(tracer: Tracer) -> None:
    """Replace every target by its traced wrapper, in all liegraph modules."""
    modules = [m for n, m in sys.modules.items()
               if (n == "liegraph" or n.startswith("liegraph.")) and m is not None]
    counters = _counters(tracer)
    for (mod_name, attr), span in TARGETS.items():
        mod = sys.modules[f"liegraph.{mod_name}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                raw = raw.__func__
                setattr(cls, meth, classmethod(tracer.wrap(span, raw, counters.get(span))))
            else:
                setattr(cls, meth, tracer.wrap(span, raw, counters.get(span)))
            continue
        original = getattr(mod, attr)
        wrapped = tracer.wrap(span, original, counters.get(span))
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is original:
                    setattr(m, key, wrapped)


def aggregate(doc: dict) -> dict:
    """Per-layer numbers of one request from its dumped spans.

    ``<layer>.self_s`` is the time of the layer's spans not covered by their
    child spans; ``<span>.s`` is inclusive time of outermost spans of that
    name; ``<span>.calls`` counts calls. Linear-system counters are summed
    (``nnz``, ``rank_sum``, ``cells``) or maximised (``rows_max``,
    ``cols_max``). ``algebra.der_cg.*`` are Der(...) calls beneath a
    fullgraph check, with the number of distinct inputs among them.
    """
    spans = doc["spans"]
    out: dict = defaultdict(int)
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child_time[rec[3]] += rec[2] - rec[1]
    der_cg_inputs = set()
    for idx, (name, start, end, parent, cnt) in enumerate(spans):
        layer = name.split(".")[0]
        if layer in LAYERS:
            out[f"{layer}.self_s"] += (end - start) - child_time[idx]
        out[f"{name}.calls"] += 1
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(spans[p][0])
            p = spans[p][3]
        if name not in ancestors:
            out[f"{name}.s"] += end - start
        if cnt:
            if "rows" in cnt:
                out[f"{name}.rows_max"] = max(out[f"{name}.rows_max"], cnt["rows"])
                out[f"{name}.cols_max"] = max(out[f"{name}.cols_max"], cnt["cols"])
                out[f"{name}.cells"] += cnt["rows"] * cnt["cols"]
            if "nnz" in cnt:
                out[f"{name}.nnz"] += cnt["nnz"]
            if "rank" in cnt:
                out[f"{name}.rank_sum"] += cnt["rank"]
        if name == "algebra.derivation_algebra" and any(a in CHECKS for a in ancestors):
            out["algebra.der_cg.calls"] += 1
            out["algebra.der_cg.s"] += end - start
            der_cg_inputs.add(cnt["input"])
    out["algebra.der_cg.distinct"] = len(der_cg_inputs)
    out["cli.import_s"] = doc["import_s"]
    return dict(out)


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import liegraph.cli
    import_s = time.perf_counter() - t0
    from liegraph.linalg import ZERO
    tracer = Tracer(ZERO)
    install(tracer)
    try:
        return liegraph.cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

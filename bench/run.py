"""liegraph benchmark: seeded CLI workloads with pinned outputs.

    python3 bench/run.py --workload {corpus,ladder,explore,all} --seed N \
        --seconds S --trace {0,1}

Every request is one CLI invocation as users run it: a fresh
``python -m liegraph.cli --json ...`` process with PYTHONPATH=src, run one at
a time by a single client (a closed loop). A fresh process per request means
no state crosses requests, and interpreter start-up plus import count the way
users pay them. Each request's exit code and output are checked against
``pins.json``; a request that times out, crashes or mismatches counts as
failed and the run goes on.

A run makes ``max(1, seconds // PASS_S[workload])`` passes over the
workload's requests, each pass in a seeded order. The pass count depends
only on ``--seconds``, so two commits are measured on the same requests and
the same number of samples, and a percentile means the same on both.

Times are reported at a fixed reference speed. ``reference/liegraph`` is a
frozen copy of the program as it was when this benchmark was defined.
Between requests the benchmark runs one fixed request on that copy (the
reference request, about 10% of the run), and every time metric is scaled by
the reference request's latency on the reference machine over its mean
latency in this run. The host's speed drifts by a quarter or more over
minutes, in CPU time as much as in wall time; the reference request is the
same kind of work as the requests and drifts with them, while no change to
the program under ``src`` changes it. The summary lines also print the
unscaled values.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs one untraced
and one traced pass (traced requests go through ``trace_cli.py``) and prints
the per-layer metrics. The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
REFERENCE_SRC = BENCH / "reference"

# Catalog entries requested by name; fixed here so a new catalog entry does
# not change the workload.
CORPUS_NAMES = ("abelian1", "abelian2", "abelian3", "affine2", "heisenberg3",
                "sl2", "sl2_plus_abelian1")

# Seconds planned per pass: a run makes max(1, seconds // PASS_S) passes. On
# the 2-core machine the baselines come from, a pass takes 4-7 s (corpus),
# 12-21 s (ladder) and 12-20 s (explore) unscaled, as the host's speed
# drifts, so with --seconds 40 a run makes 5, 2 and 2 passes and, with its
# reference requests and set-ups, lasts 24-33 s, 29-45 s and 33-47 s.
PASS_S = {"corpus": 8.0, "ladder": 20.0, "explore": 20.0}
# Wall-clock limit of one request: about four times its slowest request.
REQUEST_LIMIT_S = {"corpus": 10.0, "ladder": 45.0, "explore": 12.0}
# No request starts later than this after the run began; a skipped request
# counts as failed, so a hanging program still ends the run in time.
RUN_DEADLINE_S = 150.0
SETUP_AT_START = 3  # set-ups before the first request; one more follows
# each reference request
# The reference request, run on the frozen copy of the program; its output
# is checked against the pin of the same request of the corpus workload.
REFERENCE = ("verify:abelian3:2", ("verify", "abelian3", "--theorem", "2"))
# After each request, reference requests run until they have taken this share
# of the time the requests took, so that they spread over the run as the
# requests do.
REFERENCE_SHARE = 0.12
# Latency of the reference request on the reference machine (a 2-vCPU KVM
# guest, Intel Xeon, Python 3.11.7) in its slower state; time metrics are
# scaled to it.
REFERENCE_LATENCY_S = 0.40

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("pass_s", "s", "lower"),
    ("request_p50_s", "s", "lower"),
    ("request_tail_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

PER_LAYER = (
    [("linalg.self_s", "s", "lower"),
     ("linalg.nullspace.calls", "count", "lower"),
     ("linalg.nullspace.s", "s", "lower"),
     ("linalg.nullspace.rows_max", "count", "lower"),
     ("linalg.nullspace.cols_max", "count", "lower"),
     ("linalg.nullspace.nnz", "count", "lower"),
     ("linalg.nullspace.rank_sum", "count", "lower"),
     ("linalg.solve.calls", "count", "lower"),
     ("linalg.solve.s", "s", "lower"),
     ("linalg.solve.cells", "count", "lower"),
     ("linalg.rank.calls", "count", "lower"),
     ("linalg.rank.s", "s", "lower"),
     ("linalg.subspace.calls", "count", "lower"),
     ("linalg.subspace.s", "s", "lower"),
     ("linalg.matmul.calls", "count", "lower"),
     ("linalg.matmul.s", "s", "lower"),
     ("algebra.self_s", "s", "lower"),
     ("algebra.derivation_algebra.calls", "count", "lower"),
     ("algebra.derivation_algebra.s", "s", "lower"),
     ("algebra.der_cg.calls", "count", "lower"),
     ("algebra.der_cg.s", "s", "lower"),
     ("algebra.der_cg.unique_ratio", "ratio", "higher"),
     ("algebra.structure_table.calls", "count", "lower"),
     ("algebra.structure_table.s", "s", "lower"),
     ("algebra.coordinates_of.calls", "count", "lower"),
     ("algebra.coordinates_of.s", "s", "lower"),
     ("algebra.validate.s", "s", "lower"),
     ("algebra.is_complete.s", "s", "lower"),
     ("algebra.center.s", "s", "lower"),
     ("dtheory.self_s", "s", "lower"),
     ("dtheory.d_derivations.s", "s", "lower"),
     ("dtheory.d_bracket.calls", "count", "lower"),
     ("dtheory.d_bracket.s", "s", "lower"),
     ("dtheory.der_action.calls", "count", "lower"),
     ("dtheory.der_action.s", "s", "lower"),
     ("dtheory.build_h.s", "s", "lower"),
     ("dtheory.d_center.s", "s", "lower"),
     ("fullgraph.self_s", "s", "lower"),
     ("fullgraph.build_full_graph.s", "s", "lower"),
     ("fullgraph.h_derivation.calls", "count", "lower"),
     ("fullgraph.h_derivation.s", "s", "lower"),
     ("fullgraph.check_theorem1.s", "s", "lower"),
     ("fullgraph.check_lemma.s", "s", "lower"),
     ("fullgraph.check_theorem2.s", "s", "lower"),
     ("catalog.self_s", "s", "lower"),
     ("catalog.parse.calls", "count", "lower"),
     ("catalog.parse.s", "s", "lower"),
     ("catalog.build.calls", "count", "lower"),
     ("catalog.lookup.calls", "count", "lower"),
     ("cli.self_s", "s", "lower"),
     ("cli.import_s", "s", "lower"),
     ("cli.report.s", "s", "lower"),
     ("trace.overhead_frac", "ratio", "lower")])


@dataclass(frozen=True)
class Request:
    id: str  # key into pins.json
    args: tuple[str, ...]  # liegraph arguments after --json

    @property
    def command(self) -> str:
        return self.args[0]


@dataclass
class Result:
    request: Request
    latency_s: float
    failure: Optional[str]
    layers: Optional[dict] = None  # per-layer numbers of a traced request
    maxrss_kib: int = 0  # peak RSS of the request process


def workload_requests(workload: str) -> list[Request]:
    from fixtures import EXPLORE, LADDER
    if workload == "corpus":
        reqs = [Request("corpus-verify", ("corpus-verify",))]
        for name in CORPUS_NAMES:
            for t in ("1", "2", "lemma"):
                reqs.append(Request(f"verify:{name}:{t}",
                                    ("verify", name, "--theorem", t)))
        return reqs
    if workload == "ladder":
        return [Request(f"verify:{name}:all", ("verify", "--file", f"{name}.json"))
                for name in LADDER]
    reqs = []
    for name in EXPLORE:
        f = ("--file", f"{name}.json")
        reqs += [Request(f"{cmd}:{name}", (cmd,) + f)
                 for cmd in ("info", "der", "dder", "full-graph")]
        reqs.append(Request(f"verify:{name}:lemma",
                            ("verify",) + f + ("--theorem", "lemma")))
    return reqs


def setup(workload: str, seed: int, directory: Path) -> None:
    """Generate the seeded inputs of a workload into `directory`."""
    import fixtures
    from liegraph.catalog import catalog
    directory.mkdir(parents=True)
    if workload == "corpus":
        missing = set(CORPUS_NAMES) - {e.name for e in catalog()}
        if missing:
            raise SystemExit(f"catalog lacks {sorted(missing)}")
    else:
        fixtures.write_inputs(
            fixtures.LADDER if workload == "ladder" else fixtures.EXPLORE,
            seed, directory)


def view(command: str, doc):
    """The part of a --json output that no basis permutation changes."""
    if command == "info":
        return {**doc, "basis_names": sorted(doc["basis_names"])}
    if command == "der":
        return {"algebra": doc["algebra"], "der_dim": doc["der_dim"],
                "basis_len": len(doc["basis"])}
    if command == "dder":
        return {"algebra": doc["algebra"], "d_space_dim": doc["d_space_dim"],
                "inner_d_dim": doc["inner_d_dim"], "basis_len": len(doc["basis"])}
    if command == "full-graph":
        return {"algebra": doc["algebra"], "dim": doc["dim"],
                "basis_names": sorted(doc["basis_names"])}
    return doc  # verify and corpus-verify reports are basis-free


def check_output(req: Request, code: int, stdout: bytes, pin: dict,
                 byte_pinned: bool) -> Optional[str]:
    """Why the output differs from its pin, or None if it matches."""
    if code != pin["exit"]:
        return f"exit code {code}, pinned {pin['exit']}"
    try:
        got = view(req.command, json.loads(stdout))
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable output ({type(exc).__name__}: {exc})"
    if got != pin["view"]:
        return "output differs from the pinned invariants"
    if byte_pinned and hashlib.sha256(stdout).hexdigest() != pin["sha256"]:
        return "output differs from the pinned default-seed bytes"
    return None


def request_env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


@dataclass
class Exited:
    """How a request process ended."""
    returncode: int
    stdout: bytes
    stderr: bytes
    maxrss_kib: int  # its peak resident set size


def invoke(req: Request, workdir: Path, env: dict, limit: float,
           spans_path: Optional[Path] = None) -> tuple[float, Optional[Exited]]:
    """Run one request in a fresh process: (latency, how it exited), with
    None in place of the latter if it hit the time limit. With `spans_path`
    the request runs traced and its spans are written there."""
    if spans_path is None:
        argv = [sys.executable, "-m", "liegraph.cli"]
    else:
        argv = [sys.executable, str(BENCH / "trace_cli.py"), str(spans_path)]
    killed = threading.Event()

    def kill() -> None:
        killed.set()
        proc.kill()

    # the process is reaped with wait4, which gives its own peak RSS
    with tempfile.TemporaryFile(dir=workdir) as out, \
            tempfile.TemporaryFile(dir=workdir) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([*argv, "--json", *req.args], cwd=workdir,
                                env=env, stdout=out, stderr=err)
        timer = threading.Timer(limit, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        latency = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            return latency, None
        out.seek(0)
        err.seek(0)
        return latency, Exited(proc.returncode, out.read(), err.read(),
                               usage.ru_maxrss)


class Runner:
    """Runs requests of one workload and keeps what is needed to check them."""

    def __init__(self, workload: str, seed: int, workdir: Path, pins: dict):
        self.workload = workload
        self.workdir = workdir
        self.pins = pins["requests"]
        self.byte_pinned = seed == pins["default_seed"]
        self.env = request_env()
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.first_output: dict[str, str] = {}
        self.results: list[Result] = []

    def request(self, req: Request, traced: bool = False) -> Result:
        limit = min(REQUEST_LIMIT_S[self.workload], self.deadline - time.monotonic())
        if limit <= 0:
            return self._record(Result(req, 0.0, "not started: run deadline passed"))
        spans_path = self.workdir / "spans.json" if traced else None
        latency, proc = invoke(req, self.workdir, self.env, limit, spans_path)
        if proc is None:
            return self._record(Result(req, latency, f"timed out after {limit:.1f} s"))
        failure = check_output(req, proc.returncode, proc.stdout,
                               self.pins[req.id], self.byte_pinned)
        digest = hashlib.sha256(proc.stdout).hexdigest()
        if failure is None and self.first_output.setdefault(req.id, digest) != digest:
            failure = "output differs from an earlier run of the same request"
        if failure is not None and proc.stderr:
            failure += ": " + proc.stderr.decode(errors="replace").strip()[-300:]
        layers = None
        if traced and failure is None:
            import trace_cli
            layers = trace_cli.aggregate(json.loads(spans_path.read_text()))
            spans_path.unlink()
        return self._record(Result(req, latency, failure, layers, proc.maxrss_kib))

    def _record(self, result: Result) -> Result:
        self.results.append(result)
        if result.failure:
            print(f"FAILED {result.request.id}: {result.failure}", file=sys.stderr)
        return result

    def run_pass(self, requests: list[Request], rng: random.Random,
                 traced: bool = False, between=None) -> list[Result]:
        """Run the requests in a seeded order, calling `between` with each
        result after its request."""
        order = list(requests)
        rng.shuffle(order)
        results = []
        for r in order:
            results.append(self.request(r, traced))
            if between is not None:
                between(results[-1])
        return results


class ReferenceProbe:
    """Runs the reference request on the frozen copy of the program;
    `scale` converts the run's times to the reference speed."""

    def __init__(self, runner: Runner):
        self.runner = runner
        self.request = Request(*REFERENCE)
        self.env = {**runner.env, "PYTHONPATH": str(REFERENCE_SRC)}
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.requests_s = 0.0  # time taken by the requests so far

    def after(self, result: Result) -> int:
        """Run reference requests until they have taken REFERENCE_SHARE of
        the requests' time, at least one in all; returns how many ran."""
        self.requests_s += result.latency_s
        ran = 0
        while (not self.latencies
               or sum(self.latencies) < REFERENCE_SHARE * self.requests_s):
            self.run()
            ran += 1
        return ran

    def run(self) -> None:
        latency, proc = invoke(self.request, self.runner.workdir, self.env,
                               REQUEST_LIMIT_S["corpus"])
        self.latencies.append(latency)
        failure = ("timed out" if proc is None else
                   check_output(self.request, proc.returncode, proc.stdout,
                                self.runner.pins[self.request.id], True))
        if failure is not None:
            self.failures.append(failure)
            print(f"FAILED reference request: {failure}", file=sys.stderr)

    @property
    def scale(self) -> float:
        # the mean, not the median: the host switches between a fast and a
        # slow state every few seconds, and the mean follows the share of the
        # run spent in each, as the requests' times do
        return REFERENCE_LATENCY_S / statistics.mean(self.latencies)


def pass_time(results: list[Result]) -> float:
    """The mean time of one pass: the sum over the requests of each one's
    mean latency in `results`."""
    by_request: dict[str, list[float]] = {}
    for r in results:
        by_request.setdefault(r.request.id, []).append(r.latency_s)
    return sum(statistics.mean(v) for v in by_request.values())


def pin_to_one_cpu() -> None:
    """Run this process and the requests it starts on one CPU, so that the
    reference requests run on the CPU the requests run on; the host's CPUs
    differ in speed from moment to moment."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # no affinity control on this platform
        pass


def quantile(xs: list[float], q: float) -> float:
    """The Harrell-Davis estimate of the q-quantile of `xs`: the mean of the
    order statistics weighted by the Beta((n+1)q, (n+1)(1-q)) distribution
    of the q-quantile's position. A latency sample mixes requests of very
    different costs; a single order statistic jumps between two such
    clusters from run to run, and this weighted mean does not."""
    xs = sorted(xs)
    n = len(xs)
    a, b = (n + 1) * q, (n + 1) * (1 - q)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 64  # midpoint rule on each order statistic's interval
    weights = []
    for i in range(n):
        ts = ((i + (j + 0.5) / steps) / n for j in range(steps))
        weights.append(sum(math.exp((a - 1) * math.log(t) + (b - 1) * math.log(1 - t)
                                    - log_norm) for t in ts))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with ten samples or fewer, of the highest percentile
    with one sample beyond it (the maximum of a single sample)."""
    n = len(latencies)
    q = (n - 10) / n if n > 10 else (n - 1) / n
    if q == 0:
        return latencies[0], 100.0
    return quantile(latencies, q), 100.0 * q


def pass_layers(results: list[Result]) -> dict:
    """Per-layer totals of one traced pass."""
    total: dict = {}
    for r in results:
        for key, v in (r.layers or {}).items():
            total[key] = max(total.get(key, 0), v) if key.endswith("_max") \
                else total.get(key, 0) + v
    calls = total.get("algebra.der_cg.calls", 0)
    total["algebra.der_cg.unique_ratio"] = (
        total.get("algebra.der_cg.distinct", 0) / calls if calls else 1.0)
    return total


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result object and prints a summary."""
    pins = json.loads(PINS.read_text())
    (BENCH / ".work").mkdir(exist_ok=True)
    workdir = BENCH / ".work" / f"{workload}-{seed}-{os.getpid()}"
    try:
        # Set-up runs as a fresh process, as a user would run an input
        # generator, and is repeated through the run like the reference
        # request, so that it is scaled like the requests.
        setup_times: list[float] = []

        def timed_setup() -> None:
            directory = workdir / f"setup{len(setup_times)}"
            t0 = time.perf_counter()
            subprocess.run([sys.executable, str(BENCH / "make_inputs.py"), workload,
                            str(seed), str(directory)], env=request_env(), check=True)
            setup_times.append(time.perf_counter() - t0)

        def between(result: Result) -> None:
            for _ in range(probe.after(result)):
                timed_setup()

        for _ in range(SETUP_AT_START):
            timed_setup()
        requests = workload_requests(workload)
        runner = Runner(workload, seed, workdir / "setup0", pins)
        probe = ReferenceProbe(runner)
        # fills the bytecode caches, which users do not pay for on every run;
        # a failure here shows again, counted, in the timed requests
        invoke(Request("warm-up", ("info", "abelian1")), runner.workdir,
               runner.env, REQUEST_LIMIT_S[workload])
        rng = random.Random(f"{seed}:{workload}:order")
        # a traced run makes one untraced and one traced pass
        passes = 1 if trace else max(1, int(seconds // PASS_S[workload]))
        plain = [r for _ in range(passes)
                 for r in runner.run_pass(requests, rng, between=between)]
        if trace:
            traced = runner.run_pass(requests, rng, traced=True)
            layers = pass_layers(traced)
        results = runner.results
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in results if r.failure)
    attempted = len(results)
    if probe.failures:
        print(f"{len(probe.failures)} of {len(probe.latencies)} reference "
              "requests failed: the frozen copy of the program is damaged")
    print(f"workload {workload}, seed {seed}: {passes} pass(es) of "
          f"{len(requests)} requests{' untraced and traced' if trace else ''}, "
          f"{failed} of {attempted} failed (failed_frac {failed / attempted} of "
          f"{attempted} requests)")
    if trace:
        metrics = {}
        for name, unit, _ in PER_LAYER:
            value = (pass_time(traced) / pass_time(plain) - 1
                     if name == "trace.overhead_frac" else layers.get(name, 0))
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:34s} {value:16.6f} {unit}")
    else:
        latencies = [r.latency_s for r in plain]
        tail_s, pct = tail(latencies)
        unscaled = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_time(plain),
            "request_p50_s": quantile(latencies, 0.5),
            "request_tail_s": tail_s,
        }
        values = {name: v * probe.scale for name, v in unscaled.items()}
        values["peak_rss_mib"] = max(r.maxrss_kib for r in plain) / 1024
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit, _ in END_TO_END}
        notes = {"setup_s": f"median of {len(setup_times)} set-up processes",
                 "pass_s": f"sum of each request's mean over {passes} pass(es)",
                 "request_p50_s": f"{len(latencies)} samples",
                 "request_tail_s": f"p{pct:.1f}, {len(latencies)} samples",
                 "peak_rss_mib": "largest max-RSS of a request process"}
        print(f"  reference request: mean {statistics.mean(probe.latencies):.6f} s "
              f"of {len(probe.latencies)}; times scaled by {probe.scale:.4f} to the "
              "reference speed, unscaled in brackets")
        for name, m in metrics.items():
            raw = f"[{unscaled[name]:10.6f}]" if name in unscaled else ""
            print(f"  {name:15s} {m['value']:12.6f} {m['unit']:4s} {raw:12s} "
                  f"{notes[name]}")
        print(f"  {'failed_frac':15s} {failed / attempted:12.6f} 1    {'':12s} "
              f"{failed} of {attempted} requests")
    return {"correct": failed == 0 and not probe.failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*PASS_S, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liegraph" / "cli.py").is_file():
        print(f"error: no liegraph source under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        # one process per workload, so that each reports its own peak RSS
        for w in PASS_S:
            subprocess.run([sys.executable, __file__, "--workload", w,
                            "--seed", str(args.seed), "--seconds", str(args.seconds),
                            "--trace", str(args.trace)], check=True)
        return 0
    sys.path[:0] = [str(SRC), str(BENCH)]
    pin_to_one_cpu()
    print(json.dumps(run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))))
    return 0

if __name__ == "__main__":
    raise SystemExit(main())

"""Tests of the benchmark itself (about five minutes on two cores).

    python3 -m pytest -q bench/selftest.py

They check that the printed metric names match BENCHMARK.json, that the
per-layer counters repeat exactly across two traced runs at one seed, that
the pinned invariants hold at a seed other than the default one and the
pinned bytes at the default one, that the pinned dimensions agree with the
sympy oracle of the test suite, and that the benchmark refuses to run
without the program.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import fixtures  # noqa: E402
import run  # noqa: E402

PINS = json.loads(run.PINS.read_text())
SECOND_SEED = PINS["default_seed"] + 2
WORKLOADS = list(run.PASS_S)


def _run(workload: str, seed: int, trace: bool) -> dict:
    # seconds=1 gives one pass (one untraced and one traced with trace)
    return run.run_workload(workload, seed, 1, trace)


@pytest.fixture(scope="module")
def traced_pairs():
    """Two traced runs per workload at the second seed."""
    return {w: (_run(w, SECOND_SEED, True), _run(w, SECOND_SEED, True))
            for w in WORKLOADS}


def test_metric_names_match_benchmark_json(traced_pairs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    for key, ours in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in spec[key]] == ours
    printed = _run("corpus", SECOND_SEED, False)["metrics"]
    assert list(printed) == [m["name"] for m in spec["end_to_end"]]
    assert {m["unit"] for m in printed.values()} <= {u for _, u, _ in run.END_TO_END}
    for first, _ in traced_pairs.values():
        assert list(first["metrics"]) == [m["name"] for m in spec["per_layer"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counters_repeat_exactly(traced_pairs, workload):
    first, second = traced_pairs[workload]
    assert first["correct"] and second["correct"]
    counts = [name for name, unit, _ in run.PER_LAYER if unit == "count"]
    counts.append("algebra.der_cg.unique_ratio")
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


@pytest.mark.parametrize("workload,der_cg_calls,unique_ratio", [
    ("corpus", 28, 0.75),  # corpus-verify: 7 x 2; theorem 1 and 2: 7 each
    ("ladder", 6, 0.5),  # 2 per verify with all checks
    ("explore", 0, 1.0),  # never builds Der(C(G))
])
def test_der_cg_counts(traced_pairs, workload, der_cg_calls, unique_ratio):
    metrics = traced_pairs[workload][0]["metrics"]
    assert metrics["algebra.der_cg.calls"]["value"] == der_cg_calls
    assert metrics["algebra.der_cg.unique_ratio"]["value"] == unique_ratio


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_outputs_match_pinned_bytes(workload):
    result = _run(workload, PINS["default_seed"], False)
    assert result["correct"] and result["failed"] == 0


def _dims(name: str) -> dict:
    return PINS["algebras"][name]


def test_request_pins_agree_with_algebra_dims():
    reqs = PINS["requests"]
    reports = {r["algebra"]: r for r in reqs["corpus-verify"]["view"]}
    for name in fixtures.LADDER:
        reports[f"{name}.json"] = reqs[f"verify:{name}:all"]["view"]
    for file_name, rep in reports.items():
        d = _dims(file_name.removesuffix(".json"))
        assert rep["theorem1"]["dim_h"] == d["der_dim"] + d["d_space_dim"]
        assert rep["theorem1"]["dim_der_cg"] == d["der_cg_dim"]
        assert rep["d_completeness"] == {k: d[k] for k in
                                         ("d_center_dim", "d_space_dim", "inner_d_dim")}
    for name in fixtures.EXPLORE:
        d = _dims(name)
        info = reqs[f"info:{name}"]["view"]
        assert {k: info[k] for k in d} == d
        assert reqs[f"der:{name}"]["view"]["der_dim"] == d["der_dim"]
        assert reqs[f"dder:{name}"]["view"]["d_space_dim"] == d["d_space_dim"]
        assert reqs[f"full-graph:{name}"]["view"]["dim"] == d["dim"] + d["der_dim"]


def _oracle_table(name: str):
    import sympy as sp
    from liegraph.catalog import lookup
    g = (fixtures.build(name, PINS["default_seed"]) if name in fixtures.SPECS
         else lookup(name).algebra)
    return [[[sp.Rational(c) for c in g.table[i][j]] for j in range(g.dim)]
            for i in range(g.dim)]


@pytest.mark.parametrize("name", PINS["oracle_cross_checked"]["cocycle_dims"])
def test_oracle_cocycle_dims(name):
    oracle = pytest.importorskip("oracle")
    d = _dims(name)
    assert oracle.cocycle_dims(_oracle_table(name)) == (
        d["der_dim"], d["d_space_dim"], d["inner_d_dim"], d["d_center_dim"])


@pytest.mark.parametrize("name", PINS["oracle_cross_checked"]["der_cg_dim"])
def test_oracle_der_cg_dim(name):
    oracle = pytest.importorskip("oracle")
    table = oracle.holomorph_table(_oracle_table(name))
    assert len(oracle.derivation_matrices(table)) == _dims(name)["der_cg_dim"]


def test_seed_permutes_basis_only():
    for name in fixtures.SPECS:
        a = fixtures.build(name, PINS["default_seed"])
        b = fixtures.build(name, SECOND_SEED)
        pa = {s: i for i, s in enumerate(a.basis_names)}
        pb = {s: i for i, s in enumerate(b.basis_names)}
        assert pa.keys() == pb.keys()
        for x in pa:
            for y in pa:
                va = {a.basis_names[k]: c for k, c in
                      enumerate(a.table[pa[x]][pa[y]]) if c}
                vb = {b.basis_names[k]: c for k, c in
                      enumerate(b.table[pb[x]][pb[y]]) if c}
                assert va == vb
    assert any(fixtures.permutation(SECOND_SEED, n, 6) != list(range(6))
               for n in fixtures.SPECS)


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(i) for i in range(1, 101)])
    assert pct == 90.0
    assert value == pytest.approx(90.5)  # Harrell-Davis: (n + 1) q
    value, pct = run.tail([3.0, 1.0, 2.0, 4.0, 6.0, 5.0])
    assert pct == pytest.approx(100 * 5 / 6)  # one sample beyond it
    assert 5.0 < value < 6.0
    assert run.tail([3.0]) == (3.0, 100.0)


def test_quantile_blends_across_a_gap():
    # nine fast and nine slow requests: the median lies between the two
    # clusters rather than on either edge
    xs = [1.0] * 9 + [3.0] * 9
    assert run.quantile(xs, 0.5) == pytest.approx(2.0)
    assert 1.0 < run.quantile(xs[:-1], 0.5) < 2.0
    assert run.quantile([5.0], 0.5) == pytest.approx(5.0)


def test_pass_time_sums_medians_per_request():
    a, b = run.Request("a", ("info",)), run.Request("b", ("info",))
    results = [run.Result(a, 1.0, None), run.Result(a, 3.0, None),
               run.Result(a, 2.0, None), run.Result(b, 10.0, None)]
    assert run.pass_time(results) == 12.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""

"""Byte-identical `--json` output of every subcommand on the catalog, and
of the benchmark's ladder and explore requests on its larger algebras.

The hashes were recorded before the derivation spans and the semidirect
products were rebuilt on shared code; a refactor that changes a basis
order, a structure constant or a report field changes a hash here.
"""

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from liegraph.cli import main

# (arguments after --json, exit code, sha256 of stdout)
GOLDEN = [
    ('info abelian1', 0, "2d116d988225e31556f7ff8884a04f4f3c458602e527d4cfd17584b15a3f9c47"),
    ('der abelian1', 0, "63f83dfe7c1e911c0e4c9d8e4210eee7c615cdb275de631d4bfb9e3a787aeb9e"),
    ('dder abelian1', 0, "f17a13532d1bec32a298e159182ad8bd6f2b3c35a5341854491ee67c9da6d5fc"),
    ('full-graph abelian1', 0, "583bef37572528d11c20c8cdce5169d6277889e795fe5bf636cbc1ac877b71ed"),
    ('verify abelian1', 0, "aeb23383b1df83bd53adacf33561146d0575a63e24548de519e60913a247a1d1"),
    ('info abelian2', 0, "9cea8056f21e49ea62816aaa8dc34f23d50b4f771b7893142f4034c538f89db2"),
    ('der abelian2', 0, "bb4eb6828dd320bcd2cb19238ecc3ac70af99e2040f504a39f35d2433b3b9b3a"),
    ('dder abelian2', 0, "73789d01c88213f952dbd773de1f2d53354b1ea4be00c8b3d2001946b102d395"),
    ('full-graph abelian2', 0, "4efc3129502acf1ed3601701844db7d14dd6e444c842380ae491e078fdaedd83"),
    ('verify abelian2', 0, "e2bb9f4577223a30b99cfa7ec5ee263530016637202cc994e0aa79695f25a1e8"),
    ('info abelian3', 0, "c1382005d3c7c390498064a8b472503d99c398fd0538d5de7e7896f3d383169a"),
    ('der abelian3', 0, "699d073a40796d95f1e05c23533620dd3eb7dc37f404bb1cf74d83275f62573f"),
    ('dder abelian3', 0, "fbe371672964316e05a320d304ad91cf3dcfcb88001c8cbd8a82e64a8481bcbd"),
    ('full-graph abelian3', 0, "289e1a3e11fbd2c5ce9a540427f07965df23b6552ab1f5a71142748a08b9702b"),
    ('verify abelian3', 0, "056e141dceca24ab9c3c4fcaaa0afe8199c6fbdfbddf6f1d2958dbdf2c2a1ec1"),
    ('info affine2', 0, "016268e3d02d222f5be45b2fea5f57d91e3fc49a2302067ba611bc36836389d5"),
    ('der affine2', 0, "264adf554ca71f7f622ba784ef5f3be9cb473dcd2310d511a67842a0208591f5"),
    ('dder affine2', 0, "50ddc76f76454f3394337210a050efbfe37429e2a685f7015802b753c082648e"),
    ('full-graph affine2', 0, "c2cba53c35c65a4673b628efc8fbcc017b6c6f7df2c0fa199203ca367582e14f"),
    ('verify affine2', 0, "614d5ac3cce01d9a736589c382e173fd4b465cef38ea0b3ee2ecc5c2f6104233"),
    ('info heisenberg3', 0, "c82a4e2c1668c7ba6c1688aaf7a9fb23970c5a6a67cac82b2f016b29bc25599c"),
    ('der heisenberg3', 0, "a72c516f3e5df19db1e6b0bf308a0ed0279d818f2edb75be29b08169c8d979cc"),
    ('dder heisenberg3', 0, "f8352f00ff8fb7798a615eb262df0730914ea00b093db889bd4b6209ef571762"),
    ('full-graph heisenberg3', 0, "8d61ab32cc070552517b537598e7e8f30497ea9a36d230cee3c7a6c146179b0a"),
    ('verify heisenberg3', 1, "4e24d9d1d06994099693be761ce7cae252c170b45fc29c97a8b7f263d25a27c2"),
    ('info sl2', 0, "ce2f19c6071160cf404f3eea3adf7260d204721a5d0f88b5744a371d9a3e02a2"),
    ('der sl2', 0, "ffdf46cf6fcae9241fb427fe199df0b66710cd176c933bcff94830dfa2c1714b"),
    ('dder sl2', 0, "6eade676c437cff40a02f12e37dcb4a493038d122a296a7e9b38a583c6bdc95f"),
    ('full-graph sl2', 0, "25ae4980d27dccd3cd4fc6efa42185986b9442cdbc72ea76264edc79b2139d30"),
    ('verify sl2', 0, "fe6f9f2977e2fa5cb2ae9f39aeb18205e4f7d555547f10268eba137ece152c5c"),
    ('info sl2_plus_abelian1', 0, "bfbaecf948d7471cde287d5175c339fc770597c8718ab9420350d0f4b2609644"),
    ('der sl2_plus_abelian1', 0, "d9985d699531c4947b0d2820c2f5deed04c023d433f3cc2ef1e5d951cba32b77"),
    ('dder sl2_plus_abelian1', 0, "69e758d4b725f60a5625bc1522bb2ed4e1fe86cc2e3382c325a850a46f97c16b"),
    ('full-graph sl2_plus_abelian1', 0, "d462edc68d64dd3ca40c5b1748c70ec5d23f2cb5c2887d755155223e69daaa4a"),
    ('verify sl2_plus_abelian1', 0, "169b224c43cf1cae6ebb8e4739747e0fff9cd0bf5cba56b47029027690e9b281"),
    ('corpus-verify', 1, "25f21795b2996cc634a41f4433c6dfa183c44f2a06dd8e00524c4417ae9bc7f9"),
]


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_output_matches_recorded_hash(args, code, digest):
    out = io.StringIO()
    assert main(["--json", *args.split()], out=out) == code
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest


# The larger algebras of the benchmark: the ladder and explore requests of
# bench/run.py, on the inputs bench/fixtures.py writes at the default seed,
# against the exit codes and hashes pinned in bench/pins.json.
BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))  # bench/run.py imports its fixtures by name
import fixtures  # noqa: E402
from run import workload_requests  # noqa: E402

PINS = json.loads((BENCH / "pins.json").read_text())
BENCH_REQUESTS = workload_requests("ladder") + workload_requests("explore")


@pytest.mark.parametrize("req", BENCH_REQUESTS, ids=[r.id for r in BENCH_REQUESTS])
def test_bench_request_matches_pin(req, tmp_path, monkeypatch):
    pin = PINS["requests"][req.id]
    fixtures.write_inputs(fixtures.LADDER + fixtures.EXPLORE,
                          PINS["default_seed"], tmp_path)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    assert main(["--json", *req.args], out=out) == pin["exit"]
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == pin["sha256"]

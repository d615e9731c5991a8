"""Byte-identical output of the CLI: every request of the benchmark
against its pin in `bench/pins.json`, `--json` output of the algebra
subcommands on the catalog that the benchmark does not request, and text
output of every subcommand on the catalog and of every algebra subcommand
on the files of the benchmark's larger algebras.

The benchmark requests `verify --theorem 1|2|lemma` on each catalog entry
and `corpus-verify` (its corpus workload), and the ladder and explore
requests on its larger algebras; each `--json` output is checked once,
against its pin. The other `--json` hashes were recorded before the
derivation spans and the semidirect products were rebuilt on shared code,
and the text hashes before the structure constants were held sparse; a
refactor that changes a basis order, a structure constant, a printed
bracket or a report field changes a hash here.
"""

import hashlib
import json

import pytest

from algebras import BENCH, FIXTURES
from child import main_output
from run import workload_requests  # bench/run.py, on the path from algebras


def hashed(argv):
    """main(argv)'s exit code and the sha256 of its stdout."""
    code, out = main_output(argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


# (arguments after --json, exit code, sha256 of stdout) of the algebra
# subcommands on the catalog, but for the benchmark's requests
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
]


@pytest.mark.parametrize("args,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_json_output_matches_recorded_hash(args, code, digest):
    assert hashed(["--json", *args.split()]) == (code, digest)


# (arguments, exit code, sha256 of stdout) of the same subcommands without
# --json: the text form prints bracket tables through its own code path.
TEXT_GOLDEN = [
    ('info abelian1', 0, "b16ba241213fc3b7929d95ff009f8f6e0c793b5a4485bf8cf8a62e93e230d7bd"),
    ('der abelian1', 0, "71bc9d01a7be7f4818b7bc1dfa6604cfeb202bb10e04fe44d26fe757807f22f2"),
    ('dder abelian1', 0, "da69200f2cde9009e342609d9c05a0b34cb2bbbf8bd7b7a078da3d5bf0eb1cd6"),
    ('full-graph abelian1', 0, "79c379a3e937f47a9c81b3977f17a076ab84c8dff9104ed698dd368438b8c1e3"),
    ('verify abelian1', 0, "73c5d52a4a535d51dabfa7d4adbedfd5c8f2cffa800235688b4e9b1f9268496b"),
    ('verify abelian1 --theorem 1', 0, "09b8c1682c3d00c3bba2a3d8cf1c6448682f1b054a1c73fa35fce080234725cb"),
    ('verify abelian1 --theorem 2', 0, "91814aee55678fe4568337a8aded09d3e683cef9208886080b2d67f17f506fcd"),
    ('verify abelian1 --theorem lemma', 0, "360ae8f52cf35213db2880b077af782983c2149a958f3e6d118056f0aacce284"),
    ('info abelian2', 0, "0ec101c525b48f95cd6cdb0477267f794d994ee6893fa215b8ea018e5eba5fa0"),
    ('der abelian2', 0, "ce16a7bb2ee9d982ada4f33706e196825e567ed176e4243f0351b5e093aff1cf"),
    ('dder abelian2', 0, "1b0ed60d73b9198a6ae4045214276a688f1ae580370682957342ba4b4d98182e"),
    ('full-graph abelian2', 0, "50ae7d52e4da848ee5ae22fec8d10aaeb145b23749cb0c1eb55a70e1692052b0"),
    ('verify abelian2', 0, "635f10a18fec19f868ecd04fabeb42334cfdf1aa155230a12ca93c8be3e45916"),
    ('verify abelian2 --theorem 1', 0, "ff2797a86a7c3f3059cf46d7e7a7d9587056ea471995ddac6b62b57f9b765499"),
    ('verify abelian2 --theorem 2', 0, "a0f79ceb7ff1e8c73744360526d1fb5f5c35d1ab20b21fbd73634e07a52329ae"),
    ('verify abelian2 --theorem lemma', 0, "159dd59079e45a247eebb2f481e85466b66e82f1330adb29cab05db2cd74d258"),
    ('info abelian3', 0, "e58f2a4f7d5d59376e3099d9f4d1ccd6d6566e19c8e7298ce6cabcfbe53c82d4"),
    ('der abelian3', 0, "d7c9191bc1a1a25f1d3e8046f16a31922f862a94e187f62f2852b54e2984c21a"),
    ('dder abelian3', 0, "bff6f49e8013ff0adea5af0d3f37c1e9c52651150e0f6ca459a23209d6d58cbd"),
    ('full-graph abelian3', 0, "3d2c8523069e47a7020c8e054551ccf93fa7f6701bb8b907c4ff8a960b895996"),
    ('verify abelian3', 0, "47cc1b823aaf88e034405e1efeb5c8f89994cd3eb6121e0e2e19a05a0a9c702e"),
    ('verify abelian3 --theorem 1', 0, "dc3bb732a623c63f152b6e9f26ce7ae98bbfe5ff1f04723e3eeaceafc8552e8e"),
    ('verify abelian3 --theorem 2', 0, "9247a870ef8797897fba63b967570807da298dea3f76c2c257e67baf9af4fd8c"),
    ('verify abelian3 --theorem lemma', 0, "a5f4ae00addaac7f6b16b18b66c03e4fd944735400c2fc0cac52b0ca7d84f88d"),
    ('info affine2', 0, "abcd18910863e26660c606096ac7fbbf64fff879adde9955df88402075b158ff"),
    ('der affine2', 0, "bd9a62bf1b02ed07464db45aab05d052d210023205522427718b8e6f3628a401"),
    ('dder affine2', 0, "d7cecd99fdbac66a90075873e87b87127f2cf1f01e5bd701ea851c9b5ee835d4"),
    ('full-graph affine2', 0, "5a2b8e134a804571b249b2839b6b1d83396ebd38fd6493bcb202e7cde0059e68"),
    ('verify affine2', 0, "44158249f0646fa6c5f4efccac3ba1bce518ec13c83a4367aff32c98e9ae443d"),
    ('verify affine2 --theorem 1', 0, "6d458f790c87c848cfe35e824cf89b15907d1303ad7ef29eaadd4617a98743f2"),
    ('verify affine2 --theorem 2', 0, "f7cb6d7f21da259ff319ef05da6b0ecf40742389be633234898477863565cb35"),
    ('verify affine2 --theorem lemma', 0, "b4edd795df74c2b8d9e5eb675cc6469ba472e13dceb0f9b40f5fe8f53322df9c"),
    ('info heisenberg3', 0, "36bee5271b8901a54479cbe549c20434aab96d7ba96cefac85a9c4bab0d46ac9"),
    ('der heisenberg3', 0, "d0574a1b28eec5dfcb5e2f4d83531ca0500772ea62b9e0afee4bdeb4b3ee7542"),
    ('dder heisenberg3', 0, "ebc34e9926f72884aac305d45d87d822145f296a9c15390b52a3aded1f1ad82b"),
    ('full-graph heisenberg3', 0, "bc38c539573f78ee41cc969cc0943cf9a031bddf3367c05d9087fa0938d46c50"),
    ('verify heisenberg3', 1, "e6bbb3795efc0c4c5e066e92a832439b49e19032cede0a05014c8fbe6bf55d06"),
    ('verify heisenberg3 --theorem 1', 1, "3fbf34152d597a68d1b756e1dfb6a53f21a7c7dcf249f7b6f7f354e83a7fa1b5"),
    ('verify heisenberg3 --theorem 2', 1, "a94176057cfc677277a5bf493d8aa81543da706f0f2fd07ba14df7fa3069b787"),
    ('verify heisenberg3 --theorem lemma', 0, "b444288f8ebab2a652d34b0014284747785ac12a13e60cd39947b517ccefad45"),
    ('info sl2', 0, "5552d58528f0928892f0e5e5e9bd2a739191232b67080ad45b8b807b5c6ee9df"),
    ('der sl2', 0, "3a7076addb35d2feb785732cbf6e93c35f1886b8d89eb74c1333f28afc221a37"),
    ('dder sl2', 0, "6924d653713455ecdc8dd7bf85392c671b5794eb1e756b39228cdb886a2c037d"),
    ('full-graph sl2', 0, "d84398e62936ab7d8fde71e4f663a4442cea9d9829190311e622d087609023ca"),
    ('verify sl2', 0, "19260941e315b66c513b5097a6a5f93835cd31b9fa9fb8fb162e7fb66f222b8f"),
    ('verify sl2 --theorem 1', 0, "adada2b9721735fff4b647d43fbdefa66ea7e0026c02c04c8fdafb13ecdd4181"),
    ('verify sl2 --theorem 2', 0, "fc1cf2c8719e04776c1d55b15461ecec6b097624fd4414a43133df9e7fb4aa3f"),
    ('verify sl2 --theorem lemma', 0, "6ebf68b4c5c36fca4facfb127b76804b7aa7705143a8f06a68b2934e2b623a26"),
    ('info sl2_plus_abelian1', 0, "812f5c59a50d4ff0ce5c8a435dc39fd3b8519924c32c35d132951b075c7e4276"),
    ('der sl2_plus_abelian1', 0, "b33749529b86c4d193aa885cac89d96348a76522fef974a69f06007d5b1e52da"),
    ('dder sl2_plus_abelian1', 0, "3b049d79248eeb64dc30b9041d25d0b5991f52e16661c6be46811939da5f79b4"),
    ('full-graph sl2_plus_abelian1', 0, "968ce97c434a6f3f90f3dc3f70f75abf2d01978d6657026ec952b79a1cf48c00"),
    ('verify sl2_plus_abelian1', 0, "e2947553a8d0a8ff76ca77ea9d5864b4ccc773412f37f6e612252f9245dce617"),
    ('verify sl2_plus_abelian1 --theorem 1', 0, "0cb0cd95df0f067c08c742e783dfe20866c9208c9ddeda6a3c1786925b59d0da"),
    ('verify sl2_plus_abelian1 --theorem 2', 0, "a121ff38612236803e15888782da719002a8bf533f63b9f2a7f121344bccf882"),
    ('verify sl2_plus_abelian1 --theorem lemma', 0, "ef1e3106609bfa33fb3929848de0f1fc81e87f7238f558264950b755b1921bd3"),
    ('corpus-verify', 1, "748c68deb49cadce1be263d8a8375036378a2822fc2163a52abfc6e1a80321ab"),
]


@pytest.mark.parametrize("args,code,digest", TEXT_GOLDEN,
                         ids=[g[0] for g in TEXT_GOLDEN])
def test_text_output_matches_recorded_hash(args, code, digest):
    assert hashed(args.split()) == (code, digest)


# Every request of bench/run.py's corpus, ladder and explore workloads, on
# the inputs bench/fixtures.py writes at the default seed, against the exit
# code and hash pinned in bench/pins.json.
PINS = json.loads((BENCH / "pins.json").read_text())
BENCH_REQUESTS = [req for workload in ("corpus", "ladder", "explore")
                  for req in workload_requests(workload)]


@pytest.mark.parametrize("req", BENCH_REQUESTS, ids=[r.id for r in BENCH_REQUESTS])
def test_bench_request_matches_pin(req, tmp_path, monkeypatch):
    pin = PINS["requests"][req.id]
    # the one input file a ladder or explore request reads, none for corpus
    FIXTURES.write_inputs([a.removesuffix(".json") for a in req.args
                           if a.endswith(".json")], PINS["default_seed"], tmp_path)
    monkeypatch.chdir(tmp_path)
    assert hashed(["--json", *req.args]) == (pin["exit"], pin["sha256"])


# (command and algebra, exit code, sha256 of stdout) of the text form on
# the six files bench/fixtures.py writes at seed 1, each read as
# <name>.json from the working directory, as the first line prints the
# file's name; recorded before the CLI's argument rule and its handling of
# a failed write last changed
FIXTURE_TEXT_GOLDEN = [
    ('info abelian4', 0, "09b70608937b0b7918329e8891049d4c91e2735bdd0cca706b9f2e778666d142"),
    ('der abelian4', 0, "3d702d0a3c4a5586f51d0adefb4bd53f53f2407b7bd5c61f5422239e1b760efb"),
    ('dder abelian4', 0, "7f950d272027341d9021f5171a7e021609b35aceacc07bcdb662474a979b90a4"),
    ('full-graph abelian4', 0, "2f51ac7b8ce753c7066460f499d9c734fbb9a568404fd360c42652091d810c74"),
    ('verify abelian4', 0, "97c7f18e608d1f2581ec43ce4024947299c1918bdef0bb84b8ff00847b7da62d"),
    ('info heisenberg5', 0, "a770ba754402b44582ddd835b877997ee518fd73a42272545b881a48d73ade73"),
    ('der heisenberg5', 0, "b938e6e7ca609cd472c6d370f69d9741e3db15244c8ead3be503e45f89a5c222"),
    ('dder heisenberg5', 0, "c63651a754539781134537a091d9444938c8e415caf6d986fb6b707a14b7d58a"),
    ('full-graph heisenberg5', 0, "63b3eacdf89e9862948e5cfe8975393aaaaad16ca3aa28623bb09381cbd05594"),
    ('verify heisenberg5', 1, "e5407c8fa858d5fc9a449b5f1ee0f83263808e70eb3420fadcf82e742ae8fa9c"),
    ('info sl2_sum_sl2', 0, "cc79fe7c64b0089184040c65f6cbab1de8f0270bd17685109d3b808160957d8c"),
    ('der sl2_sum_sl2', 0, "0dc34d5e656d12784b60f2c675dc3307eb49a7e0918533b09ff52bcf7df6eb62"),
    ('dder sl2_sum_sl2', 0, "c706264f138cc10bb30c4ab478aed6113b8003fa983de5d683b4674220d63a42"),
    ('full-graph sl2_sum_sl2', 0, "263e13c888fbd6df8b2c92e128b597ab6ccf765c3b72be5b620f7e94f724f156"),
    ('verify sl2_sum_sl2', 0, "e2f590467a6ca86768f91ec4b24a18f71a951dbf366c3d2e4b8f74bc6e0c1611"),
    ('info filiform8', 0, "7f5506b374c3ecb6ba674acacf0550701aadde98faa4dec9a0925218c67012da"),
    ('der filiform8', 0, "9cd28a3bd41ba6ac550a043d9cca365e824296d21bc138881a2294b7fbc556bd"),
    ('dder filiform8', 0, "2b4b89870cd8537073887e6f0c9511619357bbf8447bea836e9562749816e49e"),
    ('full-graph filiform8', 0, "65c787e4e052a50df859bc9b432e6706e91429e17d80e44bb0eb5924a0dd231a"),
    ('verify filiform8', 0, "390848977c93d8aa37fadc9eaadc9fa25595cbfe3e0755edf9aef36714cd80bf"),
    ('info diagonal8', 0, "e157a30d4cd703c1cc4f10ff4e6f1f1e232eda28d652da0792be4c063bea3e57"),
    ('der diagonal8', 0, "b8d5aa8a270735442ac29f41c2ab72939211c1334ddfa7cd2eef49c0702a7cc2"),
    ('dder diagonal8', 0, "5bcc8d9c44e4122305a57ba3f70820dd689d135780827c86093e47b16d05eeb1"),
    ('full-graph diagonal8', 0, "03490da293477828791a67c38fde318781961d76654137cb3db1e15b83637266"),
    ('verify diagonal8', 0, "5d52cfc565eca6420373627dd001bd819109af11ebcb13d773b926b0e04dd18e"),
    ('info heisenberg7', 0, "65e4d2c1f8f650bc4c249898911bf4673deaf817ffb9b009ffc6141e6be89ae7"),
    ('der heisenberg7', 0, "fd561a93c0e49c495ce3ca23f6aa92486336562b848d61fb08e4016ef7d83407"),
    ('dder heisenberg7', 0, "e41b87b9ced2a1f7dae6bcca540272178f6a9eece0c13c2de37b4882c09b1e91"),
    ('full-graph heisenberg7', 0, "f4a952d92dd557533f3467fb9332da90f4ee877a570cb96aded4d0d586a03bd6"),
    ('verify heisenberg7', 1, "a9910a5f0b1fb711a4bc491b380a2bd59c3ac4e77dbd207e28c322f2ef9a0e9e"),
]


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fixtures")
    FIXTURES.write_inputs(FIXTURES.LADDER + FIXTURES.EXPLORE, 1, directory)
    return directory


@pytest.mark.parametrize("args,code,digest", FIXTURE_TEXT_GOLDEN,
                         ids=[g[0] for g in FIXTURE_TEXT_GOLDEN])
def test_fixture_text_output_matches_recorded_hash(args, code, digest,
                                                   fixture_dir, monkeypatch):
    command, name = args.split()
    monkeypatch.chdir(fixture_dir)
    assert hashed([command, "--file", f"{name}.json"]) == (code, digest)

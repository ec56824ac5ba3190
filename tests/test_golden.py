"""Fixed-seed CLI output stays byte-stable.

Each digest is the SHA-256 of one subcommand's stdout on a small
generated instance. A change that alters output on purpose records the
new digests here and says why in CHANGES.md.
"""
import hashlib

from arborpack.cli import main

# (name, `gen` arguments, k for `pack`)
INSTANCES = (
    ("known_packing", ["known_packing", "--n", "12", "--k", "3", "--seed", "1"], 3),
    ("cycle_plus_chords", ["cycle_plus_chords", "--n", "40", "--chords", "8",
                           "--seed", "2"], 1),
    ("cycle_plus_chords_weighted", ["cycle_plus_chords", "--n", "30", "--chords", "6",
                                    "--max-cap", "4", "--seed", "5"], None),
    ("two_cliques_bridge", ["two_cliques_bridge", "--half", "5", "--seed", "3"], 2),
)

GOLDEN = {
    "known_packing hierarchy": "888869cb545566d4d97a41b6ee9f4770294cae71c00c9be4684032a50cbde553",
    "known_packing mincut": "f69046c7719ce3a56a7366739bae5e1b60321c822602b440dd948e66d61822e9",
    "known_packing mincut --exact": "c5172a4443e0a69f828bbc5cba4d1ca2335ee94c2e0656301d45e4c165b3058b",
    "known_packing pack": "1a81f399ff5c645f03e2342e3ad0c0e0074f31f47d5089ccc4d71929349a6657",
    "cycle_plus_chords hierarchy": "4ecf5825553fecd862d1cd8f03902ffa5f990ea775fb74b3eaaab67cb7a130f7",
    "cycle_plus_chords mincut": "dc59d902895e3e6b8baed73a1b2d1f9136dd0002f44e294113d14240cdb0a0e6",
    "cycle_plus_chords mincut --exact": "fcb91e004c5443971aadeefb7808e2e682638d20cff566ddd0d6bb21bfb7542b",
    "cycle_plus_chords pack": "c6142a789c1e679a23db8eb8543380db956784f48efc90d1e0a3ac192b297693",
    "cycle_plus_chords_weighted hierarchy": "2bd406b8375657444fa844b0bf1a1a569de70936d811e14e3907d3d28c165218",
    "cycle_plus_chords_weighted mincut": "eeb4b00bd87c4866d9ef1b9855e85ddfe5a94d0c7d24869ad4b5c11b89b4c772",
    "cycle_plus_chords_weighted mincut --exact": "41f28eb331950245cb5990af9a48b22f5d743335d3d14f422dcf0836981de345",
    "two_cliques_bridge hierarchy": "79a66339e23d27e39032ce3c46150e754397cff095db6fedd8ed27026e99de28",
    "two_cliques_bridge mincut": "124826a3e104e11efac92ba16ab1fd772a7af398062328a9882eb018b382263b",
    "two_cliques_bridge mincut --exact": "038b27ef0368150f89816adb1f10973bef4ea64d1fca55c518d424129442a8ee",
    "two_cliques_bridge pack": "206fbb8c9553c610b1718c18fd1027cdf37b701c3cf507a87e7579a65e2d27a3",
    # `mincut --verbose`: the candidates pin the level-0 singletons and
    # which component sweeps went below the best cut so far, in the
    # order the search visits levels and components.
    "known_packing mincut --verbose": "6c7bc0e9917aeb175aa8afdbbbe97ae0aea4ed6c85fa5ee880a06fa6925304ad",
    "cycle_plus_chords mincut --verbose": "7303d51a573dae077a89e310d42ed70fef2d56ab497a60e315e00953aa927560",
    "cycle_plus_chords_weighted mincut --verbose": "e0250cb9a81818a0490cac305f47c59d9fc6c089bffc42733947e1d63347c593",
    "two_cliques_bridge mincut --verbose": "acb021c2b2a6df4aab124c92d054ddfaf825ed53a710c6fd268b04e1d5a0f513",
    # `verify` on the `mincut` and `pack` outputs above.
    "known_packing verify mincut": "bd3351677830fe995e1c5b6144d015751f929fa98c528466e1aa52b7ce75e6c2",
    "known_packing verify pack": "80e9c95bcd1b27b5e061a9ce7de6d60378a2de9a0f5650ce6453ed71ec442759",
    "cycle_plus_chords verify mincut": "6e9182cbb327db396f139f7714b450f4c922cf7f2adb197ec0ca2a7623351b36",
    "cycle_plus_chords verify pack": "aff962ca3c8b9483337b86cd6655e3605e86c63a92902ac3c61d74e6217eb242",
    "cycle_plus_chords_weighted verify mincut": "884d0be453711b449154c9d9165885205b5f81f62519da4de64430d30191cc09",
    "two_cliques_bridge verify mincut": "26d029fb209b867bb88f662cf5ee85bae3796df9e28dd63a6ff1d217b9d9ef36",
    "two_cliques_bridge verify pack": "ff008999e96cdf7bd2c5fa72579fd1c297eadf17224bcc5e61bec6fe158be1a7",
    # `bench --seed 7` over a corpus of the known_packing and
    # two_cliques_bridge graphs.
    "bench": "4d13f10c2d14b67112dfab6c0435680427a801a3eaf3154478af71a6716ec178",
}


def run_digests(capsys, tmp_path) -> dict:
    digests = {}

    def run(label: str, argv: list) -> str:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == 0, (label, out)
        digests[label] = hashlib.sha256(out.encode()).hexdigest()
        return out

    for name, gen_args, k in INSTANCES:
        graph = str(tmp_path / f"{name}.dmc")
        assert main(["gen", *gen_args, "--out", graph]) == 0
        commands = {
            "hierarchy": ["hierarchy", graph, "--seed", "7"],
            "mincut": ["mincut", graph, "--seed", "7"],
            "mincut --verbose": ["mincut", graph, "--seed", "7", "--verbose"],
            "mincut --exact": ["mincut", graph, "--exact"],
        }
        if k is not None:
            commands["pack"] = ["pack", graph, "--k", str(k), "--seed", "7"]
        for label, argv in commands.items():
            out = run(f"{name} {label}", argv)
            if label in ("mincut", "pack"):
                result = tmp_path / f"{name}-{label}.json"
                result.write_text(out)
                run(f"{name} verify {label}", ["verify", str(result), graph])

    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, gen_args, _k in (INSTANCES[0], INSTANCES[3]):
        assert main(["gen", *gen_args, "--out", str(corpus / f"{name}.dmc")]) == 0
    run("bench", ["bench", str(corpus), "--seed", "7"])
    return digests


def test_fixed_seed_outputs_match_recorded_digests(capsys, tmp_path):
    digests = run_digests(capsys, tmp_path)
    changed = sorted(key for key in GOLDEN if digests.get(key) != GOLDEN[key])
    assert not changed, f"output changed for: {changed}"
    assert digests.keys() == GOLDEN.keys()


# `gen` stdout of every kind, and the errors for a missing argument:
# (`gen` arguments, exit code, digest).
GEN_GOLDEN = {
    "random_gnm": (
        ["random_gnm", "--n", "12", "--m", "40", "--max-cap", "3", "--seed", "4"], 0,
        "28bdc960ef77b6d494541162190639ed2e3b65f97b1ce392b1a68c1ae6301a74",
    ),
    "dag_layered": (
        ["dag_layered", "--n", "12", "--m", "30", "--max-cap", "3", "--seed", "6"], 0,
        "be47fc112acb5f7da336fecec5be30e943d39132b9609d3c095c7c9911c44849",
    ),
    "known_packing": (
        INSTANCES[0][1], 0,
        "719e8a5d992d957e53234a6ba28386aa67feafddc2df5b7c92fa26a10abe65e6",
    ),
    "cycle_plus_chords": (
        INSTANCES[1][1], 0,
        "01ee5802ea45e332bb464cc4138bb1d22a4c14f4f4d1b051351cb87203d0397e",
    ),
    "cycle_plus_chords_weighted": (
        INSTANCES[2][1], 0,
        "ac498d62f24a519f59ad471295a89df80890bbe8d88c2e6e3be92d7c7ed0eb99",
    ),
    "two_cliques_bridge": (
        INSTANCES[3][1], 0,
        "1c042bc820d5a7788c03db881fdcae3592d4d0b98e33fe3d58ed33651665fe97",
    ),
    "missing --n": (
        ["random_gnm", "--m", "10", "--seed", "1"], 2,
        "26911f8bffcbd90bba5168cf91ffd96b18075c6ef7cf17a445427a26418fa4e7",
    ),
    "missing --m": (
        ["dag_layered", "--n", "10", "--seed", "1"], 2,
        "78e57ffdb544f1ed35ccef04ac43dbf6af9e0a038345d5031a2efe6fe9e0e1ab",
    ),
    "missing --k": (
        ["known_packing", "--n", "10", "--seed", "1"], 2,
        "a5f093d1fc201acd27dc4bf0490a45362aed4587f1ebbe4a1772f959c4a929f9",
    ),
}


def test_gen_outputs_match_recorded_digests(capsys):
    changed = []
    for label, (gen_args, code, digest) in GEN_GOLDEN.items():
        got = main(["gen", *gen_args])
        out = capsys.readouterr().out
        if got != code or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(label)
    assert not changed, f"gen output changed for: {changed}"


# `pack` and `verify` on an instance whose level 1 routes 318 demand
# pairs, each along a fewest-edge path inside its component, at
# congestion 14, and whose trees have congestion 1 after the exchange
# pass, so the digests pin how the router's two searches break ties
# between such paths; the instances above route only a handful of pairs.
ROUTED_GEN = ["known_packing", "--n", "60", "--k", "6", "--seed", "4"]
ROUTED_GOLDEN = {
    "pack": "9e21c1c1a1abe625b82682c7d88b4be3e6afc002cc1246f161e90eecdb2752db",
    "verify pack": "b419be4c9e957b3dc6bb867fe2cade01da34001dc95c30514aea6017d9a5eaa0",
}


# `hierarchy` and `mincut` at `--phi 1 --seed 1`. Both decompositions
# halve phi (level phis 1, 1/8, 1, 1 and 1, 1, 1, 1/2), so the flows on
# one graph run at capacity scales 1, 2, 4 and 8; the digests above run
# only at scale 16.
PHI1_GOLDEN = {
    "two_cliques_bridge hierarchy":
        "056c8e11905b12ca19022b4c042adf441bcea68ece44ba872e2b5c4820be4aeb",
    "two_cliques_bridge mincut":
        "eeb685446ae70c03dadf9e170f82dcdfb0c21bdc00f12201a1e1827f49cb23a3",
    "cycle_plus_chords_weighted hierarchy":
        "93a6bdfb9fe5af91f3336ab840b810427e0635e0628bf1fde7b971718458cf41",
    "cycle_plus_chords_weighted mincut":
        "7540b96b642642816a323680a67ed71223ffdcc9792f0784fd8dabdb93d63bd0",
}


def test_phi_one_outputs_match_recorded_digests(capsys, tmp_path):
    digests = {}
    for name, gen_args, _k in (INSTANCES[3], INSTANCES[2]):
        graph = str(tmp_path / f"{name}.dmc")
        assert main(["gen", *gen_args, "--out", graph]) == 0
        capsys.readouterr()
        for command in ("hierarchy", "mincut"):
            assert main([command, graph, "--phi", "1", "--seed", "1"]) == 0
            out = capsys.readouterr().out
            digests[f"{name} {command}"] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == PHI1_GOLDEN


# `mincut --exact` on larger instances, where the order in which the
# oracle meets its sinks decides which minimum cut is the witness.
EXACT_GOLDEN = {
    "cycle_plus_chords n=1200": (
        ["cycle_plus_chords", "--n", "1200", "--chords", "4", "--seed", "3"],
        "1f1371d13e92a5508696c87c51a7d47a2d0e03065edf25e9a89ba5c1aa0d19d5",
    ),
    "known_packing n=200": (
        ["known_packing", "--n", "200", "--k", "5", "--seed", "2"],
        "97a24af328e9d21cefb2540b5fd6e963731a92f0767be9d6e2a6615a12b1415b",
    ),
}


def test_exact_mincut_at_scale_matches_recorded_digests(capsys, tmp_path):
    changed = []
    for label, (gen_args, digest) in EXACT_GOLDEN.items():
        graph = str(tmp_path / "g.dmc")
        assert main(["gen", *gen_args, "--out", graph]) == 0
        capsys.readouterr()
        assert main(["mincut", graph, "--exact"]) == 0
        out = capsys.readouterr().out
        if hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(label)
    assert not changed, f"exact min-cut output changed for: {changed}"


# `hierarchy` and `mincut --verbose` at `--seed 1` on the n = 1200 ring
# above. Its level-2 terminals are a handful of ring edges, so the
# certification flows there run on the ring with its terminal-free
# stretches contracted to single edges.
CONTRACTED_GEN = EXACT_GOLDEN["cycle_plus_chords n=1200"][0]
CONTRACTED_GOLDEN = {
    "hierarchy": "58fe4b02e80ece31627a6a5137264dd9b493dd79fe1ef752df9c0301941ad50d",
    "mincut --verbose": "7bcb3f72ff3429c19b378a95f22f352663cabefc342dd45e0fca6ae3c5105d0c",
}


def test_contracted_level_outputs_match_recorded_digests(capsys, tmp_path):
    graph = str(tmp_path / "ring.dmc")
    assert main(["gen", *CONTRACTED_GEN, "--out", graph]) == 0
    capsys.readouterr()
    digests = {}
    for label in CONTRACTED_GOLDEN:
        command, *flags = label.split()
        assert main([command, graph, "--seed", "1", *flags]) == 0
        digests[label] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digests == CONTRACTED_GOLDEN


def test_pack_under_routing_load_matches_recorded_digests(capsys, tmp_path):
    graph = str(tmp_path / "routed.dmc")
    assert main(["gen", *ROUTED_GEN, "--out", graph]) == 0
    capsys.readouterr()
    assert main(["pack", graph, "--k", "6", "--seed", "1"]) == 0
    packed = capsys.readouterr().out
    result = tmp_path / "routed-pack.json"
    result.write_text(packed)
    assert main(["verify", str(result), graph]) == 0
    verified = capsys.readouterr().out
    digests = {
        "pack": hashlib.sha256(packed.encode()).hexdigest(),
        "verify pack": hashlib.sha256(verified.encode()).hexdigest(),
    }
    assert digests == ROUTED_GOLDEN

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
    "known_packing pack": "b75c169a33ab8313de3873e380d568f4278e87d5e0d3b256ec37f09cc6d912f4",
    "cycle_plus_chords hierarchy": "4ecf5825553fecd862d1cd8f03902ffa5f990ea775fb74b3eaaab67cb7a130f7",
    "cycle_plus_chords mincut": "dc59d902895e3e6b8baed73a1b2d1f9136dd0002f44e294113d14240cdb0a0e6",
    "cycle_plus_chords mincut --exact": "fcb91e004c5443971aadeefb7808e2e682638d20cff566ddd0d6bb21bfb7542b",
    "cycle_plus_chords pack": "5ae051822ae6bb0d018ca6eb1a83c2ff02c78a0c28b26dce302d44f783ab0798",
    "cycle_plus_chords_weighted hierarchy": "2bd406b8375657444fa844b0bf1a1a569de70936d811e14e3907d3d28c165218",
    "cycle_plus_chords_weighted mincut": "eeb4b00bd87c4866d9ef1b9855e85ddfe5a94d0c7d24869ad4b5c11b89b4c772",
    "cycle_plus_chords_weighted mincut --exact": "41f28eb331950245cb5990af9a48b22f5d743335d3d14f422dcf0836981de345",
    "two_cliques_bridge hierarchy": "79a66339e23d27e39032ce3c46150e754397cff095db6fedd8ed27026e99de28",
    "two_cliques_bridge mincut": "124826a3e104e11efac92ba16ab1fd772a7af398062328a9882eb018b382263b",
    "two_cliques_bridge mincut --exact": "038b27ef0368150f89816adb1f10973bef4ea64d1fca55c518d424129442a8ee",
    "two_cliques_bridge pack": "206fbb8c9553c610b1718c18fd1027cdf37b701c3cf507a87e7579a65e2d27a3",
    # `mincut --verbose`: the candidate order pins the order in which
    # the search visits levels and components.
    "known_packing mincut --verbose": "b81fc9def3b84c7b62c6bfbc67bb7e5b85592e889c8cb2941c2b1e4e47481c51",
    "cycle_plus_chords mincut --verbose": "f42dff98e40a80b294e3c8fd6b03df8fc5f837d1510013c64fb80196c2f1c18d",
    "cycle_plus_chords_weighted mincut --verbose": "e784935934396d6da4d0c8e94efa7e73a62d97274162d09d4732347622b30204",
    "two_cliques_bridge mincut --verbose": "67776c7f76b0220d2df20441ca867ef6d060dc0ac7d867c339f52fbc42317f8b",
    # `verify` on the `mincut` and `pack` outputs above.
    "known_packing verify mincut": "4b4d40573885ebc007d66504c4edd4eb9a1af0671e6f149a88ccead5d928ef41",
    "known_packing verify pack": "1e45f8fe3cc77805dde3a012e5f7a08b3a28e19c2e884e8b7d1fe8577914b9ee",
    "cycle_plus_chords verify mincut": "e2900554458411790ffe25e94d7d253ce91a34a88b10d9fb13a9b45eaac27370",
    "cycle_plus_chords verify pack": "aff962ca3c8b9483337b86cd6655e3605e86c63a92902ac3c61d74e6217eb242",
    "cycle_plus_chords_weighted verify mincut": "3cf4b54b0e866673775325ddc21b819e9ef07be55b2fe00444c2c2dcf4510d5a",
    "two_cliques_bridge verify mincut": "3bea37c661a6559a07d188799222a493419a176a75bc242af7a7ddfbed8fbba0",
    "two_cliques_bridge verify pack": "ff008999e96cdf7bd2c5fa72579fd1c297eadf17224bcc5e61bec6fe158be1a7",
    # `bench --seed 7` over a corpus of the known_packing and
    # two_cliques_bridge graphs.
    "bench": "b943ab35161be71a98696ac536c23279bbc0d7527623da62154d70448759dc67",
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


# `pack` and `verify` on an instance whose level 1 routes 322 demand
# pairs at congestion 9, so the digests pin the router's tie-breaking
# and reroute sweeps; the instances above route only a handful of pairs.
ROUTED_GEN = ["known_packing", "--n", "60", "--k", "6", "--seed", "4"]
ROUTED_GOLDEN = {
    "pack": "fb33b22f62d651c90bed6c55a2c3ab8e59eb91fcad7e4c02100cf231b640a0e6",
    "verify pack": "ba74d587984b9000842664a8745f90a0d7e2674d38fc4f8a0f865dba4ed63b43",
}


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

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

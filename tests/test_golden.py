"""Fixed-seed CLI output stays byte-stable.

Each digest is the SHA-256 of one subcommand's stdout on a small
generated instance. A change that alters output on purpose records the
new digests here and says why in CHANGES.md.

The digests are of the one-line layout, `json.dumps(doc, sort_keys=True)`.
They were re-recorded when the CLI dropped its `indent=2` layout; only
the layout changed, so re-indenting each new output with
`json.dumps(..., indent=2, sort_keys=True)` gives back the digest it
replaced. The `bench` digest and the `gen` graph-text digests were not
re-recorded: `bench` already wrote one such line per instance, and
graph text is not JSON.
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
    "known_packing hierarchy": "ad16e13da874e7c4105d21bd797fcaef009767db6585d9ab170fb6858a28cdf3",
    "known_packing mincut": "428eba79a1a944eac8be75dca69c9bc231c4741dee34aa3953b5bc5fba5e93c2",
    "known_packing mincut --exact": "05df82bc7c12816da241c8857edb309d23b31e47843134acde5067a5d4cd5c88",
    "known_packing pack": "b1ecfb93db219268a5e10105880091f0d53b67ab20d8ed4946c41650da27e7a9",
    "cycle_plus_chords hierarchy": "ad17342a724769a45e84e6adaffdf09f405f80956f6a43120f06711b23d81d96",
    "cycle_plus_chords mincut": "64fe7398e6e96d2d619ffb5687d02a5b1e8bf42c00cbf36779ed0af9bb5bbaa5",
    "cycle_plus_chords mincut --exact": "5a976c7c3dc401269837bd8089af771d2fbd8e1ec05cd6175a69248780ea9405",
    "cycle_plus_chords pack": "f87509abd5fd4a4e8af3ea5e29e57e93a45daf02e8f4e6eb1049df2269dbb3bd",
    "cycle_plus_chords_weighted hierarchy": "5ff61c85317cb811b489a946c24c202b9aaf3ff2cc83aa6e7b3731c965ec247e",
    "cycle_plus_chords_weighted mincut": "02e7b13584d205e21e3e85330ab6b93718c06400c54170333d8739745abd413f",
    "cycle_plus_chords_weighted mincut --exact": "fc263601932af3f21d7c56aa9abafac8b670d4ab999f07c555e00e167737eb07",
    "two_cliques_bridge hierarchy": "c043816766ef40aedf02eea14d7c1f812fbb2f3f181b0872022cec3dbfbade93",
    "two_cliques_bridge mincut": "783dfccdea573106cbd05e10c6b2b0548605cbfdcd641178909a449d94072782",
    "two_cliques_bridge mincut --exact": "3faa92c7b5f6a6d21b8d17278c9d8258b1ea389d7e84287a25b201611f3b7f37",
    "two_cliques_bridge pack": "e58205a9a853f75b4faa0e789c5e749142e9fb9931ff9069b93d80868446c25f",
    # `mincut --verbose`: the candidates pin the level-0 singletons and
    # which component sweeps went below the best cut so far, in the
    # order the search visits levels and components.
    "known_packing mincut --verbose": "836c80bf0d8892e03ea430c8cd1e8af987f5b1992c1989ffc13d523a7f4481aa",
    "cycle_plus_chords mincut --verbose": "b5725923a8cbd58b2722083bd7b4fea659af28ddcac1f29c59f4fc4f730272b3",
    "cycle_plus_chords_weighted mincut --verbose": "4565fe858f6870d935ef78d7b7436a87afecd22900fea382fd8da80e3cfbcfa5",
    "two_cliques_bridge mincut --verbose": "d3055655d71baa8401dff66a9349bfac85815f1aed5ea30dd9ed74e609f06f6a",
    # `verify` on the `mincut` and `pack` outputs above.
    "known_packing verify mincut": "f45b548bc31f5db5966cc03b94b93a0b7d7052e64d923df99a8cd8498b5cd35a",
    "known_packing verify pack": "24597f6f1efd30d6108471a48b951699e47a35f9123195ceac26473e2e4fcddf",
    "cycle_plus_chords verify mincut": "a17f191e3a6e5fa73b8b4efe1007a9ac990f85efc9270a8b3ba660452297d398",
    "cycle_plus_chords verify pack": "b9da96dce1acb0087354f4f421baa06450c312c06dd93a78606f93979e9cb268",
    "cycle_plus_chords_weighted verify mincut": "e2e91f227fc071b1026cd699b40f747e91533868dd4dfe9fc659b8b97365f4d5",
    "two_cliques_bridge verify mincut": "ecaed2a237a72bcfd9526f9112d7ea5c84ce6a18f38a08f98a94b8e1275d260e",
    "two_cliques_bridge verify pack": "5c5828207c1ce93129dbac40b62a0df29f53d395480077c0b7e21c0d3553360c",
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
        "0995dfde9cad3e20261878267d4a90d4f1be2db36cfbe9743f3c82b15a605df5",
    ),
    "missing --m": (
        ["dag_layered", "--n", "10", "--seed", "1"], 2,
        "7ec06c0a247ed64725786526e851f9b6e9a2f9e0258c2c84db336dad1d7af60c",
    ),
    "missing --k": (
        ["known_packing", "--n", "10", "--seed", "1"], 2,
        "15ad64f5eb887b7843112e57268e148652311f73ff36ee2eafee8a2ee8a7942c",
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


# `pack` and `verify` on an instance whose level 1 routes one tree per
# color, six in all, at congestion 5, and whose trees have congestion 2
# after the exchange pass, so the digests pin the order in which the
# router's stack search pushes out-edges and the exchange pass's moves
# off shared edges; the instances above route only a few small trees.
ROUTED_GEN = ["known_packing", "--n", "60", "--k", "6", "--seed", "4"]
ROUTED_GOLDEN = {
    "pack": "c0889a82eb6045fbc156a0b090bacb7917e48e0fd8bf31cab9aa9f720962b220",
    "verify pack": "ab2966dc16e50faa9b131912d10c58940bbb5df3ad1d23c93c5ea984a7cce598",
}


# `hierarchy` and `mincut` at `--phi 1 --seed 1`. Both decompositions
# halve phi (level phis 1, 1/8, 1, 1 and 1, 1, 1, 1/2), so the flows on
# one graph run at capacity scales 1, 2, 4 and 8; the digests above run
# only at scale 16.
PHI1_GOLDEN = {
    "two_cliques_bridge hierarchy":
        "4d3671557251533289f7f50729a960de2d44bec8050ceaec293c195926774db4",
    "two_cliques_bridge mincut":
        "514e1442ac0f070bc70a60dba06c28e4b65c801cafaed7efb7860bfb067f2d46",
    "cycle_plus_chords_weighted hierarchy":
        "74d2a98e000703dcc4e133c87fd1517ab8a0ff1ee3fb902767aa0f990495ce18",
    "cycle_plus_chords_weighted mincut":
        "e8b7815647c4e41b5f4d5f9e77302d30f0e8d84cac00460a6c6ff05490ef55ab",
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
        "5b0886165997d630ff897f16066e2235e7d11cdb1fb44ecef2294ecb94066e3c",
    ),
    "known_packing n=200": (
        ["known_packing", "--n", "200", "--k", "5", "--seed", "2"],
        "9d3d8b28ef4c3b948b12925864e6b77307035b60e896c6f8737e06557e9e553d",
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
    "hierarchy": "d1496d518eba8521d4ebb4edf2290394423ba31cc57902a9f0c868e746de13be",
    "mincut --verbose": "95d37be4a3464eb686441939d1d9179e25be86842358f9702d981f90f6e6c5a3",
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

"""The helper scripts: corpus -> `arborpack bench` -> summary, the
summary's errors, and the output digests."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def run(*argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, *map(str, argv)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_corpus_bench_summary(tmp_path):
    made = run(SCRIPTS / "make_corpus.py", "--out", "corpus", "--count", "5",
               "--seed", "1", cwd=tmp_path)
    assert made.returncode == 0, made.stderr
    assert len(list((tmp_path / "corpus").glob("*.dmc"))) == 5

    bench = run("-m", "arborpack", "bench", "corpus", "--seed", "1", cwd=tmp_path)
    assert bench.returncode == 0, bench.stderr
    records = [json.loads(line) for line in bench.stdout.splitlines()]
    assert len(records) == 5
    assert all(r["kind"] == "bench" and r["ratio"] >= 1 for r in records)
    (tmp_path / "bench.jsonl").write_text(bench.stdout)

    summary = run(SCRIPTS / "bench_summary.py", "bench.jsonl", cwd=tmp_path)
    assert summary.returncode == 0, summary.stderr
    assert "instances:        5" in summary.stdout


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read"),
        ('{"kind": "bench"}\n', "lacks key 'ratio'"),
        ("not json\n", "is not JSON"),
        ("[1, 2]\n", "is not a JSON object"),
    ],
    ids=["missing_file", "no_ratio", "not_json", "not_object"],
)
def test_summary_errors_are_one_line(tmp_path, content, message):
    if content is not None:
        (tmp_path / "bench.jsonl").write_text(content)
    res = run(SCRIPTS / "bench_summary.py", "bench.jsonl", cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and message in res.stderr
    assert "Traceback" not in res.stderr


def test_output_digests(tmp_path):
    graphs = tmp_path / "graphs"
    graphs.mkdir()
    for argv in (["random_gnm", "--n", "5", "--m", "12", "--max-cap", "3"],
                 ["known_packing", "--n", "6", "--k", "4"]):
        made = run("-m", "arborpack", "gen", *argv, "--seed", "1",
                   "--out", graphs / f"{argv[0]}.dmc", cwd=tmp_path)
        assert made.returncode == 0, made.stderr

    res = run(SCRIPTS / "output_digests.py", graphs, "--seed-base", "7", cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    digests = json.loads(res.stdout)
    # Five fixed calls per graph, then `pack` at lambda and lambda + 1:
    # 4 and 5 on known_packing, 1 and 2 (a repeat) on random_gnm; each
    # with a `verify` of its output.
    assert len(digests) == 2 * 13
    # known_packing sorts first, so it gets seed 7 and random_gnm seed 8.
    for argv in (["hierarchy", "random_gnm.dmc", "--seed", "8"],
                 ["pack", "known_packing.dmc", "--k", "5", "--seed", "7"]):
        direct = run("-m", "arborpack", argv[0], graphs / argv[1], *argv[2:], cwd=tmp_path)
        assert digests[" ".join(argv)] == {
            "exit": direct.returncode,
            "sha256": hashlib.sha256(direct.stdout.encode()).hexdigest(),
        }
    assert "pack known_packing.dmc --k 4 --seed 7" in digests
    # `verify` of each output, run on a copy of it in a file.
    for argv in (["hierarchy", "random_gnm.dmc", "--seed", "8"],
                 ["mincut", "known_packing.dmc", "--exact", "--seed", "7"],
                 ["pack", "known_packing.dmc", "--k", "4", "--seed", "7"]):
        direct = run("-m", "arborpack", argv[0], graphs / argv[1], *argv[2:], cwd=tmp_path)
        (tmp_path / "result.json").write_text(direct.stdout)
        verified = run("-m", "arborpack", "verify", "result.json", graphs / argv[1],
                       cwd=tmp_path)
        assert verified.returncode == 0, verified.stdout
        assert digests[f"verify ({' '.join(argv)})"] == {
            "exit": 0,
            "sha256": hashlib.sha256(verified.stdout.encode()).hexdigest(),
        }
    # The weighted graph's `pack` gives an error document, which `verify`
    # refuses as a parameter error.
    assert digests["verify (pack random_gnm.dmc --k 2 --seed 8)"]["exit"] == 2
    assert "pack random_gnm.dmc --k 1 --seed 8" in digests
    # Packing is for unit capacities: the weighted graph gets a parameter error.
    assert digests["pack random_gnm.dmc --k 2 --seed 8"]["exit"] == 2
    assert digests["pack known_packing.dmc --k 2 --seed 7"]["exit"] == 0
    assert run(SCRIPTS / "output_digests.py", graphs, "--seed-base", "7",
               cwd=tmp_path).stdout == res.stdout


def test_output_digests_needs_graphs(tmp_path):
    res = run(SCRIPTS / "output_digests.py", tmp_path, cwd=tmp_path)
    assert res.returncode == 2
    assert res.stdout == "" and "no .dmc files" in res.stderr

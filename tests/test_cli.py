"""CLI surface: parsing, generators, subcommands, schemas, exit codes."""
import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arborpack
from arborpack import cli
from arborpack.cli import format_graph, hierarchy_from_json, hierarchy_to_json, main, parse_graph
from arborpack.decomp import build_hierarchy
from arborpack.errors import InputError, InternalError
from arborpack.generators import (
    gen_cycle_plus_chords,
    gen_dag_layered,
    gen_known_packing,
    gen_random_gnm,
    gen_two_cliques_bridge,
)
from arborpack.graphcore import MAX_EDGES, MAX_VERTICES, check_edge_count, scc
from arborpack.oracle import exact_rooted_mincut

from .conftest import digraphs


def load_schema(name):
    text = resources.files("arborpack.schemas").joinpath(name).read_text()
    return json.loads(text)


def validate(payload, schema_name):
    jsonschema.validate(payload, load_schema(schema_name))


class TestParseGraph:
    def test_minimal(self):
        g, diag = parse_graph("p dmc 2 1 1\na 1 2\n")
        assert g.n == 2 and g.m == 1
        assert g.edges == ((0, 1, 1),)

    def test_zero_capacity_rejected(self):
        with pytest.raises(InputError):
            parse_graph("p dmc 2 1 1\na 1 2 0\n")

    def test_self_loop_counted_and_dropped(self):
        g, diag = parse_graph("p dmc 2 2 1\na 1 2\na 1 1 1\n")
        assert g.m == 1
        assert diag.dropped_self_loops == 1

    def test_missing_problem_line(self):
        with pytest.raises(InputError, match="problem line"):
            parse_graph("a 1 2\n")

    def test_arc_count_mismatch(self):
        with pytest.raises(InputError, match="declares"):
            parse_graph("p dmc 2 2 1\na 1 2\n")

    def test_arc_past_the_declared_count_positioned(self):
        with pytest.raises(InputError, match=r"^line 3: problem line declares 1 arcs"):
            parse_graph("p dmc 2 1 1\na 1 2\na 1 2\n")

    def test_out_of_range_vertex_positioned(self):
        with pytest.raises(InputError, match="line 2"):
            parse_graph("p dmc 2 1 1\na 1 9\n")

    def test_vertex_count_above_bound_rejected(self):
        with pytest.raises(InputError, match="exceeds bound"):
            parse_graph(f"p dmc {MAX_VERTICES + 1} 0 1\n")

    def test_edge_count_above_bound_rejected_before_any_arc(self):
        with pytest.raises(InputError, match=r"^edge count 16777217 exceeds bound 2\^24$"):
            parse_graph("p dmc 3 16777217 1\n")

    @given(digraphs(max_n=8, max_m=20, max_cap=5))
    @settings(max_examples=30)
    def test_round_trip(self, g):
        parsed, _ = parse_graph(format_graph(g))
        assert parsed == g


class TestGenerators:
    def test_gen_deterministic_bytes(self):
        a = format_graph(gen_random_gnm(10, 30, seed=7))
        b = format_graph(gen_random_gnm(10, 30, seed=7))
        assert a == b

    def test_known_packing_connectivity(self):
        g = gen_known_packing(8, 3, seed=3)
        exact, _ = exact_rooted_mincut(g)
        assert exact >= 3

    def test_dag_is_acyclic(self):
        g = gen_dag_layered(10, 20, seed=5)
        assert all(len(c) == 1 for c in scc(g).components)

    def test_huge_vertex_count_is_a_json_error(self, capsys):
        code, out = run_cli(capsys, "gen", "known_packing", "--n", str(10**15), "--k", "1")
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["message"] == f"vertex count {10**15} exceeds bound 2^20"

    @pytest.mark.parametrize(
        "build",
        [
            pytest.param(lambda: gen_random_gnm(10**15, 10**15), id="random_gnm"),
            pytest.param(lambda: gen_dag_layered(10**15, 10**15), id="dag_layered"),
            pytest.param(lambda: gen_cycle_plus_chords(10**15, 10**15),
                         id="cycle_plus_chords"),
            pytest.param(lambda: gen_known_packing(10**15, 10**15), id="known_packing"),
            # 2 * half + 1 vertices: one past the bound.
            pytest.param(lambda: gen_two_cliques_bridge(MAX_VERTICES // 2),
                         id="two_cliques_bridge"),
        ],
    )
    def test_every_generator_rejects_a_vertex_count_past_the_bound(self, build):
        with pytest.raises(InputError, match=r"exceeds bound 2\^20"):
            build()

    @pytest.mark.parametrize(
        ("argv", "count"),
        [
            pytest.param(["random_gnm", "--n", "10", "--m", str(10**15)], 10**15,
                         id="random_gnm"),
            pytest.param(["dag_layered", "--n", "10", "--m", str(10**15)], 10**15,
                         id="dag_layered"),
            pytest.param(["cycle_plus_chords", "--n", "10", "--chords", str(10**15)],
                         10 + 10**15, id="cycle_plus_chords"),
            # 2 * half + 1 vertices pass their bound; 2 * half * (half - 1) + 3
            # edges do not.
            pytest.param(["two_cliques_bridge", "--half", "500000"],
                         2 * 500000 * 499999 + 3, id="two_cliques_bridge"),
            pytest.param(["known_packing", "--n", "10", "--k", str(10**15)], 9 * 10**15,
                         id="known_packing"),
        ],
    )
    def test_every_generator_rejects_an_edge_count_past_the_bound(self, capsys, argv, count):
        code, out = run_cli(capsys, "gen", *argv)
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["message"] == f"edge count {count} exceeds bound 2^24"

    @pytest.mark.parametrize(
        ("argv", "message"),
        [
            pytest.param(argv, message, id=argv)
            for argv, message in [
                ("random_gnm --n 1 --m 1", "random_gnm needs n >= 2"),
                ("random_gnm --n 5 --m -1", "random_gnm needs m >= 0"),
                ("dag_layered --n 1 --m 1", "dag_layered needs n >= 2"),
                ("two_cliques_bridge --half 1", "two_cliques_bridge needs half >= 2"),
                ("cycle_plus_chords --n 2", "cycle_plus_chords needs n >= 3"),
                ("known_packing --n 1 --k 1", "known_packing needs n >= 2"),
                ("known_packing --n 5 --k 0", "known_packing needs k >= 1"),
            ]
        ],
    )
    def test_generator_parameter_check_is_a_json_error(self, capsys, argv, message):
        code, out = run_cli(capsys, "gen", *argv.split())
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["error_type"] == "parameter"
        assert payload["message"] == message

    def test_edge_count_at_the_bound_is_accepted(self):
        check_edge_count(MAX_EDGES)
        with pytest.raises(InputError, match=r"edge count 16777217 exceeds bound 2\^24"):
            check_edge_count(MAX_EDGES + 1)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSubcommands:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "g.dmc"
        code = main(["gen", "cycle_plus_chords", "--n", "6", "--chords", "6",
                     "--seed", "3", "--out", str(path)])
        assert code == 0
        return path

    def test_hierarchy_schema(self, capsys, graph_file):
        code, out = run_cli(capsys, "hierarchy", str(graph_file), "--seed", "1")
        assert code == 0
        validate(json.loads(out), "hierarchy.schema.json")

    def test_mincut_exact_on_path(self, capsys, tmp_path):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        code, out = run_cli(capsys, "mincut", str(path), "--exact")
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 1
        validate(payload, "mincut.schema.json")

    def test_mincut_with_ratio(self, capsys, graph_file):
        code, out = run_cli(capsys, "mincut", str(graph_file), "--seed", "2",
                            "--ratio", "--verbose")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "mincut.schema.json")
        assert payload["value"] >= payload["exact"]
        assert payload["ratio_vs_exact"] >= 1.0

    def test_pack_cut_on_path(self, capsys, tmp_path):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        code, out = run_cli(capsys, "pack", str(path), "--k", "2")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "packing.schema.json")
        assert payload["result"] == "cut"
        assert payload["delta"] == 1

    def test_pack_then_verify(self, capsys, tmp_path, graph_file):
        code, out = run_cli(capsys, "pack", str(graph_file), "--k", "1",
                            "--seed", "5")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "packing.schema.json")
        result_file = tmp_path / "pack.json"
        result_file.write_text(out)
        code, out = run_cli(capsys, "verify", str(result_file), str(graph_file))
        assert code == 0
        report = json.loads(out)
        validate(report, "verify.schema.json")
        assert report["ok"]

    def test_verify_rejects_fake_cut(self, capsys, tmp_path):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        result_file = tmp_path / "bad.json"
        result_file.write_text(json.dumps(
            {"kind": "packing", "k": 1, "result": "cut", "cut": [0, 1], "delta": 1}
        ))
        code, out = run_cli(capsys, "verify", str(result_file), str(path))
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]

    def test_bench_records_validate(self, capsys, tmp_path):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        for seed in (1, 2):
            main(["gen", "known_packing", "--n", "6", "--k", "2",
                  "--seed", str(seed), "--out", str(corpus / f"i{seed}.dmc")])
        code, out = run_cli(capsys, "bench", str(corpus), "--seed", "4")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        for line in lines:
            validate(json.loads(line), "bench.schema.json")

    @pytest.mark.parametrize("text, message", [
        ("p dmc 3 1 1\nx 1 2\n", "c.dmc: line 2: unknown line type 'x'"),
        ("p dmc 3 0 1\np dmc 3 0 1\n", "c.dmc: line 2: duplicate problem line"),
        ("p dmc 3 x 1\n", "c.dmc: line 1: non-integer problem field"),
        ("p dmc 3 0 4\n", "c.dmc: line 1: problem line out of range"),
        ("p dmc 3 1 1\na 1 2 1.5\n", "c.dmc: line 2: non-integer arc field"),
        ("p dmc 1 0 1\n", "c.dmc: rooted min-cut needs at least one non-source vertex"),
    ], ids=["parse_error", "duplicate_problem_line", "non_integer_problem_field",
            "problem_line_out_of_range", "non_integer_arc_field", "single_vertex"])
    def test_bench_error_names_its_file(self, capsys, tmp_path, text, message):
        # a.dmc is benched first; then c.dmc fails with exit code 2.
        (tmp_path / "a.dmc").write_text("p dmc 3 2 1\na 1 2\na 2 1\n")
        (tmp_path / "c.dmc").write_text(text)
        code, out = run_cli(capsys, "bench", str(tmp_path))
        assert code == 2
        record, _, error = out.partition("\n")
        assert json.loads(record)["file"] == "a.dmc"
        payload = json.loads(error)
        validate(payload, "error.schema.json")
        assert payload["message"] == message

    def test_bench_without_graph_files(self, capsys, tmp_path):
        (tmp_path / "notes.txt").write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        code, out = run_cli(capsys, "bench", str(tmp_path))
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["message"] == f"no .dmc files under {tmp_path}"

    def test_bench_note_names_its_file(self, capsys, tmp_path):
        # b.dmc has an arc into the source, vertex 1, which parsing drops.
        (tmp_path / "a.dmc").write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        (tmp_path / "b.dmc").write_text("p dmc 3 3 1\na 1 2\na 2 3\na 3 1\n")
        code = main(["bench", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 0
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["file"] for r in records] == ["a.dmc", "b.dmc"]
        assert captured.err == "note: b.dmc: dropped 0 self-loops and 1 source-incoming arcs\n"

    # "{graph}" stands for a valid graph file, "{dir}" for its directory,
    # so only the arguments themselves are wrong.
    @pytest.mark.parametrize("argv", [
        [],
        ["nosuch"],
        ["mincut", "{graph}", "--bogus"],
        ["mincut", "{graph}", "--trials-mult", "4"],
        ["bench", "{dir}", "--trials-mult", "4"],
        ["pack", "{graph}", "--k", "abc"],
        ["pack", "{graph}"],
        ["hierarchy"],
        ["gen", "no_such_kind"],
        ["hierarchy", "{graph}", "--seed", "1.5"],
    ], ids=lambda argv: " ".join(argv) or "empty")
    def test_usage_error_is_a_json_error(self, capsys, graph_file, argv):
        argv = [a.format(graph=graph_file, dir=graph_file.parent) for a in argv]
        code, out = run_cli(capsys, *argv)
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["error_type"] == "parameter"
        assert payload["message"].startswith("arborpack")

    @pytest.mark.parametrize("argv", [["--help"], ["pack", "--help"]])
    def test_help_prints_usage_and_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: arborpack")

    def test_parse_error_exit_code(self, capsys, tmp_path):
        bad = tmp_path / "bad.dmc"
        bad.write_text("p dmc 2 1 1\na 1 5\n")
        code, out = run_cli(capsys, "mincut", str(bad))
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")

    def test_env_seed_default(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        monkeypatch.setenv("ARBOR_SEED", "17")
        code, out = run_cli(capsys, "mincut", str(path))
        assert code == 0
        assert json.loads(out)["seed"] == 17

    def test_env_seed_invalid(self, capsys, monkeypatch):
        monkeypatch.setenv("ARBOR_SEED", "abc")
        code, out = run_cli(capsys, "gen", "random_gnm", "--n", "5", "--m", "5")
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert "ARBOR_SEED" in payload["message"]

    # 1e-5000 has a 5,001-digit denominator, past Python's int-to-str
    # limit. phi = 0 must be rejected before `pack`, which answers a graph
    # with an unreachable vertex without building a hierarchy.
    @pytest.mark.parametrize("argv", [["hierarchy", "--phi", "1e-5000"],
                                      ["pack", "--k", "1", "--phi", "0"],
                                      ["mincut", "--phi", "abc"]],
                             ids=["tiny", "zero", "not-a-number"])
    def test_phi_out_of_range(self, capsys, tmp_path, argv):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 1 1\na 1 2\n")
        code, out = run_cli(capsys, argv[0], str(path), *argv[1:])
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert "phi" in payload["message"]

    # Fraction would build 10**10000000 (seconds of CPU) before the range
    # check; the exponent alone rules this phi out.
    @pytest.mark.parametrize("phi", ["1e-10000000", "1e-1_000_000_0", "1E+10000000"])
    def test_phi_huge_exponent_rejected_unbuilt(self, capsys, tmp_path, phi):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 1 1\na 1 2\n")
        started = time.process_time()
        code, out = run_cli(capsys, "hierarchy", str(path), "--phi", phi)
        assert time.process_time() - started < 0.5
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert "phi" in payload["message"]

    @pytest.mark.parametrize("phi", ["5e-39", "0.0001e4", "1000e-3"])
    def test_phi_with_exponent_accepted(self, capsys, tmp_path, phi):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 1 1\na 1 2\n")
        code, out = run_cli(capsys, "hierarchy", str(path), "--phi", phi)
        assert code == 0
        assert json.loads(out)["level_phis"][0] == str(Fraction(phi))


class TestVerifyOtherKinds:
    def test_verify_hierarchy_json(self, capsys, tmp_path):
        path = tmp_path / "g.dmc"
        main(["gen", "two_cliques_bridge", "--half", "3", "--seed", "2",
              "--out", str(path)])
        code, out = run_cli(capsys, "hierarchy", str(path), "--seed", "1")
        assert code == 0
        result = tmp_path / "h.json"
        result.write_text(out)
        code, out = run_cli(capsys, "verify", str(result), str(path))
        assert code == 0
        assert json.loads(out)["ok"]

    def test_verify_mincut_json(self, capsys, tmp_path):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        code, out = run_cli(capsys, "mincut", str(path), "--seed", "1")
        assert code == 0
        result = tmp_path / "m.json"
        result.write_text(out)
        code, out = run_cli(capsys, "verify", str(result), str(path))
        assert code == 0
        report = json.loads(out)
        validate(report, "verify.schema.json")
        assert report["ok"]


    def test_verify_mincut_against_a_single_vertex_graph(self, capsys, tmp_path):
        path = tmp_path / "p.dmc"
        path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        code, out = run_cli(capsys, "mincut", str(path), "--seed", "1")
        assert code == 0
        result = tmp_path / "m.json"
        result.write_text(out)
        single = tmp_path / "one.dmc"
        single.write_text("p dmc 1 0 1\n")
        code, out = run_cli(capsys, "verify", str(result), str(single))
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["message"] == "rooted min-cut needs at least one non-source vertex"


def test_internal_error_is_an_operation_error(capsys, tmp_path, monkeypatch):
    def broken(*_args, **_kwargs):
        raise InternalError("hierarchy check failed")

    monkeypatch.setattr(cli, "build_hierarchy", broken)
    path = tmp_path / "p.dmc"
    path.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
    code, out = run_cli(capsys, "hierarchy", str(path))
    assert code == 1
    payload = json.loads(out)
    validate(payload, "error.schema.json")
    assert payload["error_type"] == "operation"
    assert payload["message"] == "hierarchy check failed"


class TestVerifyMalformedResults:
    @pytest.fixture()
    def graph_file(self, tmp_path):
        path = tmp_path / "g.dmc"
        main(["gen", "random_gnm", "--n", "5", "--m", "12", "--seed", "1",
              "--out", str(path)])
        return path

    @pytest.mark.parametrize("text", [
        '{"kind": "packing", "k": 1}',
        '{"kind": "mincut"}',
        '{"kind": "packing", "k": 1, "result": "arborescences", "trees": [["a"]],'
        ' "congestion": 1}',
        '{"kind": "mincut", "cut": [1], "value": "1"}',
        '[1, 2]',
        'not json {',
        '{"kind": "hierarchy", "n": Infinity}',
        '{"kind": "hierarchy", "n": 5, "m": 12, "source": 0, "phi_target": Infinity,'
        ' "levels": [], "partitions": [], "level_phis": []}',
        pytest.param('[' * 100000 + ']' * 100000, id='deeply-nested'),
        pytest.param('{"kind": "mincut", "value": 1' + '0' * 5000 + '}', id='5001-digit-int'),
    ])
    def test_parameter_error_not_traceback(self, capsys, tmp_path, graph_file, text):
        result_file = tmp_path / "bad.json"
        result_file.write_text(text)
        code, out = run_cli(capsys, "verify", str(result_file), str(graph_file))
        assert code == 2
        payload = json.loads(out)
        validate(payload, "error.schema.json")
        assert payload["error_type"] == "parameter"


    def test_huge_vertex_count_is_a_json_error(self, capsys, tmp_path):
        path = tmp_path / "huge.dmc"
        path.write_text("p dmc 1000000000000000 0 1\n")
        code, out = run_cli(capsys, "mincut", str(path))
        assert code == 2
        validate(json.loads(out), "error.schema.json")

    def test_hierarchy_for_another_n_allocates_nothing(self, capsys, tmp_path, graph_file):
        # The schema check builds nothing from n, and n, m and source are
        # compared with the graph's before any other field is read.
        result_file = tmp_path / "h.json"
        result_file.write_text(json.dumps({
            "kind": "hierarchy", "n": 10**15, "m": 12, "source": 0, "phi_target": "1/16",
            "levels": [list(range(12))], "partitions": [[[0]], [[0]]], "level_phis": ["1/16"],
        }))
        code, out = run_cli(capsys, "verify", str(result_file), str(graph_file))
        assert code == 1
        report = json.loads(out)
        validate(report, "verify.schema.json")
        assert report["checks"][0]["detail"] == "hierarchy was not built on this graph"

    def test_missing_files(self, capsys, tmp_path, graph_file):
        missing = str(tmp_path / "missing")
        for argv in (["verify", missing, str(graph_file)], ["mincut", missing]):
            code, out = run_cli(capsys, *argv)
            assert code == 2
            validate(json.loads(out), "error.schema.json")

    @pytest.mark.parametrize("damage", ["missing", "garbled"])
    def test_unreadable_schema_is_a_json_error(self, capsys, tmp_path, graph_file, damage):
        # A copy of the package whose schemas/ is gone, or whose packing
        # schema is not JSON, run in a fresh interpreter.
        copy = tmp_path / "site" / "arborpack"
        skip = ["__pycache__"] + (["schemas"] if damage == "missing" else [])
        shutil.copytree(Path(arborpack.__file__).parent, copy, ignore=shutil.ignore_patterns(*skip))
        if damage == "garbled":
            (copy / "schemas" / "packing.schema.json").write_text("not json {")
        code, out = run_cli(capsys, "pack", str(graph_file), "--k", "1")
        assert code == 0
        (tmp_path / "pack.json").write_text(out)
        proc = subprocess.run(
            [sys.executable, "-m", "arborpack", "verify", "pack.json", str(graph_file)],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": str(copy.parent)},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        payload = json.loads(proc.stdout)
        validate(payload, "error.schema.json")
        assert payload["error_type"] == "operation"
        assert "packing.schema.json" in payload["message"]


def _levels_case(levels):
    return lambda d: {**d, "levels": levels}


def _partition_1_case(groups):
    return lambda d: {**d, "partitions": [d["partitions"][0], groups, d["partitions"][2]]}


def _without(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


_ALL_EDGES = list(range(27))
_LEVEL_1_WRONG = "level-1 partition does not match its SCCs"
_COUNTS = "level/partition counts are inconsistent"
_COVER = "level edge sets do not cover the graph"
_FOREIGN = "hierarchy was not built on this graph"

# Corruptions of the two-level hierarchy of `two_cliques_bridge --half 4
# --seed 0` (seed 1): partitions [singletons], [[0], [1..4], [5..8]] and
# [[0], [1..8]]; levels all 27 edges and [25]. Each row is the exit code
# and, for a verify report, its `ok` and detail; an exit-2 row is a JSON
# parameter error. A negative id breaks the schema, and one past the
# n-entry vertex table is malformed too.
_CORRUPTED_HIERARCHIES = [
    ("moved-vertex", _partition_1_case([[0], [1, 2, 3], [4, 5, 6, 7, 8]]), 1, _LEVEL_1_WRONG),
    ("merged-components", _partition_1_case([[0], [1, 2, 3, 4, 5, 6, 7, 8]]), 1, _LEVEL_1_WRONG),
    ("dropped-partition", lambda d: {**d, "partitions": d["partitions"][:2]}, 1, _COUNTS),
    ("extra-partition",
     lambda d: {**d, "partitions": d["partitions"] + d["partitions"][-1:]}, 1, _COUNTS),
    ("reversed-partitions", lambda d: {**d, "partitions": d["partitions"][::-1]}, 1,
     "level-0 partition does not match its SCCs"),
    ("negative-id", _partition_1_case([[0], [1, 2, 3, 4], [5, 6, 7, -1]]), 2, None),
    ("id-below-minus-n", _partition_1_case([[0], [1, 2, 3, 4], [5, 6, 7, -10]]), 2, None),
    ("id-equal-n", _partition_1_case([[0], [1, 2, 3, 4], [5, 6, 7, 9]]), 2, None),
    ("id-far-past-n", _partition_1_case([[0], [1, 2, 3, 4], [5, 6, 7, 8, 10**6]]), 2, None),
    ("string-id", _partition_1_case([[0], [1, 2, 3, "4"], [5, 6, 7, 8]]), 2, None),
    ("partitions-int", lambda d: {**d, "partitions": 5}, 2, None),
    ("partitions-object", lambda d: {**d, "partitions": {"a": 1}}, 2, None),
    ("partition-int", lambda d: {**d, "partitions": [d["partitions"][0], 7, []]}, 2, None),
    ("level-missing-edge", _levels_case([_ALL_EDGES[1:], [25]]), 1, _COVER),
    ("level-id-equal-m", _levels_case([_ALL_EDGES, [25, 27]]), 1, _COVER),
    ("empty-levels", _levels_case([]), 2, None),
    ("fifty-extra-levels", _levels_case([_ALL_EDGES, [25]] + [[]] * 50), 1, _COUNTS),
    ("wrong-n", lambda d: {**d, "n": 10}, 1, _FOREIGN),
    ("wrong-m", lambda d: {**d, "m": 28}, 1, _FOREIGN),
    ("wrong-source", lambda d: {**d, "source": 1}, 1, _FOREIGN),
    ("missing-n", _without("n"), 2, None),
    ("missing-partitions", _without("partitions"), 2, None),
    ("missing-level-phis", _without("level_phis"), 2, None),
    ("missing-phi-target", _without("phi_target"), 2, None),
    # Fields of a JSON type the schema does not allow. Each verified ok
    # before the reader checked types, except source-true, which read as
    # another graph's source 1 (exit 1).
    ("n-float", lambda d: {**d, "n": 9.0}, 2, None),
    ("n-string", lambda d: {**d, "n": "9"}, 2, None),
    ("n-fraction", lambda d: {**d, "n": 9.5}, 2, None),
    ("m-float", lambda d: {**d, "m": 27.0}, 2, None),
    ("source-true", lambda d: {**d, "source": True}, 2, None),
    ("level-id-true", _levels_case([[0, True] + _ALL_EDGES[2:], [25]]), 2, None),
    ("partition-id-true", _partition_1_case([[0], [True, 2, 3, 4], [5, 6, 7, 8]]), 2, None),
    ("phi-target-float", lambda d: {**d, "phi_target": 0.0625}, 2, None),
    ("level-phis-float", lambda d: {**d, "level_phis": [0.0625, 0.0625]}, 2, None),
    ("phis-int", lambda d: {**d, "phi_target": 1, "level_phis": [1, 1]}, 2, None),
    # Phi text the schema's pattern rejects, though `Fraction` reads it as
    # the right value. Each verified ok before the pattern was checked.
    ("phi-target-decimal", lambda d: {**d, "phi_target": "0.0625"}, 2, None),
    ("phi-target-exponent", lambda d: {**d, "phi_target": "6.25e-2"}, 2, None),
    ("level-phi-spaces", lambda d: {**d, "level_phis": [" 1/16 ", *d["level_phis"][1:]]}, 2, None),
]


class TestVerifyHierarchyResults:
    @pytest.fixture(scope="class")
    def built(self, tmp_path_factory):
        """The graph file and its real two-level hierarchy result."""
        work = tmp_path_factory.mktemp("hier")
        graph = work / "g.dmc"
        assert main(["gen", "two_cliques_bridge", "--half", "4", "--seed", "0",
                     "--out", str(graph)]) == 0
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert main(["hierarchy", str(graph), "--seed", "1"]) == 0
        data = json.loads(buf.getvalue())
        assert len(data["levels"]) == 2
        return graph, data

    def verify(self, capsys, tmp_path, graph, payload):
        result = tmp_path / "h.json"
        result.write_text(json.dumps(payload))
        code, out = run_cli(capsys, "verify", str(result), str(graph))
        return code, json.loads(out)

    def test_real_result_verifies(self, capsys, tmp_path, built):
        graph, data = built
        code, report = self.verify(capsys, tmp_path, graph, data)
        assert (code, report["ok"]) == (0, True)

    def test_written_hierarchy_reads_back(self, capsys, tmp_path, built):
        graph, _data = built
        g, _diag = parse_graph(graph.read_text())
        hier = build_hierarchy(g, Fraction(1, 8), seed=3)
        data = hierarchy_to_json(hier)
        assert hierarchy_from_json(json.loads(json.dumps(data)), g) == hier
        code, report = self.verify(capsys, tmp_path, graph, data)
        assert (code, report["ok"]) == (0, True)

    @pytest.mark.parametrize(
        "corrupt, code, detail",
        [pytest.param(*row[1:], id=row[0]) for row in _CORRUPTED_HIERARCHIES],
    )
    def test_corrupted_result(self, capsys, tmp_path, built, corrupt, code, detail):
        graph, data = built
        got, payload = self.verify(capsys, tmp_path, graph, corrupt(json.loads(json.dumps(data))))
        assert got == code
        if code == 2:
            validate(payload, "error.schema.json")
            assert payload["error_type"] == "parameter"
        else:
            validate(payload, "verify.schema.json")
            assert payload["ok"] is False
            assert payload["checks"][0]["detail"] == detail


    # Each of these verified ok before the phi fields were checked. A
    # negative phi breaks the schema's pattern, so it is malformed.
    @pytest.mark.parametrize("change, detail", [
        ({"phi_target": "5"}, "phi_target must be in (0, 1], got 5"),
        ({"phi_target": "0"}, "phi_target must be in (0, 1], got 0"),
        ({"level_phis": ["7/3", "1/16"]}, "level 1 phi 7/3 is not phi_target / 2^h"),
        ({"level_phis": ["1/16", "-1"]}, None),
        ({"level_phis": ["1/16", "0"]}, "level 2 phi 0 is not phi_target / 2^h"),
        ({"level_phis": ["1/16", "1/48"]}, "level 2 phi 1/48 is not phi_target / 2^h"),
        ({"level_phis": ["1/16", "1/8"]}, "level 2 phi 1/8 is not phi_target / 2^h"),
        ({"level_phis": ["1/16", f"1/{2**69}"]}, f"level 2 phi 1/{2**69} is not"),
        ({"level_phis": ["1/16"]}, "2 levels with 1 phis"),
        ({"level_phis": ["1/16"] * 3}, "2 levels with 3 phis"),
    ], ids=["target-5", "target-0", "7/3", "negative", "zero", "not-a-halving",
            "above-target", "65-halvings", "too-few", "too-many"])
    def test_impossible_phi_fields_fail(self, capsys, tmp_path, built, change, detail):
        graph, data = built
        code, report = self.verify(capsys, tmp_path, graph, {**data, **change})
        if detail is None:
            assert (code, report["error_type"]) == (2, "parameter")
            validate(report, "error.schema.json")
        else:
            assert (code, report["ok"]) == (1, False)
            validate(report, "verify.schema.json")
            assert report["checks"][0]["detail"].startswith(detail)

    def test_last_halving_verifies(self, capsys, tmp_path, built):
        # `decompose` halves phi at most 64 times.
        graph, data = built
        change = {"level_phis": ["1/16", f"1/{2**68}"]}
        code, report = self.verify(capsys, tmp_path, graph, {**data, **change})
        assert (code, report["ok"]) == (0, True)

    def test_partition_leaving_out_a_vertex_is_wrong(self, capsys, tmp_path, built):
        graph, data = built
        corrupt = _partition_1_case([[0], [1, 2, 3, 4], [5, 6, 7]])
        code, report = self.verify(capsys, tmp_path, graph, corrupt(data))
        assert (code, report["ok"]) == (1, False)
        assert report["checks"][0]["detail"] == _LEVEL_1_WRONG

    def test_float_edge_id_is_malformed(self, capsys, tmp_path, built):
        # 0.0 == 0 passes the cover check but indexes no edge.
        graph, data = built
        change = {"levels": [[0.0] + data["levels"][0][1:], data["levels"][1]]}
        code, payload = self.verify(capsys, tmp_path, graph, {**data, **change})
        assert code == 2
        validate(payload, "error.schema.json")

    # Fraction would build 10**3000000 (seconds of CPU) first; the phi
    # pattern alone marks the field malformed.
    @pytest.mark.parametrize("change", [
        {"phi_target": "1e-3000000"},
        {"phi_target": "1E+1_000_000_0"},
        {"level_phis": ["1/16", "1e-3000000"]},
        {"level_phis": ["1e-10000000", "1/16"]},
    ], ids=["target", "target-positive", "level", "level-first"])
    def test_phi_huge_exponent_rejected_unbuilt(self, capsys, tmp_path, built, change):
        graph, data = built
        started = time.process_time()
        code, payload = self.verify(capsys, tmp_path, graph, {**data, **change})
        assert time.process_time() - started < 0.5
        assert code == 2
        validate(payload, "error.schema.json")
        assert payload["error_type"] == "parameter"
        assert "phi" in payload["message"]


class TestLongCycle:
    # A 1,200-vertex cycle: max-flow paths are far deeper than Python's
    # recursion limit.
    @pytest.fixture(scope="class")
    def cycle_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cycle") / "c.dmc"
        assert main(["gen", "cycle_plus_chords", "--n", "1200", "--chords", "0",
                     "--seed", "1", "--out", str(path)]) == 0
        return path

    def test_hierarchy(self, capsys, cycle_file):
        code, out = run_cli(capsys, "hierarchy", str(cycle_file))
        assert code == 0
        validate(json.loads(out), "hierarchy.schema.json")

    def test_exact_mincut(self, capsys, cycle_file):
        code, out = run_cli(capsys, "mincut", str(cycle_file), "--exact")
        assert code == 0
        payload = json.loads(out)
        validate(payload, "mincut.schema.json")
        assert payload["value"] == 1


class TestOneLineOutput:
    """Every subcommand but `gen` writes each document as one line of
    `json.dumps(document, sort_keys=True)`; `bench` writes one per
    instance."""

    @pytest.fixture(scope="class")
    def files(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("one-line")
        corpus = work / "corpus"
        corpus.mkdir()
        graph, chain = corpus / "g.dmc", corpus / "p.dmc"
        assert main(["gen", "known_packing", "--n", "8", "--k", "2", "--seed", "1",
                     "--out", str(graph)]) == 0
        # A 3-vertex path has λ = 1, so `pack --k 2` on it gives a cut.
        chain.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
        good, wrong = work / "good.json", work / "wrong.json"
        good.write_text(json.dumps({"kind": "mincut", "method": "exact", "value": 1, "cut": [2]}))
        wrong.write_text(json.dumps({"kind": "mincut", "method": "exact", "value": 5, "cut": [2]}))
        return {"G": graph, "P": chain, "GOOD": good, "WRONG": wrong, "CORPUS": corpus}

    @pytest.mark.parametrize(
        ("argv", "code", "lines"),
        [
            (["hierarchy", "G"], 0, 1),
            (["mincut", "G"], 0, 1),
            (["mincut", "G", "--exact"], 0, 1),
            (["mincut", "G", "--verbose"], 0, 1),
            (["mincut", "G", "--ratio"], 0, 1),
            (["pack", "G", "--k", "2"], 0, 1),
            (["pack", "P", "--k", "2"], 0, 1),
            (["verify", "GOOD", "P"], 0, 1),
            (["verify", "WRONG", "P"], 1, 1),
            (["hierarchy", "G", "--phi", "2"], 2, 1),
            (["bench", "CORPUS"], 0, 2),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_one_sorted_line_per_document(self, capsys, files, argv, code, lines):
        got, out = run_cli(capsys, *(str(files.get(arg, arg)) for arg in argv))
        assert got == code
        written = out.splitlines(keepends=True)
        assert len(written) == lines
        for line in written:
            assert line == json.dumps(json.loads(line), sort_keys=True) + "\n"


# Fields for a malformed line: small or negative integers and non-integers.
_FIELDS = st.one_of(st.integers(-1, 9).map(str), st.sampled_from(["x", "2.5", "0x1", ""]))


@st.composite
def graph_texts(draw):
    """Text in or near the graph format: a well-formed graph on at most 7
    vertices, perhaps with one line of arbitrary fields inserted, or any
    text at all."""
    shape = draw(st.sampled_from(["graph", "mutated", "text"]))
    if shape == "text":
        return draw(st.text(max_size=80))
    n = draw(st.integers(1, 7))
    cap = st.integers(1, draw(st.sampled_from([1, 3])))
    arcs = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n), cap), max_size=16))
    lines = ["c contract", f"p dmc {n} {len(arcs)} {draw(st.integers(1, n))}"]
    lines += [f"a {u} {v} {c}" for u, v, c in arcs]
    if shape == "mutated":
        head = draw(st.sampled_from(["a", "p", "p dmc", "c", "q"]))
        line = " ".join([head, *draw(st.lists(_FIELDS, max_size=5))])
        lines.insert(draw(st.integers(0, len(lines))), line)
    return "\n".join(lines) + "\n"


_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-2, 12)
    | st.floats()
    | st.text(max_size=6)
    | st.sampled_from(["arborescences", "cut", "1/16"]),
    lambda kids: st.lists(kids, max_size=4)
    | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)
_RESULT_KEYS = (
    "kind", "k", "result", "trees", "congestion", "cut", "delta", "value", "n", "m",
    "source", "phi_target", "levels", "partitions", "level_phis",
)
_SCHEMAS = {
    "hierarchy": "hierarchy.schema.json",
    "mincut": "mincut.schema.json",
    "pack": "packing.schema.json",
    "verify": "verify.schema.json",
}


def contract_call(argv: list) -> None:
    """One CLI call: JSON that fits the subcommand's schema, or a JSON
    error, and exit code 0, 1 or 2; an exception escaping `main` fails
    the test."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    payload = json.loads(buf.getvalue())
    if payload.get("kind") == "error":
        assert code in (1, 2), (argv, payload)
        validate(payload, "error.schema.json")
    else:
        assert code in (0, 1), (argv, payload)
        validate(payload, _SCHEMAS[argv[0]])


class TestContract:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("contract")

    @pytest.fixture(scope="class")
    def results(self, work):
        """A graph and its real `hierarchy`, `mincut` and `pack` outputs."""
        graph = work / "g.dmc"
        assert main(["gen", "known_packing", "--n", "6", "--k", "2", "--seed", "1",
                     "--out", str(graph)]) == 0
        outs = {}
        for name, argv in (("hierarchy", ["hierarchy", str(graph)]),
                           ("mincut", ["mincut", str(graph)]),
                           ("pack", ["pack", str(graph), "--k", "2"])):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0
            outs[name] = json.loads(buf.getvalue())
        return graph, outs

    @given(text=graph_texts(), k=st.integers(-1, 4))
    @settings(max_examples=60)
    def test_graph_text(self, work, text, k):
        graph = work / "fuzz.dmc"
        graph.write_text(text)
        g = str(graph)
        contract_call(["hierarchy", g])
        contract_call(["mincut", g, "--verbose"])
        contract_call(["mincut", g, "--exact"])
        contract_call(["pack", g, f"--k={k}"])

    @given(data=st.data())
    @settings(max_examples=80)
    def test_verify_result_json(self, work, results, data):
        # Any JSON value, or a real result with some fields replaced.
        graph, outs = results
        real = st.sampled_from(sorted(outs)).map(lambda name: outs[name])
        changes = st.dictionaries(st.sampled_from(_RESULT_KEYS), _JSON, max_size=3)
        payload = data.draw(_JSON | st.builds(lambda base, new: {**base, **new}, real, changes))
        result = work / "result.json"
        result.write_text(json.dumps(payload))
        contract_call(["verify", str(result), str(graph)])

    # Longer than a file name (255 bytes) and than a whole path (4,096
    # bytes) may be on Linux.
    @pytest.mark.parametrize(
        "path", ["x" * 300, "d/" * 2100 + "g"], ids=["long-name", "long-path"]
    )
    def test_overlong_paths(self, results, path):
        graph, _outs = results
        for argv in (
            ["hierarchy", path],
            ["mincut", path],
            ["mincut", path, "--exact"],
            ["pack", path, "--k", "1"],
            ["verify", path, str(graph)],
            ["verify", str(graph), path],
            ["gen", "random_gnm", "--n", "5", "--m", "5", "--out", path],
            ["gen", "random_gnm", "--n", "5", "--m", "5", "--out", str(graph.parent)],
        ):
            contract_call(argv)

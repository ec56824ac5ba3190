"""`verify` checks the certificate a result carries, without a max-flow.

The reference below is the older verdict, which re-solved the exact
rooted min-cut for every result. The certificate checks must agree with
it on every result except two kinds, which they reject: a side that
names a vertex id outside the graph, and a packing cut whose side is the
whole vertex set.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arborpack.cli
import arborpack.oracle
from arborpack.cli import format_graph, main
from arborpack.decomp import build_hierarchy
from arborpack.graphcore import cut_values, normalize
from arborpack.mincut import approx_rooted_mincut
from arborpack.oracle import exact_rooted_mincut, verify_arborescence
from arborpack.packing import pack

from .conftest import digraphs


def reference_ok(g, payload) -> bool:
    """The verdict of the exact oracle on a `pack` or `mincut` result."""
    exact, _ = exact_rooted_mincut(g)
    if payload["kind"] == "mincut":
        side = set(payload["cut"])
        return (
            bool(side)
            and g.source not in side
            and cut_values(g, side).rho == payload["value"]
            and payload["value"] >= exact
        )
    k = payload["k"]
    if payload["result"] == "cut":
        side = set(payload["cut"])
        delta = cut_values(g, side).delta
        return g.source in side and delta == payload["delta"] and delta < k and exact < k
    trees = payload["trees"]
    usage: dict = {}
    for tree in trees:
        for eid in tree:
            usage[eid] = usage.get(eid, 0) + 1
    congestion = max(usage.values(), default=0)
    return (
        len(trees) == k
        and all(verify_arborescence(g, tree)[0] for tree in trees)
        and congestion == payload["congestion"]
        and ((congestion > 0 and k <= exact * congestion) or g.m == 0)
    )


def rejected_by_certificate_only(g, payload) -> bool:
    """The two kinds of result that only the certificate checks reject."""
    side = set(payload.get("cut", ()))
    if any(not 0 <= v < g.n for v in side):
        return True
    return payload.get("result") == "cut" and side >= set(range(g.n))


def run_verify(work, g, payload) -> tuple[int, dict]:
    graph = work / "g.dmc"
    graph.write_text(format_graph(g))
    result = work / "result.json"
    result.write_text(json.dumps(payload))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", str(result), str(graph)])
    return code, json.loads(buf.getvalue())


@st.composite
def results(draw, command):
    """A graph on at most 8 vertices and a real result of `command`
    (`pack`, or the approximate `mincut`) on it, perhaps corrupted."""
    g = draw(digraphs(max_n=8, max_m=20))
    seed = draw(st.integers(0, 3))
    if command == "pack":
        # With the arcs of a tree rooted at the source, every vertex is
        # reachable. k = lambda gives trees, and k = lambda + 1 mostly a cut.
        tree = [(draw(st.integers(0, v - 1)), v, 1) for v in range(1, g.n)]
        g = normalize(g.edges + tuple(tree), g.n, g.source)
        k = exact_rooted_mincut(g)[0] + draw(st.integers(0, 1))
        payload = pack(g, k, seed=seed).to_json_dict()
    else:
        best = approx_rooted_mincut(build_hierarchy(g, seed=seed), seed).best
        payload = {"kind": "mincut", "cut": sorted(best.vertex_set), "value": best.rho}
    if payload["kind"] == "mincut":
        ways = ["value", "source", "id out of range"]
    elif payload["result"] == "cut":
        ways = ["k", "delta", "source", "id out of range", "whole side"]
    else:
        ways = ["k", "congestion", "no trees"]
        ways += ["drop tree edge", "swap tree edge"] * any(payload["trees"])
    way = draw(st.just("none") | st.sampled_from(ways))
    shift = draw(st.sampled_from([-1, 1]))
    if way == "id out of range":
        payload["cut"].append(draw(st.sampled_from([-1, g.n, g.n + 5])))
    elif way == "k" and payload["result"] == "cut":
        payload["k"] = payload["delta"]
    elif way in ("k", "value", "delta", "congestion"):
        payload[way] += shift
    elif way == "no trees":
        payload.update(k=0, trees=[], congestion=0)
    elif way == "source":
        payload["cut"] = sorted(set(payload["cut"]) ^ {g.source})
    elif way == "whole side":
        payload["cut"] = list(range(g.n))
    elif way != "none":
        trees = [list(t) for t in payload["trees"]]
        idx = draw(st.sampled_from([i for i, t in enumerate(trees) if t]))
        pos = draw(st.integers(0, len(trees[idx]) - 1))
        if way == "drop tree edge":
            del trees[idx][pos]
        else:
            trees[idx][pos] = draw(st.integers(0, g.m - 1))
        payload["trees"] = trees
    return g, payload


class TestAgainstOracle:
    @pytest.fixture(scope="class")
    def work(self, tmp_path_factory):
        return tmp_path_factory.mktemp("verify")

    @pytest.mark.parametrize("command", ["pack", "mincut"])
    @given(data=st.data())
    @settings(max_examples=80)
    def test_verdict_matches_oracle(self, work, command, data):
        g, payload = data.draw(results(command))
        code, report = run_verify(work, g, payload)
        assert code == (0 if report["ok"] else 1)
        if rejected_by_certificate_only(g, payload):
            assert not report["ok"], payload
        else:
            assert report["ok"] == reference_ok(g, payload), (payload, report)

    @pytest.mark.parametrize("payload, failing", [
        # Vertex 2 is unreachable, so connectivity is 0 < k, but no sink
        # side lies outside S = V.
        ({"kind": "packing", "k": 1, "result": "cut", "cut": [0, 1, 2], "delta": 0},
         "side_proper"),
        ({"kind": "packing", "k": 2, "result": "cut", "cut": [0, 8], "delta": 1},
         "ids_in_range"),
        ({"kind": "mincut", "cut": [1, 8], "value": 1}, "ids_in_range"),
    ], ids=["packing-cut-is-V", "packing-cut-id-out-of-range", "mincut-id-out-of-range"])
    def test_rejected_by_certificate_only(self, work, payload, failing):
        g = normalize([(0, 1, 1)], 3, 0)
        assert rejected_by_certificate_only(g, payload) and reference_ok(g, payload)
        code, report = run_verify(work, g, payload)
        assert code == 1 and not report["ok"]
        assert [c["name"] for c in report["checks"] if not c["ok"]] == [failing]

    def test_mincut_ids_outside_the_graph_add_nothing(self, work):
        # -1 and n name no vertex: the value is re-evaluated over {1}
        # alone (vertex 2 = n - 1 has an edge in, which -1 must not
        # reach), and only the range check fails.
        g = normalize([(0, 1, 1), (0, 2, 1)], 3, 0)
        code, report = run_verify(work, g, {"kind": "mincut", "cut": [-1, 1, 3], "value": 1})
        assert code == 1 and not report["ok"]
        assert [c["name"] for c in report["checks"] if not c["ok"]] == ["ids_in_range"]

    @pytest.mark.parametrize("edges, ok", [([], True), ([(0, 1, 1)], False)])
    def test_zero_trees_certify_only_an_edgeless_graph(self, work, edges, ok):
        g = normalize(edges, 2, 0)
        payload = {"kind": "packing", "k": 0, "result": "arborescences", "trees": [],
                   "congestion": 0}
        assert reference_ok(g, payload) == ok
        code, report = run_verify(work, g, payload)
        assert (code, report["ok"]) == ((0, True) if ok else (1, False))

    def test_mincut_on_one_vertex_is_a_parameter_error(self, work):
        g = normalize([], 1, 0)
        code, report = run_verify(work, g, {"kind": "mincut", "cut": [1], "value": 0})
        assert code == 2
        assert report["kind"] == "error" and report["error_type"] == "parameter"


def test_verify_runs_no_max_flow(tmp_path, monkeypatch):
    tree_graph = normalize([(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 1, 1)], 3, 0)
    path_graph = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
    trees = pack(tree_graph, 2).to_json_dict()
    cut = pack(path_graph, 2).to_json_dict()
    best = approx_rooted_mincut(build_hierarchy(tree_graph), 0).best
    mincut = {"kind": "mincut", "cut": sorted(best.vertex_set), "value": best.rho}
    assert trees["result"] == "arborescences" and cut["result"] == "cut"

    def forbidden(*_args, **_kwargs):
        raise AssertionError("verify ran a max-flow")

    monkeypatch.setattr(arborpack.oracle, "max_flow", forbidden)
    monkeypatch.setattr(arborpack.cli, "exact_rooted_mincut", forbidden)
    for g, payload in ((tree_graph, trees), (path_graph, cut), (tree_graph, mincut)):
        code, report = run_verify(tmp_path, g, payload)
        assert code == 0 and report["ok"], report

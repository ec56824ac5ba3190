"""The checker rejects each kind of wrong output, and the tracer's
bookkeeping holds. Run from the repository root:

    python3 -m pytest stagebench
"""
import itertools
import random

import pytest

import check
import inputs
import tracing

# lambda = 2: trees {e0, e2, e4} and {e1, e3, e5} are edge-disjoint.
N = 4
EDGES = ((0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 1, 1), (1, 3, 1), (2, 3, 1))
LAM = 2


def brute_lambda(n, edges):
    best = None
    for size in range(1, n):
        for side in itertools.combinations(range(1, n), size):
            side = set(side)
            rho = sum(c for u, v, c in edges if v in side and u not in side)
            best = rho if best is None else min(best, rho)
    return best


def test_rooted_connectivity_matches_enumeration():
    assert check.rooted_connectivity(N, EDGES) == LAM
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(2, 7)
        edges = [(u, v, rng.randint(1, 5)) for u, v in
                 ((rng.randrange(n), rng.randrange(1, n)) for _ in range(rng.randint(0, 20)))
                 if u != v]
        assert check.rooted_connectivity(n, edges) == brute_lambda(n, edges)


def test_generated_lambda_holds_by_construction():
    for inst in inputs.instances("trees", 3)[:2] + inputs.instances("long_cycles", 3)[:1]:
        assert check.rooted_connectivity(inst.n, inst.edges) == inst.k


def hierarchy(levels, partitions):
    return {"kind": "hierarchy", "n": N, "m": len(EDGES), "source": 0,
            "levels": levels, "partitions": partitions}


GOOD_HIERARCHY = hierarchy(
    [[0, 1, 2, 3, 4, 5], [2]],
    [[[0], [1], [2], [3]], [[0], [1], [2], [3]], [[0], [1, 2], [3]]],
)


def test_hierarchy_accepts_a_valid_one():
    assert check.check_hierarchy(N, EDGES, GOOD_HIERARCHY) == []


@pytest.mark.parametrize("bad, needle", [
    (hierarchy([[0, 1, 2, 3, 4]], [[[0], [1], [2], [3]], [[0], [1, 2], [3]]]), "cover"),
    (hierarchy([[0, 1, 2, 3, 4, 5], [0, 1, 2, 3]],
               [[[0], [1], [2], [3]], [[0], [1], [2], [3]], [[0], [1, 2], [3]]]), "half"),
    (hierarchy([[0, 1, 2, 3, 4, 5]], [[[0], [1], [2], [3]], [[0], [1], [2], [3]]]),
     "strong components"),
    (hierarchy([[0, 1, 2, 3, 4, 5], [2]],
               [[[0], [1], [2], [3]], [[0], [1, 3], [2]], [[0], [1, 2], [3]]]), "laminar"),
    (hierarchy([[0, 1, 2, 3, 4, 5]], [[[0], [1], [2], [3]]]), "partitions"),
    (dict(GOOD_HIERARCHY, m=5), "header"),
])
def test_hierarchy_rejects(bad, needle):
    assert any(needle in e for e in check.check_hierarchy(N, EDGES, bad))


def mincut(cut, value, method="approx"):
    return {"kind": "mincut", "method": method, "cut": cut, "value": value}


def test_mincut_accepts_valid_cuts():
    assert check.check_mincut(N, EDGES, LAM, mincut([3], 2), exact=False) == []
    assert check.check_mincut(N, EDGES, LAM, mincut([1, 2, 3], 2, "exact"), exact=True) == []


@pytest.mark.parametrize("out, lam, exact, needle", [
    (mincut([3], 3), LAM, False, "reported"),
    (mincut([0, 3], 0), LAM, False, "source"),
    (mincut([], 0), LAM, False, "empty"),
    (mincut([3], 2), 3, False, "below lambda"),
    (mincut([3], 2, "exact"), 1, True, "!= lambda"),
    (mincut([3], 2, "exact"), LAM, False, "requested method"),
])
def test_mincut_rejects(out, lam, exact, needle):
    assert any(needle in e for e in check.check_mincut(N, EDGES, lam, out, exact))


def trees(tree_list, congestion, k=2):
    return {"kind": "packing", "k": k, "result": "arborescences",
            "trees": tree_list, "congestion": congestion}


def cut(side, delta, k):
    return {"kind": "packing", "k": k, "result": "cut", "cut": side, "delta": delta}


def test_packing_accepts_valid_results():
    assert check.check_packing(N, EDGES, LAM, 2, trees([[0, 2, 4], [1, 3, 5]], 1)) == []
    assert check.check_packing(N, EDGES, LAM, 3, cut([0], 2, 3)) == []


@pytest.mark.parametrize("out, lam, k, needle", [
    (trees([[0, 2, 4]], 1), LAM, 2, "trees for k"),
    (trees([[0, 2, 4], [1, 3]], 1), LAM, 2, "expected 3"),
    (trees([[0, 2, 4], [0, 2, 3]], 2), LAM, 2, "second incoming"),
    (trees([[0, 2, 4], [1, 3, 5]], 2), LAM, 2, "recounts"),
    (trees([[0, 2, 4], [1, 3, 5]], 1), 1, 2, "exceeds lambda"),
    (cut([1, 2, 3], 0, 3), LAM, 3, "lacks the source"),
    (cut([0], 1, 3), LAM, 3, "reported"),
    (cut([0], 2, 2), LAM, 2, "not below"),
    (trees([[0, 2, 4], [1, 3, 5]], 1), LAM, 3, "not a packing result"),
])
def test_packing_rejects(out, lam, k, needle):
    assert any(needle in e for e in check.check_packing(N, EDGES, lam, k, out))


def test_verify_outcome_must_match_the_expectation():
    ok, bad = {"kind": "verify", "ok": True}, {"kind": "verify", "ok": False}
    assert check.check_verify(ok, 0, True) == []
    assert check.check_verify(bad, 1, False) == []
    assert check.check_verify(ok, 0, False)
    assert check.check_verify(bad, 1, True)
    assert check.check_verify(bad, 0, False)


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        ["packing.run_level@packing", 0, 100, -1],
        ["maxflow.max_flow@packing", 10, 40, 0],
        ["packing.component_flow@packing", 50, 90, 0],
        ["maxflow.max_flow@packing", 60, 70, 2],
    ]
    values = {name: m["value"] for name, m in tracer.metrics().items()}
    assert values["packing.self_s"] == pytest.approx((30 + 30) / 1e9)
    assert values["maxflow.self_s"] == pytest.approx(40 / 1e9)
    assert values["packing.maxflow_calls"] == 2
    assert values["packing.run_level_s"] == pytest.approx(100 / 1e9)


def test_missing_target_is_reported_not_zero(monkeypatch):
    inputs.import_program()
    import arborpack.packing

    monkeypatch.delattr(arborpack.packing, "critical_edges")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        metrics = tracer.metrics()
    finally:
        tracer.uninstall()
    assert metrics["packing.critical_edges_calls"]["value"] is None
    assert metrics["packing.critical_edges_calls"]["missing"] == [
        "arborpack.packing.critical_edges"]
    assert metrics["packing.self_s"]["value"] is None
    assert metrics["maxflow.calls"]["value"] == 0


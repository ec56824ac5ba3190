"""Independent checks of the program's outputs.

Nothing here imports the program. Rooted connectivity comes from
`scipy.sparse.csgraph.maximum_flow` and level partitions from
`scipy.sparse.csgraph.connected_components`; every other property is
recounted from the benchmark's own copy of the edges. Each `check_*`
function returns a list of failures, empty when the output holds.

Edges are (tail, head, capacity) triples with 0-based ids; edge ids in
the program's output index this list, which the benchmark's inputs never
normalize (they hold no self-loops and no edges into the source).
"""
from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, maximum_flow


def _matrix(n: int, edges, keep=None) -> csr_matrix:
    """Capacity matrix; parallel edges add up. `keep` filters edge ids."""
    ids = range(len(edges)) if keep is None else sorted(keep)
    rows = [edges[e][0] for e in ids]
    cols = [edges[e][1] for e in ids]
    caps = [edges[e][2] for e in ids]
    return csr_matrix(
        (np.array(caps, dtype=np.int32), (rows, cols)), shape=(n, n)
    )


def rooted_connectivity(n: int, edges, source: int = 0) -> int:
    """lambda: min over t != source of the max-flow value from source to t."""
    graph = _matrix(n, edges)
    return int(min(
        maximum_flow(graph, source, t).flow_value for t in range(n) if t != source
    ))


def _entering(edges, side: set) -> int:
    return sum(c for u, v, c in edges if v in side and u not in side)


def _leaving(edges, side: set) -> int:
    return sum(c for u, v, c in edges if u in side and v not in side)


def _vertex_set(n: int, ids, what: str, errors: list) -> set:
    side = set(ids)
    if len(side) != len(ids):
        errors.append(f"{what} repeats a vertex")
    if any(not 0 <= v < n for v in side):
        errors.append(f"{what} holds a vertex id outside 0..{n - 1}")
    return side


def check_hierarchy(n: int, edges, out: dict, source: int = 0) -> list[str]:
    """Levels cover every edge, capacities halve level to level, each
    level-i partition equals the SCCs of the graph minus levels above i,
    and the partitions are laminar."""
    errors: list[str] = []
    m = len(edges)
    if (out.get("kind"), out.get("n"), out.get("m"), out.get("source")) != (
        "hierarchy", n, m, source,
    ):
        return ["header does not match the input graph"]
    levels = [set(level) for level in out["levels"]]
    partitions = out["partitions"]
    if not levels or len(partitions) != len(levels) + 1:
        return [f"{len(levels)} levels but {len(partitions)} partitions"]
    if any(not 0 <= e < m for level in levels for e in level):
        return ["a level holds an edge id outside the graph"]
    if set().union(*levels) != set(range(m)):
        errors.append("levels do not cover every edge")
    caps = [sum(edges[e][2] for e in level) for level in levels]
    for i in range(len(caps) - 1):
        if 2 * caps[i + 1] > caps[i]:
            errors.append(f"c(E_{i + 2}) = {caps[i + 1]} is above half of {caps[i]}")
    above: set = set()
    expected: list = [None] * len(partitions)
    for i in range(len(levels), -1, -1):
        keep = set(range(m)) - above
        _count, labels = connected_components(
            _matrix(n, edges, keep), directed=True, connection="strong"
        )
        groups: dict = {}
        for v, label in enumerate(labels):
            groups.setdefault(label, set()).add(v)
        expected[i] = {frozenset(g) for g in groups.values()}
        if i > 0:
            above |= levels[i - 1]
    for i, part in enumerate(partitions):
        got = {frozenset(c) for c in part}
        if got != expected[i] or sum(len(c) for c in part) != n:
            errors.append(f"level-{i} partition differs from the strong components")
    for i in range(1, len(partitions)):
        comp_of = {v: idx for idx, c in enumerate(partitions[i]) for v in c}
        if any(len({comp_of.get(v) for v in c}) != 1 for c in partitions[i - 1]):
            errors.append(f"level {i - 1} is not laminar inside level {i}")
    return errors


def check_mincut(n: int, edges, lam: int, out: dict, exact: bool, source: int = 0) -> list[str]:
    """A rooted cut side (sink side): nonempty, without the source, with
    the value the checker recomputes; at least lambda, or equal to it for
    the exact oracle."""
    errors: list[str] = []
    if out.get("kind") != "mincut" or out.get("method") != ("exact" if exact else "approx"):
        return ["not a mincut result of the requested method"]
    side = _vertex_set(n, out["cut"], "cut", errors)
    if not side:
        errors.append("cut is empty")
    if source in side:
        errors.append("cut contains the source")
    value = out["value"]
    recomputed = _entering(edges, side)
    if recomputed != value:
        errors.append(f"cut enters with {recomputed}, reported {value}")
    if exact and value != lam:
        errors.append(f"exact value {value} != lambda {lam}")
    if value < lam:
        errors.append(f"value {value} is below lambda {lam}")
    return errors


def _arborescence_errors(n: int, edges, tree, source: int) -> str | None:
    if any(not 0 <= e < len(edges) for e in tree):
        return "edge id outside the graph"
    if len(set(tree)) != len(tree) or len(tree) != n - 1:
        return f"{len(tree)} edges ({len(set(tree))} distinct), expected {n - 1}"
    parent: dict = {}
    children: dict = {}
    for e in tree:
        u, v, _c = edges[e]
        if v == source or v in parent:
            return f"vertex {v} has a second incoming tree edge"
        parent[v] = u
        children.setdefault(u, []).append(v)
    seen = {source}
    stack = [source]
    while stack:
        for w in children.get(stack.pop(), ()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    if len(seen) != n:
        return f"{n - len(seen)} vertices unreachable from the source"
    return None


def check_packing(n: int, edges, lam: int, k: int, out: dict, source: int = 0) -> list[str]:
    """k spanning arborescences rooted at the source with their recounted
    congestion and k <= lambda * congestion, or a cut side holding the
    source that k edges cannot leave."""
    errors: list[str] = []
    if out.get("kind") != "packing" or out.get("k") != k:
        return [f"not a packing result for k={k}"]
    if out.get("result") == "arborescences":
        trees = out["trees"]
        if len(trees) != k:
            errors.append(f"{len(trees)} trees for k={k}")
        for idx, tree in enumerate(trees):
            why = _arborescence_errors(n, edges, tree, source)
            if why:
                errors.append(f"tree {idx + 1}: {why}")
        usage: dict = {}
        for tree in trees:
            for e in tree:
                usage[e] = usage.get(e, 0) + 1
        congestion = max(usage.values(), default=0)
        if congestion != out["congestion"]:
            errors.append(f"congestion recounts to {congestion}, reported {out['congestion']}")
        if k > lam * congestion:
            errors.append(f"k={k} exceeds lambda {lam} times congestion {congestion}")
    elif out.get("result") == "cut":
        side = _vertex_set(n, out["cut"], "cut", errors)
        if source not in side:
            errors.append("cut side lacks the source")
        delta = _leaving(edges, side)
        if delta != out["delta"]:
            errors.append(f"cut leaves with {delta}, reported {out['delta']}")
        if delta >= k:
            errors.append(f"cut leaves with {delta}, not below k={k}")
    else:
        errors.append(f"unknown packing result {out.get('result')!r}")
    return errors


def check_verify(out: dict, rc: int, expect_ok: bool) -> list[str]:
    """`verify` reports ok with exit 0 on a valid result, and not ok with
    exit 1 on a corrupted one."""
    want_rc = 0 if expect_ok else 1
    if out.get("kind") != "verify" or out.get("ok") is not expect_ok or rc != want_rc:
        return [f"verify gave ok={out.get('ok')} exit {rc}, expected ok={expect_ok} exit {want_rc}"]
    return []

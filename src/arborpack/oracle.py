"""Exact references and verifiers.

These are the ground-truth counterparts of the approximate machinery:
an exact rooted min-cut (one residual sweep plus one witness flow),
exhaustive rooted min-cut and cut-expansion oracles for small graphs,
and structural validators for arborescences and packing results. Every
function is pure and safe to run concurrently.

The exact rooted min-cut is one source-growing sweep,
`maxflow.first_min_sink`, after Hao and Orlin ("A faster algorithm for
finding the minimum cut in a directed graph", J. Algorithms 1994). The
source s has a supply above every cut, and the sinks are the non-source
vertices by ascending in-capacity, then id. The sweep returns lambda and
the first minimising sink t* of the n - 1 separate flows s -> t. The
witness is V minus the vertices s reaches in the residual network of a
maximum s-t* flow: the same set for every maximum flow.

The exhaustive oracles are pure Python. Both build each vertex mask T
(bit v = vertex v) from T' = T - v, v being T's lowest vertex, as
delta[T] = delta[T'] + out(v) - c(v<->T'), rho[T] = rho[T'] + in(v) - c(v<->T'),
with c(v<->T') the capacity between v and T' either way: exact, since
`normalize` drops self-loops, in O(2^n * deg).
"""
from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from typing import Iterable

from .errors import InternalError, ParameterError, ScaleError
from .graphcore import DirectedGraph, EdgeSet, Partition, cut_values, restricted_degrees
from .maxflow import FlowProblem, first_min_sink, max_flow

__all__ = [
    "exact_rooted_mincut",
    "bruteforce_cut_expansion",
    "bruteforce_rooted_mincut",
    "verify_arborescence",
    "verify_packing",
]

_BRUTE_LIMIT = 16


def exact_rooted_mincut(g: DirectedGraph) -> tuple[int, frozenset]:
    """Exact rooted connectivity: min over t != s of max-flow(s, t).

    Returns the value and a witness sink-side set T (so the cut is
    (V - T, T) with the source on the left). Value 0 means some vertex is
    unreachable from the source.

    One sweep over one residual network finds the value and the first
    sink t* that reaches it (see the module docstring); one uncapped
    max-flow s -> t*, whose value must equal the sweep's, gives the
    witness.
    """
    if g.n < 2:
        raise ParameterError("rooted min-cut needs at least one non-source vertex")
    s = g.source
    big = g.total_capacity() + 1
    sinks = sorted((v for v in range(g.n) if v != s), key=lambda v: (g.in_capacity(v), v))
    best, t_star = first_min_sink(FlowProblem(g, {s: big}, {}), sinks, big)
    res = max_flow(FlowProblem(g, {s: big}, {t_star: big}))
    if res.value != best:
        raise InternalError(f"max-flow into sink {t_star} is {res.value}, the sweep found {best}")
    witness = res.min_cut_side
    check = cut_values(g, witness).rho
    if check != best:
        raise InternalError(f"witness cut re-evaluates to {check}, expected {best}")
    return best, witness


def _subset_cuts(g: DirectedGraph) -> tuple[list[int], list[int]]:
    """delta[T] and rho[T] for every vertex mask T, by the recurrence in the
    module docstring; T' lies above v, so v keeps only neighbours above it."""
    if g.n > _BRUTE_LIMIT:
        raise ScaleError(f"enumeration limited to n <= {_BRUTE_LIMIT}, got {g.n}")
    out_deg = [0] * g.n
    in_deg = [0] * g.n
    above: list[dict[int, int]] = [{} for _ in range(g.n)]
    for u, v, c in g.edges:
        out_deg[u] += c
        in_deg[v] += c
        low, high = min(u, v), max(u, v)
        above[low][1 << high] = above[low].get(1 << high, 0) + c
    size = 1 << g.n
    delta = [0] * size
    rho = [0] * size
    for t in range(1, size):
        low = t & -t
        v = low.bit_length() - 1
        rest = t ^ low
        inner = sum([c for bit, c in above[v].items() if rest & bit])
        delta[t] = delta[rest] + out_deg[v] - inner
        rho[t] = rho[rest] + in_deg[v] - inner
    return delta, rho


def bruteforce_rooted_mincut(g: DirectedGraph) -> tuple[int, frozenset]:
    """Min over every nonempty S avoiding the source of rho(S), by full
    enumeration; cross-checks `exact_rooted_mincut` at small n. The witness
    is the first minimum in ascending mask order."""
    rho = _subset_cuts(g)[1]
    if g.n < 2:
        raise ParameterError("rooted min-cut needs at least one non-source vertex")
    best = min((t for t in range(1, 1 << g.n) if not t >> g.source & 1), key=rho.__getitem__)
    return rho[best], frozenset(v for v in range(g.n) if best >> v & 1)


def bruteforce_cut_expansion(
    g: DirectedGraph, partition: Partition, estar: EdgeSet
) -> Fraction | float:
    """Largest phi certified by exhaustive cut enumeration.

    For every component C of the partition and every vertex set T whose
    terminal degree inside C is positive but at most half of C's, the
    certified phi is min over such (C, T) of
    min(delta(T), rho(T)) / deg_estar(C & T). Returns +inf when no
    constraint binds (for instance when the terminal set is empty).

    delta[T] and rho[T] come from adding T's lowest vertex v to T - v (see
    the module docstring). The terminal degree follows the same recurrence,
    term[T] = term[T - v] + deg_estar(v), so deg_estar(C & T) = term[T & C].
    Ratios are compared exactly, by cross-multiplying.
    """
    delta, rho = _subset_cuts(g)
    deg = restricted_degrees(g, estar)
    size = 1 << g.n
    term = [0] * size
    for t in range(1, size):
        low = t & -t
        term[t] = term[t ^ low] + deg[low.bit_length() - 1]
    best_num = best_den = None
    for comp in partition.components:
        comp_mask = sum(1 << v for v in comp)
        total = term[comp_mask]
        # A binding T needs 0 < d <= total / 2, so d < total: a component
        # with one vertex (d is 0 or total) or no terminal degree has none.
        if len(comp) < 2 or not total:
            continue
        for t in range(1, size):
            d = term[t & comp_mask]
            if d and 2 * d <= total:
                a = min(delta[t], rho[t])
                if best_num is None or a * best_den < best_num * d:
                    best_num, best_den = a, d
    if best_num is None:
        return math.inf
    return Fraction(best_num, best_den)


def verify_arborescence(g: DirectedGraph, tree: Iterable[int]) -> tuple[bool, str | None]:
    """Check that `tree` is a spanning tree rooted at the source with every
    edge directed away from it. Returns (ok, first violation)."""
    tree = list(tree)
    s = g.source
    for eid in tree:
        if not 0 <= eid < g.m:
            return False, f"edge id {eid} is not a real edge"
    if len(set(tree)) != len(tree):
        return False, "tree repeats an edge id"
    if len(tree) != g.n - 1:
        return False, f"tree has {len(tree)} edges, expected {g.n - 1}"
    indeg = [0] * g.n
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for eid in tree:
        u, v, _c = g.edges[eid]
        indeg[v] += 1
        adj[u].append(v)
    if indeg[s] != 0:
        return False, "source has an incoming tree edge"
    for v in range(g.n):
        if v != s and indeg[v] != 1:
            return False, f"vertex {v} has tree in-degree {indeg[v]}, expected 1"
    seen = {s}
    stack = [s]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    if len(seen) != g.n:
        missing = min(set(range(g.n)) - seen)
        return False, f"vertex {missing} unreachable inside the tree"
    return True, None


def verify_packing(g: DirectedGraph, result) -> dict:
    """Check the certificate a packing result carries, in O(k*n + m).

    With k = `result.k`, tree results must be k valid arborescences whose
    recomputed congestion c matches. Every arborescence has an edge
    entering any vertex set T without the source, so they certify rooted
    connectivity >= k / c. Cut results must be a proper vertex set S of
    valid ids that holds the source and has delta(S) < k; then V - S is a
    sink side with rho(V - S) = delta(S) < k. Returns a JSON-ready report.
    """
    k = result.k
    checks: list[dict] = []

    def check(name: str, ok: bool, detail: str = "") -> None:
        checks.append({"name": name, "ok": bool(ok), "detail": detail})

    if result.kind == "arborescences":
        trees = result.trees or ()
        check("tree_count", len(trees) == k, f"{len(trees)} trees for k={k}")
        for idx, tree in enumerate(trees):
            ok, why = verify_arborescence(g, tree)
            check(f"arborescence_{idx + 1}", ok, why or "")
        usage = Counter(eid for tree in trees for eid in tree)
        congestion = max(usage.values(), default=0)
        check(
            "congestion_recomputed",
            congestion == result.congestion,
            f"recomputed {congestion}, reported {result.congestion}",
        )
        if g.n >= 2:
            check(
                "certificate",
                congestion > 0 or g.m == 0,
                f"k={k}, congestion={congestion}, certified connectivity >= k/congestion",
            )
    elif result.kind == "cut":
        cut = set(result.cut_vertices or ())
        check("source_inside", g.source in cut, "")
        delta = cut_values(g, cut).delta
        check("delta_reeval", delta == result.cut_delta, f"recomputed delta {delta}")
        check("delta_below_k", delta < k, f"delta {delta} vs k {k}")
        check("ids_in_range", all(0 <= v < g.n for v in cut), f"ids in 0..{g.n - 1}")
        check("side_proper", not cut.issuperset(range(g.n)), "some vertex lies outside")
    else:
        check("kind", False, f"unknown result kind {result.kind!r}")
    return {"kind": "verify", "ok": all(c["ok"] for c in checks), "checks": checks}

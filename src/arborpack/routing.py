"""Integral demand routing with measured congestion.

Demands are multisets of ordered vertex pairs constrained to the
components of a partition; paths are sought in the whole graph. The
router is sequential and congestion-aware: each pair is routed once, in
seeded random order, along a shortest path under the exponential edge
length 2^load (capped at 2^20), and is never moved afterwards.
Congestion is measured and reported exactly; no asymptotic bound is
promised.

Each path is found by a bidirectional Dijkstra: a forward search from
the source over out-edges meets a backward search from the target over
in-edges, so a search settles the vertices near the two ends of a short
path rather than most of the graph. `route` builds each vertex's
out-edges and in-edges once per call, as (edge id, head) and (edge id,
tail) pairs in edge-id order, and keeps a per-edge length list beside
the loads, updated as each path is placed. The search reads only these
lists and, to read its path back, the graph's edge tuple, so an edge
relaxation touches no graph method.
Every path is a shortest one under the current lengths; where shortest
paths tie, which one is taken depends on how the two searches meet.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

from .errors import InternalError, ParameterError, RoutingError
from .graphcore import DirectedGraph, Partition
from .seeds import derive_rng

__all__ = ["Demand", "RoutingOutcome", "route", "respecting_check"]

_LENGTH_EXP_CAP = 20


@dataclass(frozen=True)
class Demand:
    """A multiset of ordered vertex pairs, each inside one component of
    the partition it must respect."""

    pairs: tuple[tuple[int, int], ...]
    partition: Partition

    def __post_init__(self) -> None:
        for src, dst in self.pairs:
            if src == dst:
                raise ParameterError(f"demand pair ({src}, {dst}) has equal endpoints")
            if self.partition.comp_of[src] != self.partition.comp_of[dst]:
                raise ParameterError(
                    f"demand pair ({src}, {dst}) crosses components"
                )


@dataclass(frozen=True, eq=False)
class RoutingOutcome:
    """Routed paths as edge-id tuples (aligned with the demand's pair
    order) and their congestion, the most paths that share one edge."""

    paths_edges: tuple[tuple[int, ...], ...]
    congestion: int


def _shortest_path(
    edges: Sequence[tuple[int, int, int]],
    out_adj: list[list[tuple[int, int]]],
    in_adj: list[list[tuple[int, int]]],
    length: list[int],
    src: int,
    dst: int,
) -> list[int] | None:
    """Bidirectional Dijkstra: the edge ids of a shortest src -> dst path
    for src != dst, or None if dst is unreachable from src.

    `edges[e]` is edge e's (tail, head, capacity); `out_adj[u]` lists
    u's out-edges as (edge id, head) pairs and `in_adj[v]` v's in-edges
    as (edge id, tail) pairs, both in edge-id order; `length[e]` is edge
    e's current length, so one relaxation is a few list reads. One loop
    runs a forward search from src and a backward one from dst: each
    step pops the side with the smaller heap top, forward on a tie,
    skips a stale (distance, vertex) entry and records the edge that
    reached each vertex, which leads back to src through its tail or on
    to dst through its head. Every strict improvement of a tentative
    distance tries the vertex as a meeting point, and the best meeting
    length changes only on strict improvement. The search stops once the
    two heap tops sum to at least that length, or once either heap is
    empty. Every length is at least 1, so the path found is shortest and
    simple; among tied shortest paths, which one is found depends on the
    order of the pops.
    """
    n = len(out_adj)
    # A shortest path has at most n - 1 edges, each at most 2^cap long.
    inf = (n + 1) << _LENGTH_EXP_CAP
    dist_f = [inf] * n
    dist_b = [inf] * n
    # The edge that reached v: v's last edge from src, its first to dst.
    via_f = [-1] * n
    via_b = [-1] * n
    dist_f[src] = 0
    dist_b[dst] = 0
    heap_f = [(0, src)]
    heap_b = [(0, dst)]
    sides = (
        (heap_f, dist_f, dist_b, via_f, out_adj),
        (heap_b, dist_b, dist_f, via_b, in_adj),
    )
    best = inf
    meet = -1
    while heap_f and heap_b:
        top_f = heap_f[0][0]
        top_b = heap_b[0][0]
        if top_f + top_b >= best:
            break
        heap, dist, other, via, adj = sides[top_b < top_f]
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for eid, v in adj[u]:
            nd = d + length[eid]
            if nd < dist[v]:
                dist[v] = nd
                via[v] = eid
                heappush(heap, (nd, v))
                if nd + other[v] < best:
                    best = nd + other[v]
                    meet = v
    if meet < 0:
        return None
    path: list[int] = []
    v = meet
    while v != src:
        path.append(via_f[v])
        v = edges[via_f[v]][0]
    path.reverse()
    v = meet
    while v != dst:
        path.append(via_b[v])
        v = edges[via_b[v]][1]
    return path


def route(g: DirectedGraph, demand: Demand, seed: int = 0) -> RoutingOutcome:
    """Route every demand pair along a simple path in g."""
    npairs = len(demand.pairs)
    edges = g.edges
    loads = [0] * g.m
    length = [1] * g.m  # 2^min(loads[e], cap), kept in step with loads
    out_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    in_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _c) in enumerate(edges):
        out_adj[u].append((eid, v))
        in_adj[v].append((eid, u))
    paths_e: list[tuple[int, ...]] = [()] * npairs

    order = list(range(npairs))
    derive_rng(seed, "route-order").shuffle(order)
    for idx in order:
        src, dst = demand.pairs[idx]
        es = _shortest_path(edges, out_adj, in_adj, length, src, dst)
        if es is None:
            raise RoutingError(f"no path from {src} to {dst} for demand pair {idx}")
        paths_e[idx] = tuple(es)
        for e in es:
            loads[e] += 1
            length[e] = 1 << min(loads[e], _LENGTH_EXP_CAP)

    congestion = max(loads, default=0)

    # Exactness checks: endpoints and simplicity of the vertices read off
    # each path's edges.
    for idx in range(npairs):
        es = paths_e[idx]
        vs = [edges[es[0]][0]] + [edges[e][1] for e in es]
        if len(set(vs)) != len(vs):
            raise InternalError(f"path for pair {idx} repeats a vertex")
        if (vs[0], vs[-1]) != demand.pairs[idx]:
            raise InternalError(f"path endpoints do not match demand pair {idx}")

    return RoutingOutcome(paths_edges=tuple(paths_e), congestion=congestion)


def respecting_check(
    demand: Demand, bound: Sequence[int]
) -> tuple[bool, tuple[int, int, int] | None]:
    """True iff every vertex's demand participation stays within its
    entry of `bound`, a list indexed by vertex id.

    On failure returns (False, (vertex, participation, bound)) for the
    smallest violating vertex id.
    """
    participation = Counter(v for pair in demand.pairs for v in pair)
    for v in sorted(participation):
        if participation[v] > bound[v]:
            return False, (v, participation[v], bound[v])
    return True, None

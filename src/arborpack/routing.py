"""Integral demand routing with measured congestion.

Demands are multisets of ordered vertex pairs constrained to the
components of a partition; paths are sought in the whole graph. The
router is sequential and congestion-aware: pairs are routed in seeded
random order along shortest paths under the exponential edge length
2^load (capped at 2^20), then up to three rerouting sweeps move the paths
that sit on the most congested edges. Congestion is measured and reported
exactly; no asymptotic bound is promised.

Each path is found by a bidirectional Dijkstra: a forward search from
the source over out-edges meets a backward search from the target over
in-edges, so a search settles the vertices near the two ends of a short
path rather than most of the graph. `route` builds each vertex's
out-edges and in-edges once per call, as (edge id, head) and (edge id,
tail) pairs in edge-id order, and keeps a per-edge length list beside
the loads, updated whenever a path is placed or removed. The search
reads only these lists, so an edge relaxation touches no graph method.
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
_REROUTE_SWEEPS = 3


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
    out_adj: list[list[tuple[int, int]]],
    in_adj: list[list[tuple[int, int]]],
    length: list[int],
    src: int,
    dst: int,
) -> list[int] | None:
    """Bidirectional Dijkstra: the edge ids of a shortest src -> dst path
    for src != dst, or None if dst is unreachable from src.

    `out_adj[u]` lists u's out-edges as (edge id, head) pairs and
    `in_adj[v]` v's in-edges as (edge id, tail) pairs, both in edge-id
    order; `length[e]` is edge e's current length, so one relaxation is
    a few list reads. A forward search from src and a backward one from
    dst each keep (distance, vertex) heap keys and skip stale entries;
    each step pops the side with the smaller heap top, forward on a tie.
    Every strict improvement of a tentative distance tries the vertex as
    a meeting point, and the best meeting length changes only on strict
    improvement. The search stops once the two heap tops sum to at least
    that length, or once either heap is empty. Every length is at least
    1, so the path found is shortest and simple; among tied shortest
    paths, which one is found depends on the order of the pops.
    """
    n = len(out_adj)
    # A shortest path has at most n - 1 edges, each at most 2^cap long.
    inf = (n + 1) << _LENGTH_EXP_CAP
    dist_f = [inf] * n
    dist_b = [inf] * n
    # v's forward parent: the edge that reached it from src, and its
    # tail; its backward child: the edge that leaves it towards dst, and
    # its head.
    edge_f = [-1] * n
    prev_f = [-1] * n
    edge_b = [-1] * n
    next_b = [-1] * n
    dist_f[src] = 0
    dist_b[dst] = 0
    heap_f = [(0, src)]
    heap_b = [(0, dst)]
    best = inf
    meet = -1
    while heap_f and heap_b:
        if heap_f[0][0] + heap_b[0][0] >= best:
            break
        if heap_f[0][0] <= heap_b[0][0]:
            d, u = heappop(heap_f)
            if d > dist_f[u]:
                continue
            for eid, v in out_adj[u]:
                nd = d + length[eid]
                if nd < dist_f[v]:
                    dist_f[v] = nd
                    edge_f[v] = eid
                    prev_f[v] = u
                    heappush(heap_f, (nd, v))
                    if nd + dist_b[v] < best:
                        best = nd + dist_b[v]
                        meet = v
        else:
            d, u = heappop(heap_b)
            if d > dist_b[u]:
                continue
            for eid, v in in_adj[u]:
                nd = d + length[eid]
                if nd < dist_b[v]:
                    dist_b[v] = nd
                    edge_b[v] = eid
                    next_b[v] = u
                    heappush(heap_b, (nd, v))
                    if nd + dist_f[v] < best:
                        best = nd + dist_f[v]
                        meet = v
    if meet < 0:
        return None
    path: list[int] = []
    v = meet
    while v != src:
        path.append(edge_f[v])
        v = prev_f[v]
    path.reverse()
    v = meet
    while v != dst:
        path.append(edge_b[v])
        v = next_b[v]
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
    paths_e: list[tuple[int, ...] | None] = [None] * npairs

    def place(idx: int) -> None:
        src, dst = demand.pairs[idx]
        es = _shortest_path(out_adj, in_adj, length, src, dst)
        if es is None:
            raise RoutingError(f"no path from {src} to {dst} for demand pair {idx}")
        paths_e[idx] = tuple(es)
        for e in es:
            loads[e] += 1
            length[e] = 1 << min(loads[e], _LENGTH_EXP_CAP)

    order = list(range(npairs))
    derive_rng(seed, "route-order").shuffle(order)
    for idx in order:
        place(idx)

    for _sweep in range(_REROUTE_SWEEPS):
        congestion = max(loads, default=0)
        if congestion <= 1:
            break
        hot = {e for e, load in enumerate(loads) if load == congestion}
        victims = [i for i in range(npairs) if hot.intersection(paths_e[i])]
        for idx in victims:
            for e in paths_e[idx]:
                loads[e] -= 1
                length[e] = 1 << min(loads[e], _LENGTH_EXP_CAP)
            place(idx)

    congestion = max(loads, default=0)

    # Exactness checks: endpoints and simplicity of the vertices read off
    # each path's edges, and load accounting.
    recount = [0] * g.m
    for idx in range(npairs):
        es = paths_e[idx]
        vs = [edges[es[0]][0]] + [edges[e][1] for e in es]
        if len(set(vs)) != len(vs):
            raise InternalError(f"path for pair {idx} repeats a vertex")
        if (vs[0], vs[-1]) != demand.pairs[idx]:
            raise InternalError(f"path endpoints do not match demand pair {idx}")
        for e in es:
            recount[e] += 1
    if recount != loads:
        raise InternalError("per-edge loads do not match the emitted paths")

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

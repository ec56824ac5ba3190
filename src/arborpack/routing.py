"""Integral demand routing with measured congestion.

Demands are multisets of ordered vertex pairs constrained to the
components of a partition; paths are sought in the whole graph. The
router is sequential and congestion-aware: pairs are routed in seeded
random order along shortest paths under the exponential edge length
2^load (capped at 2^20), then up to three rerouting sweeps move the paths
that sit on the most congested edges. Congestion is measured and reported
exactly; no asymptotic bound is promised.

`route` builds each vertex's out-edges once per call, as (edge id, head)
pairs in edge-id order, and keeps a per-edge length list beside the
loads, updated whenever a path is placed or removed. Dijkstra reads only
these two lists, so an edge relaxation touches no graph method.
"""
from __future__ import annotations

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
    adj: list[list[tuple[int, int]]], length: list[int], src: int, dst: int
) -> list[int] | None:
    """Deterministic Dijkstra from src that stops once dst is settled.

    `adj[u]` lists u's out-edges as (edge id, head) pairs in edge-id
    order and `length[e]` is edge e's current length, so one relaxation
    is a few list reads. Heap keys are (distance, vertex) and a vertex's
    distance changes only on strict improvement. Every length is at least
    1, so an entry whose key exceeds its vertex's distance is stale and a
    settled vertex is never improved. Returns the parent-edge list
    (`parent[v]` is the edge that reached v) or None if dst is unreachable.
    """
    n = len(adj)
    # A shortest path has at most n - 1 edges, each at most 2^cap long.
    dist = [(n + 1) << _LENGTH_EXP_CAP] * n
    parent = [-1] * n
    dist[src] = 0
    heap = [(0, src)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        if u == dst:
            return parent
        for eid, v in adj[u]:
            nd = d + length[eid]
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = eid
                heappush(heap, (nd, v))
    return None


def route(g: DirectedGraph, demand: Demand, seed: int = 0) -> RoutingOutcome:
    """Route every demand pair along a simple path in g."""
    npairs = len(demand.pairs)
    edges = g.edges
    loads = [0] * g.m
    length = [1] * g.m  # 2^min(loads[e], cap), kept in step with loads
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _c) in enumerate(edges):
        adj[u].append((eid, v))
    paths_e: list[tuple[int, ...] | None] = [None] * npairs

    def place(idx: int) -> None:
        src, dst = demand.pairs[idx]
        parent = _shortest_path(adj, length, src, dst)
        if parent is None:
            raise RoutingError(f"no path from {src} to {dst} for demand pair {idx}")
        es: list[int] = []
        v = dst
        while v != src:
            eid = parent[v]
            es.append(eid)
            v = edges[eid][0]
        es.reverse()
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
        if not victims:
            break
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
    participation: dict[int, int] = {}
    for src, dst in demand.pairs:
        participation[src] = participation.get(src, 0) + 1
        participation[dst] = participation.get(dst, 0) + 1
    for v in sorted(participation):
        if participation[v] > bound[v]:
            return False, (v, participation[v], bound[v])
    return True, None

"""Integral demand routing with measured congestion.

Demands are multisets of ordered vertex pairs constrained to the
components of a partition; paths are sought in the whole graph. The
router is sequential and congestion-aware: pairs are routed in seeded
random order along shortest paths under the exponential edge length
2^load (capped at 2^20), then up to three rerouting sweeps move the paths
that sit on the most congested edges. Congestion is measured and reported
exactly; no asymptotic bound is promised.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
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
    """Routed paths (aligned with the demand's pair order) and their
    congestion, the most paths that share one edge."""

    paths_vertices: tuple[tuple[int, ...], ...]
    paths_edges: tuple[tuple[int, ...], ...]
    congestion: int


def _shortest_path(
    g: DirectedGraph, src: int, dst: int, loads: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Deterministic Dijkstra under length 2^min(load, cap)."""
    inf = float("inf")
    dist: list[float] = [inf] * g.n
    parent: list[int] = [-1] * g.n
    dist[src] = 0
    heap: list[tuple[int, int]] = [(0, src)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dst:
            break
        for eid in g.out_edges(u):
            v = g.head(eid)
            if done[v]:
                continue
            nd = d + (1 << min(loads[eid], _LENGTH_EXP_CAP))
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = eid
                heapq.heappush(heap, (nd, v))
    if dist[dst] == inf:
        return None
    edges: list[int] = []
    cur = dst
    while cur != src:
        eid = parent[cur]
        edges.append(eid)
        cur = g.tail(eid)
    edges.reverse()
    vertices = [src] + [g.head(e) for e in edges]
    return tuple(vertices), tuple(edges)


def route(g: DirectedGraph, demand: Demand, seed: int = 0) -> RoutingOutcome:
    """Route every demand pair along a simple path in g."""
    npairs = len(demand.pairs)
    loads = [0] * g.m
    paths_v: list[tuple[int, ...] | None] = [None] * npairs
    paths_e: list[tuple[int, ...] | None] = [None] * npairs

    def place(idx: int) -> None:
        src, dst = demand.pairs[idx]
        found = _shortest_path(g, src, dst, loads)
        if found is None:
            raise RoutingError(f"no path from {src} to {dst} for demand pair {idx}")
        vs, es = found
        paths_v[idx] = vs
        paths_e[idx] = es
        for e in es:
            loads[e] += 1

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
            place(idx)

    congestion = max(loads, default=0)

    # Exactness checks: endpoints, simplicity, and load accounting.
    recount = [0] * g.m
    for idx in range(npairs):
        vs, es = paths_v[idx], paths_e[idx]
        if len(set(vs)) != len(vs):
            raise InternalError(f"path for pair {idx} repeats a vertex")
        if (vs[0], vs[-1]) != demand.pairs[idx]:
            raise InternalError(f"path endpoints do not match demand pair {idx}")
        for e in es:
            recount[e] += 1
    if recount != loads:
        raise InternalError("per-edge loads do not match the emitted paths")

    return RoutingOutcome(
        paths_vertices=tuple(paths_v),
        paths_edges=tuple(paths_e),
        congestion=congestion,
    )


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

"""Integral demand routing with measured congestion.

Demands are multisets of ordered vertex pairs constrained to the
components of a partition; paths are sought in the whole graph. Each
pair is routed once, in the demand's order, along a path with the
fewest edges, found by a bidirectional breadth-first search over
out-edge and in-edge lists that `route` builds once per call. The
search reads no loads, so a pair's path does not depend on the other
pairs, and where fewest-edge paths tie, which one is taken depends on
how the two sides meet. Congestion is measured and reported exactly;
no bound is promised, and the exchange pass in `packing`, not the
router, spreads the trees' load.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from typing import Sequence

from .errors import InternalError, ParameterError, RoutingError
from .graphcore import DirectedGraph, Partition

__all__ = ["Demand", "RoutingOutcome", "route", "respecting_check"]


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
    src: int,
    dst: int,
) -> list[int] | None:
    """Bidirectional BFS: the edge ids of a fewest-edge src -> dst path
    for src != dst, or None if dst is unreachable from src.

    `edges[e]` is edge e's (tail, head, capacity); `out_adj[u]` lists
    u's out-edges as (edge id, head) pairs and `in_adj[v]` v's in-edges
    as (edge id, tail) pairs, both in edge-id order. A forward side
    grows from src over out-edges and a backward side from dst over
    in-edges; each step expands one whole level of the side with the
    smaller frontier, forward on a tie. `via[side][v]` is the edge that
    reached v, which leads back to src through its tail or on to dst
    through its head. The path runs through the first vertex that one
    side reaches after the other side has. It has the fewest edges:
    until the sides meet, every vertex one side has reached is farther
    from the other end than the other side's frontier, so a path through
    a vertex of the level being expanded is as short as any. It is
    simple, since a vertex on both halves would have met the sides
    earlier. The search stops without a path once a frontier is empty.
    """
    n = len(out_adj)
    # -1: not reached yet; each side's root holds -2, which no edge has.
    via = ([-1] * n, [-1] * n)
    via[0][src] = -2
    via[1][dst] = -2
    frontiers = [[src], [dst]]
    meet = -1
    while meet < 0 and frontiers[0] and frontiers[1]:
        side = len(frontiers[1]) < len(frontiers[0])
        mine, other = via[side], via[not side]
        adj = in_adj if side else out_adj
        nxt = []
        for eid, v in chain.from_iterable(adj[u] for u in frontiers[side]):
            if mine[v] == -1:
                mine[v] = eid
                if other[v] != -1:
                    meet = v
                    break
                nxt.append(v)
        frontiers[side] = nxt
    if meet < 0:
        return None
    via_f, via_b = via
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


def route(g: DirectedGraph, demand: Demand) -> RoutingOutcome:
    """Route every demand pair, once each and in order, along a simple
    fewest-edge path in g; check each path's endpoints and simplicity."""
    edges = g.edges
    out_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    in_adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v, _c) in enumerate(edges):
        out_adj[u].append((eid, v))
        in_adj[v].append((eid, u))
    loads = [0] * g.m
    paths_e: list[tuple[int, ...]] = []
    for idx, (src, dst) in enumerate(demand.pairs):
        es = _shortest_path(edges, out_adj, in_adj, src, dst)
        if es is None:
            raise RoutingError(f"no path from {src} to {dst} for demand pair {idx}")
        # Exactness checks: endpoints and simplicity of the vertices read
        # off the path's edges.
        vs = [edges[es[0]][0]] + [edges[e][1] for e in es]
        if len(set(vs)) != len(vs):
            raise InternalError(f"path for pair {idx} repeats a vertex")
        if (vs[0], vs[-1]) != (src, dst):
            raise InternalError(f"path endpoints do not match demand pair {idx}")
        for e in es:
            loads[e] += 1
        paths_e.append(tuple(es))
    return RoutingOutcome(paths_edges=tuple(paths_e), congestion=max(loads, default=0))


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

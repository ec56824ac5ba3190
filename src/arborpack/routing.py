"""Integral demand routing inside a partition, with measured congestion.

A demand is a sequence of pairs (root, terminals) and a partition. Each
pair is routed once, in the demand's order, along one search tree: a
stack search from the root over the out-edges whose two ends lie in the
root's component, which marks a vertex when it pushes it and pushes
out-neighbours by descending edge id, and stops once every terminal is
popped. The pair's route is the union of the tree paths from the root
to its terminals, so it stays inside the root's component, and a
terminal in another component is never reached. The search reads no
loads, so a pair's tree does not depend on the other pairs. Congestion,
the most trees that share one edge, is measured and reported exactly; no
bound is promised, and the exchange pass in `packing`, not the router,
spreads the trees' load.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import RoutingError
from .graphcore import DirectedGraph, Partition

__all__ = ["Demand", "RoutingOutcome", "route"]


@dataclass(frozen=True)
class Demand:
    """Pairs (root, terminals) and the partition whose components their
    trees must stay inside; a root may be one of its own terminals."""

    pairs: tuple[tuple[int, tuple[int, ...]], ...]
    partition: Partition


@dataclass(frozen=True, eq=False)
class RoutingOutcome:
    """Routed trees as ascending edge-id tuples (aligned with the
    demand's pair order) and their congestion, the most trees that share
    one edge."""

    paths_edges: tuple[tuple[int, ...], ...]
    congestion: int


def _search_tree(
    g: DirectedGraph, comp_of: tuple[int, ...], root: int, terminals: tuple[int, ...]
) -> dict[int, int]:
    """Map each vertex that the stack search from `root` pushes before it
    pops its last terminal to the edge that pushed it (the root to -1).
    The search follows the out-edges whose head lies in the root's
    component."""
    edges = g.edges
    pending = set(terminals)
    via = {root: -1}
    stack = [root]
    while stack:
        u = stack.pop()
        pending.discard(u)
        if not pending:
            return via
        for e in reversed(g.out_edges(u)):
            w = edges[e][1]
            if w not in via and comp_of[w] == comp_of[root]:
                via[w] = e
                stack.append(w)
    raise RoutingError(f"no path from {root} to {min(pending)} in its component")


def route(g: DirectedGraph, demand: Demand) -> RoutingOutcome:
    """Route every pair, once each and in order, along the tree paths of
    one stack search from its root inside its component of
    `demand.partition`. A terminal that the search does not reach, one
    in another component included, raises `RoutingError`."""
    comp_of = demand.partition.comp_of
    loads = [0] * g.m
    trees: list[tuple[int, ...]] = []
    for root, terminals in demand.pairs:
        via = _search_tree(g, comp_of, root, terminals)
        tree: set[int] = set()
        for v in terminals:
            # Stop at the root or at an edge already taken, whose path up
            # to the root is in the tree.
            while (e := via[v]) >= 0 and e not in tree:
                tree.add(e)
                v = g.edges[e][0]
        for e in tree:
            loads[e] += 1
        trees.append(tuple(sorted(tree)))
    return RoutingOutcome(paths_edges=tuple(trees), congestion=max(loads, default=0))

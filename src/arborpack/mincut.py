"""Sampling-based approximate rooted min-cut over an expander hierarchy.

The search walks every level of the hierarchy. Level 0 scans each
non-source vertex directly (its in-capacity is the cut value of the
singleton). At level i >= 1, one pass over the level-i edges groups
those with both endpoints in one component, and each component that
holds such edges is probed, in component order, with capacity-weighted
samples of them: a sampled endpoint v yields the exact minimum over
sets T with v in T inside the component of the capacity entering T,
computed by contracting everything outside the component into a
virtual super-source and running one exact max-flow. The global minimum
candidate wins.

The RNG is split per (level, component), so the outcome is independent
of any processing order.
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .decomp import Hierarchy
from .errors import EmptySampleError, InternalError, ParameterError
from .graphcore import DirectedGraph, cut_values, edges_within
from .maxflow import FlowProblem, max_flow
from .seeds import derive_rng

__all__ = [
    "CutCandidate",
    "MincutReport",
    "sample_endpoints",
    "mincut_into_component",
    "approx_rooted_mincut",
]

# Each probed component draws ceil(4 log2 n) endpoint samples.
_TRIALS_PER_LOG2_N = 4


@dataclass(frozen=True)
class CutCandidate:
    """A candidate rooted cut: the sink side C_v, its incoming capacity,
    and the level and vertex of the sample that produced it."""

    vertex_set: frozenset
    rho: int
    level: int
    sampled_vertex: int


@dataclass(frozen=True)
class MincutReport:
    best: CutCandidate
    candidates: tuple[CutCandidate, ...]


def sample_endpoints(
    g: DirectedGraph, edge_ids: Sequence[int], trials: int, rng: random.Random
) -> list[int]:
    """`trials` endpoint samples: an edge drawn with probability
    proportional to its capacity, then a fair-coin endpoint."""
    eids = sorted(edge_ids)
    if not eids:
        raise EmptySampleError("cannot sample endpoints from an empty edge set")
    if trials < 1:
        raise ParameterError(f"trials must be positive, got {trials}")
    cumulative: list[int] = []
    total = 0
    for e in eids:
        total += g.capacity(e)
        cumulative.append(total)
    out: list[int] = []
    for _ in range(trials):
        x = rng.randrange(total)
        e = eids[bisect.bisect_right(cumulative, x)]
        u, v, _c = g.edges[e]
        out.append(u if rng.getrandbits(1) == 0 else v)
    return out


def mincut_into_component(
    g: DirectedGraph, comp: frozenset, v: int, level: int = -1
) -> CutCandidate:
    """Exact min over {T : v in T subseteq comp} of the capacity entering T.

    Everything outside the component is contracted into the flow source:
    each edge entering the component becomes supply at its head, edges
    leaving the component are dropped, and v is the sink.
    """
    if v not in comp:
        raise ParameterError(f"sample vertex {v} is not in the component")
    if g.source in comp:
        raise ParameterError("component must not contain the source")
    supplies: dict[int, int] = {}
    for eid, (u, w, c) in enumerate(g.edges):
        if w in comp and u not in comp:
            supplies[w] = supplies.get(w, 0) + c
    intra = edges_within(g, comp)
    big = sum(supplies.values()) + g.edge_capacity(intra) + 1
    res = max_flow(FlowProblem(g, supplies, {v: big}, edge_filter=intra))
    side = frozenset(res.min_cut_side & comp)
    if v not in side:
        raise InternalError("sink vertex escaped its own min-cut side")
    rho = cut_values(g, side).rho
    if rho != res.value:
        raise InternalError(f"cut re-evaluates to {rho}, flow value was {res.value}")
    return CutCandidate(side, rho, level, v)


def approx_rooted_mincut(
    g: DirectedGraph, hierarchy: Hierarchy, seed: int = 0
) -> MincutReport:
    """Approximate rooted min-cut via the hierarchy; returns the best
    candidate plus every candidate examined."""
    if hierarchy.n != g.n or hierarchy.m != g.m or hierarchy.source != g.source:
        raise ParameterError("hierarchy does not match this graph")
    if g.n < 2:
        raise ParameterError("rooted min-cut needs at least one non-source vertex")
    s = g.source
    trials = max(1, math.ceil(_TRIALS_PER_LOG2_N * math.log2(max(g.n, 2))))
    candidates: list[CutCandidate] = []
    best: CutCandidate | None = None

    def consider(cand: CutCandidate) -> None:
        nonlocal best
        if s in cand.vertex_set or not cand.vertex_set:
            raise InternalError("candidate cut is not a valid rooted cut side")
        candidates.append(cand)
        if best is None or cand.rho < best.rho:
            best = cand

    for v in range(g.n):
        if v == s:
            continue
        consider(CutCandidate(frozenset({v}), g.in_capacity(v), 0, v))
    for i in range(1, hierarchy.L + 1):
        part = hierarchy.partition(i)
        comp_of = part.comp_of
        inside: dict[int, list[int]] = {}
        for e in hierarchy.level_edges(i):
            comp_id = comp_of[g.tail(e)]
            if comp_id == comp_of[g.head(e)]:
                inside.setdefault(comp_id, []).append(e)
        for comp_id in sorted(inside):
            comp = part.components[comp_id]
            rng = derive_rng(seed, "mincut", i, comp_id)
            computed: dict[int, CutCandidate] = {}
            for v in sample_endpoints(g, inside[comp_id], trials, rng):
                if v not in computed:
                    computed[v] = mincut_into_component(g, comp, v, i)
                consider(computed[v])
    assert best is not None
    return MincutReport(best, tuple(candidates))

"""Sampling-based approximate rooted min-cut over an expander hierarchy.

`approx_rooted_mincut` takes only the hierarchy and searches the graph
it was built on, walking every level. Level 0 scans each non-source
vertex directly (its in-capacity is the cut value of the singleton). At
level i >= 1, one pass over the level-i edges groups those with both
endpoints in one component, and each component that holds such edges
is probed, in component order, with capacity-weighted samples of them.
A sampled endpoint v stands for the exact minimum over sets T with v in
T inside the component of the capacity entering T: the max-flow into v
with everything outside the component contracted into a virtual
super-source. One sweep (`maxflow.first_min_sink`) over one residual
network of the component finds the least of these values over the
samples in draw order and the first sample that attains it, and only
when that value is below the best cut so far does that one sample get
an exact max-flow, whose residual graph gives its cut side
(`mincut_into_component`). A sample whose value ties the best cut
would not replace it, so the outcome is that of probing every sample
in turn and keeping the first strictly smaller cut. The global minimum
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
from .graphcore import DirectedGraph, EdgeSet, cut_values, edges_within
from .maxflow import FlowProblem, first_min_sink, max_flow
from .seeds import derive_rng

__all__ = [
    "CutCandidate",
    "MincutReport",
    "sample_endpoints",
    "probe_inputs",
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
    """The best cut and every candidate made: one singleton per
    non-source vertex, then at most one probe cut per component, in
    level and component order."""

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


def probe_inputs(g: DirectedGraph, comp: frozenset) -> tuple[dict[int, int], EdgeSet, int]:
    """What every probe of `comp` shares: the capacity entering each
    vertex from outside the component (its supply), the edges inside the
    component, and a sink capacity above any cut."""
    supplies: dict[int, int] = {}
    edges = g.edges
    for w in comp:
        for eid in g.in_edges(w):
            u, _w, c = edges[eid]
            if u not in comp:
                supplies[w] = supplies.get(w, 0) + c
    intra = edges_within(g, comp)
    return supplies, intra, sum(supplies.values()) + g.edge_capacity(intra) + 1


def mincut_into_component(
    g: DirectedGraph, comp: frozenset, v: int, inputs: tuple, level: int = -1
) -> CutCandidate:
    """Exact min over {T : v in T subseteq comp} of the capacity entering T.

    Everything outside the component is contracted into the flow source:
    each edge entering the component becomes supply at its head, edges
    leaving the component are dropped, and v is the sink. `inputs` is
    `probe_inputs(g, comp)`.
    """
    if v not in comp:
        raise ParameterError(f"sample vertex {v} is not in the component")
    if g.source in comp:
        raise ParameterError("component must not contain the source")
    supplies, intra, big = inputs
    res = max_flow(FlowProblem(g, supplies, {v: big}, edge_filter=intra))
    side = frozenset(res.min_cut_side & comp)
    if v not in side:
        raise InternalError("sink vertex escaped its own min-cut side")
    rho = cut_values(g, side).rho
    if rho != res.value:
        raise InternalError(f"cut re-evaluates to {rho}, flow value was {res.value}")
    return CutCandidate(side, rho, level, v)


def approx_rooted_mincut(hierarchy: Hierarchy, seed: int = 0) -> MincutReport:
    """Approximate rooted min-cut of the hierarchy's graph; returns the
    best candidate plus every candidate made: the level-0 singletons
    and, for each probed component whose samples go below the best cut
    so far, the cut of the first sample that attains its least value."""
    g = hierarchy.graph
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
            inputs = probe_inputs(g, comp)
            samples = sample_endpoints(g, inside[comp_id], trials, rng)
            problem = FlowProblem(g, inputs[0], {}, edge_filter=inputs[1])
            value, v = first_min_sink(problem, samples, best.rho)
            if v >= 0:
                cand = mincut_into_component(g, comp, v, inputs, i)
                if cand.rho != value:
                    raise InternalError(f"probe of {v} cuts {cand.rho}, the sweep found {value}")
                consider(cand)
    assert best is not None
    return MincutReport(best, tuple(candidates))

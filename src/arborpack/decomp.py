"""Terminal-set expander decomposition and the level hierarchy built on it.

`decompose` is a desk-scale certify-or-cut scheme: for every strongly
connected component of the working graph it tries to certify that the
terminal-degree demands route with congestion 1/phi, by pushing seeded
random split-flow instances through an exact max-flow. The demands sit
on the component's vertices, but the trial flows are not confined to
it: `_trial_flow` passes no edge filter, so a flow may route through
edges outside the component, and nothing yet confines it there.
When a trial flow falls short, the residual min-cut exposes a
violating vertex set; its smaller-direction crossing edges join the cut
set B and both sides are re-examined. The halving guarantee c(B) <= c(terminals)/2 is enforced,
not hoped for: if B grows past the budget, phi is halved and the
offending component re-runs (routing always succeeds once the congestion
allowance exceeds the total terminal degree, so this terminates). A
violated component is split with one SCC pass over its own vertices.

The trial flows of one `decompose` call run on a contracted copy of the
graph, built once per call: every maximal path through terminal-free
vertices with one edge in and one out becomes a single edge of the
path's least capacity. Supplies and sinks sit only on terminal
vertices, so each trial's flow value is the one the full graph gives;
a trial that falls short is run again on the full graph, whose residual
graph yields the violating side. The output is therefore exactly that
of running every trial on the full graph. The BFS balls that pick two
of every three demands jump over the same paths, one step each, and
gain the kept vertices the vertex-by-vertex search would, in its
order. So on a long ring with a few terminals each trial, ball and
flow, walks a handful of edges instead of the ring.

`build_hierarchy` iterates decompose, feeding each round's cut edges back
in as the next terminal set until no cut is needed; every round starts
from the graph's SCCs, computed once per build. The `Hierarchy` it
builds keeps the graph, checks the levels and then derives, with one
SCC pass each, the partition of the graph minus all higher-level edges
for every level above 0 (level 0 is all singletons); the `cli` module
writes it as JSON and reads it back.

Flow-based certification is a heuristic stand-in for the real expansion
property; the exhaustive cut-expansion check in `oracle` is the ground
truth at small n.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import HalvingViolation, InternalError, ParameterError
from .graphcore import (
    DirectedGraph,
    EdgeSet,
    Partition,
    induced_sccs,
    restricted_degrees,
    scc,
)
from .maxflow import FlowProblem, max_flow
from .seeds import derive_rng, derive_seed

__all__ = ["DecompResult", "Hierarchy", "decompose", "build_hierarchy", "DEFAULT_PHI"]

DEFAULT_PHI = Fraction(1, 16)

_MAX_PHI_HALVINGS = 64

#: phi_target / phi for every phi that `decompose` can end at.
_HALVING_RATIOS = frozenset(1 << h for h in range(_MAX_PHI_HALVINGS + 1))


@dataclass(frozen=True)
class DecompResult:
    """Cut edges B, the expansion target the run ended at, and the number
    of component certifications performed."""

    cut_edges: frozenset
    achieved_phi: Fraction
    rounds: int


def certification_trials(n: int) -> int:
    """Seeded demand-sampling count used per component."""
    return max(1, math.ceil(4 * math.log2(max(n, 2))))


def _grow_half(g, comp, deg, total, pivot, forward, threshold, walks):
    """Deterministic BFS ball around `pivot` inside `comp`, grown until it
    holds `threshold` (at most half) of the component's terminal degree
    `total`.

    The threshold is randomized by the caller so that a natural boundary
    sitting just under one half is still hit rather than overgrown.

    `walks` maps the entry vertex of each walk through inner vertices
    (see `_contract_inner_paths`), in the search direction, to the walk's
    length in edges and its exit vertex. The ball jumps over such a walk:
    a scan that reaches its entry vertex in `comp` schedules the exit
    vertex for the level at which a vertex-by-vertex search would scan
    it. There the exit vertex is sorted into that level's frontier by its
    own id, and its scan discovers the kept vertex beyond the walk. So the
    ball gains the same kept vertices in the same order as the plain BFS:

    - An inner vertex has no terminal degree, so it never adds mass or
      ends the growth.
    - It has exactly one in-edge and one out-edge, so only its own walk
      reaches it, and the walk reaches one vertex per level.
    - `comp` is an SCC of G - B with at least 2 vertices, and an inner
      vertex returns to it only forward along its walk, so a walk whose
      entry vertex lies in `comp` lies wholly in it, far end included.
    - The exit vertex is scanned at the same level and in the same place
      of that level's sorted frontier as in the plain BFS.

    The ball holds no inner vertex; the caller reads it only at active
    vertices. Without inner vertices `walks` is empty and this is the
    plain BFS.
    """
    goal = threshold * total / 2
    ball = {pivot}
    mass = deg[pivot]
    frontier = [pivot]
    level = 0
    due: dict[int, list[int]] = {}  # level -> exit vertices scanned there
    while mass < goal:
        if not frontier:
            if not due:
                break
            level = min(due)
        frontier.extend(due.pop(level, ()))
        nxt: list[int] = []
        for u in sorted(frontier):
            edge_ids = g.out_edges(u) if forward else g.in_edges(u)
            for eid in edge_ids:
                w = g.head(eid) if forward else g.tail(eid)
                if w in comp and w not in ball:
                    walk = walks.get(w)
                    if walk is not None:
                        length, exit_vertex = walk
                        due.setdefault(level + length - 1, []).append(exit_vertex)
                        continue
                    ball.add(w)
                    mass += deg[w]
                    nxt.append(w)
                    if mass >= goal:
                        return ball
        frontier = nxt
        level += 1
    return ball


def _contract_inner_paths(
    g: DirectedGraph, deg
) -> tuple[DirectedGraph, Sequence[int], dict, dict]:
    """The graph the certification flows of one `decompose` call run on,
    the id each kept vertex of g has there (-1 for the others), and the
    walks through inner vertices that `_grow_half` jumps over, forward
    and backward.

    A vertex is inner when it has no terminal degree and exactly one
    in-edge and one out-edge. Each maximal path u -> x1 -> ... -> xk -> w
    through inner vertices becomes one edge u -> w of the path's least
    capacity; a path with w = u is dropped, and so is a cycle of inner
    vertices, which no kept vertex reaches. Kept vertices keep their
    order. Without inner vertices the result is g itself.

    No supply or sink sits on an inner vertex, so a flow crosses a path
    of them as it would cross a single edge of the path's bottleneck:
    every max-flow value between kept vertices is the same on both graphs.

    The same pass records each path, w = u included, as a walk of
    k + 1 edges: the forward walks map x1 to (k + 1, xk), the backward
    walks map xk to (k + 1, x1). Without inner vertices both are empty.
    """
    inner = [
        not deg[v] and len(g.in_edges(v)) == 1 and len(g.out_edges(v)) == 1
        for v in range(g.n)
    ]
    if not any(inner):
        return g, range(g.n), {}, {}
    new_id = [-1] * g.n
    kept = 0
    for v in range(g.n):
        if not inner[v]:
            new_id[v] = kept
            kept += 1
    edges = []
    forward: dict[int, tuple[int, int]] = {}
    backward: dict[int, tuple[int, int]] = {}
    for u, v, c in g.edges:
        if inner[u]:
            continue
        first = last = v
        length = 1
        while inner[v]:
            last = v
            _x, v, c_next = g.edges[g.out_edges(v)[0]]
            c = min(c, c_next)
            length += 1
        if length > 1:
            forward[first] = (length, last)
            backward[last] = (length, first)
        if v != u:
            edges.append((new_id[u], new_id[v], c))
    contracted = DirectedGraph(
        n=kept,
        edges=tuple(edges),
        source=new_id[g.source],
    )
    return contracted, new_id, forward, backward


def _trial_flow(g, h, new_id, supplies, sinks, target, sigma):
    """One trial's max-flow, capped at `target`: on the contracted graph
    h first and, unless it reaches the target there, on g, whose result
    is returned. Raises `InternalError` if the two values differ."""
    if h is not g:
        res = max_flow(FlowProblem(
            h,
            {new_id[v]: amt for v, amt in supplies.items()},
            {new_id[v]: amt for v, amt in sinks.items()},
            flow_bound=target,
            capacity_scale=sigma,
        ))
        if res.value == target:
            return res
    full = max_flow(FlowProblem(g, supplies, sinks, flow_bound=target, capacity_scale=sigma))
    if h is not g and full.value != res.value:
        raise InternalError(
            f"the contracted graph routes {res.value} units, the graph {full.value}"
        )
    return full


def _certify_component(g, comp, deg, phi, rng, trials, contracted):
    """Try to certify `comp`; return None on success or a violating
    proper nonempty subset of comp on failure.

    Trials alternate between balanced random vertex splits and BFS-ball
    splits around degree-weighted pivots; the latter align with
    structured bottlenecks (bridges, long cycles) that coin flips almost
    never isolate. Both are degree-respecting demands, so a component
    that truly routes at congestion 1/phi passes every trial. A demand
    that already passed in this call is not routed again; its random
    draws are still made, so later trials see the same draws.

    `contracted = (h, new_id, forward_walks, backward_walks)` comes from
    `_contract_inner_paths`. Each ball jumps over the walks of its
    direction. Each trial flow runs on h: supplies and sinks sit on
    terminal vertices, which h keeps, so the flow value is the one g
    gives, and a trial that reaches its target passes as it would on g.
    A trial that falls short is run again on g, whose residual graph
    gives the violating side; the two values must agree. So the result
    is exactly the one of running every trial on g.
    """
    h, new_id, forward_walks, backward_walks = contracted
    active = [v for v in sorted(comp) if deg[v] > 0]
    if len(active) < 2:
        return None
    sigma = max(1, int(Fraction(1) / phi))
    total = sum(deg[v] for v in active)
    passed: set[frozenset] = set()

    def pick_pivot() -> int:
        x = rng.randrange(total)
        for v in active:
            x -= deg[v]
            if x < 0:
                return v
        return active[-1]

    for t in range(trials):
        supplies: dict[int, int] = {}
        sinks: dict[int, int] = {}
        style = t % 3
        if style == 0:
            for v in active:
                if rng.random() < 0.5:
                    supplies[v] = deg[v]
                else:
                    sinks[v] = deg[v]
        else:
            threshold = rng.uniform(0.7, 1.0)
            forward = style == 1
            ball = _grow_half(
                g, comp, deg, total, pick_pivot(), forward, threshold,
                forward_walks if forward else backward_walks,
            )
            for v in active:
                if (v in ball) == forward:
                    supplies[v] = deg[v]
                else:
                    sinks[v] = deg[v]
        target = min(sum(supplies.values()), sum(sinks.values()))
        demand = frozenset(supplies)
        if target == 0 or demand in passed:
            continue
        res = _trial_flow(g, h, new_id, supplies, sinks, target, sigma)
        if res.value < target:
            viol = res.min_cut_side & comp
            if not viol or viol == comp:
                raise InternalError("trial flow produced a degenerate cut side")
            return frozenset(viol)
        passed.add(demand)
    return None


def decompose(
    g: DirectedGraph,
    terminals: EdgeSet,
    phi_target: Fraction,
    seed: int = 0,
) -> DecompResult:
    """Find cut edges B with c(B) <= c(terminals)/2 such that the terminal
    set is (heuristically) component-constrained phi-expanding after the
    cut. Deterministic given the seed. The search starts from g's SCC
    partition, which the graph keeps for all calls on it."""
    phi_target = Fraction(phi_target)
    if not 0 < phi_target <= 1:
        raise ParameterError(f"phi_target must be in (0, 1], got {phi_target}")
    for eid in terminals:
        if not 0 <= eid < g.m:
            raise ParameterError(f"terminal edge id {eid} out of range")
    if not terminals:
        return DecompResult(frozenset(), phi_target, 0)

    estar_cap = g.edge_capacity(terminals)
    deg = restricted_degrees(g, terminals)
    trials = certification_trials(g.n)
    contracted = _contract_inner_paths(g, deg)

    phi = phi_target
    halvings = 0
    cut: set[int] = set()
    pending: deque[frozenset] = deque(g.sccs.components)
    rounds = 0
    while pending:
        comp = pending.popleft()
        if len(comp) < 2:
            continue
        rounds += 1
        rng = derive_rng(seed, "certify", halvings, rounds - 1)
        viol = _certify_component(g, comp, deg, phi, rng, trials, contracted)
        if viol is None:
            continue
        rest = comp - viol
        outgoing = [e for u in viol for e in g.out_edges(u) if g.head(e) in rest and e not in cut]
        incoming = [e for v in viol for e in g.in_edges(v) if g.tail(e) in rest and e not in cut]
        out_cap = g.edge_capacity(outgoing)
        in_cap = g.edge_capacity(incoming)
        chosen = outgoing if out_cap <= in_cap else incoming
        if not chosen:
            raise InternalError("violating side has no crossing edges inside its SCC")
        if 2 * (g.edge_capacity(cut) + g.edge_capacity(chosen)) > estar_cap:
            # Budget exceeded: retry this component at a weaker target.
            halvings += 1
            if halvings > _MAX_PHI_HALVINGS:
                raise InternalError("phi lowered past any feasible value")
            phi = phi / 2
            pending.appendleft(comp)
            continue
        cut.update(chosen)
        # `comp` was an SCC of G - B and B now cuts every edge one way
        # between the sides, so the SCCs of comp minus B are SCCs of
        # G - B, and each lies inside one side.
        parts = induced_sccs(g, comp, cut)
        for side in (viol, rest):
            pending.extend(c for c in parts if c <= side)
    return DecompResult(frozenset(cut), phi, rounds)


@dataclass(frozen=True)
class Hierarchy:
    """Level edge sets E_1..E_L of `graph` and the phi each level ended
    at, plus the SCC partition of the graph minus all higher-level edges
    for every level 0..L, which the constructor derives after `validate`
    passes, and in which it checks that the source is a singleton.

    Its readers take the graph from it, so it cannot be paired with
    another graph; two hierarchies are equal only when their graphs are.

    Level 0 has no edge set; every edge counts as higher-level there, so
    its partition is all singletons, built without an SCC pass.
    Partitions coarsen upward (a laminar family): the edges above level
    i - 1 include those above level i.
    `packing.critical_edges` turns this into one critical level per edge.
    """

    graph: DirectedGraph = field(repr=False)
    phi_target: Fraction
    levels: tuple[frozenset, ...]
    level_phis: tuple[Fraction, ...]
    partitions: tuple[Partition, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.validate()
        # Every edge lies above level 0, since the levels cover the graph.
        # Above level i > 0 lies the union of E_j for j > i; validate
        # bounds L.
        n = self.graph.n
        singletons = Partition(tuple(range(n)), tuple(frozenset((v,)) for v in range(n)))
        above = (frozenset().union(*self.levels[i:]) for i in range(1, self.L + 1))
        object.__setattr__(
            self, "partitions", (singletons, *(scc(self.graph, up) for up in above))
        )
        s = self.graph.source
        for i, part in enumerate(self.partitions):
            if part.component(s) != frozenset({s}):
                raise InternalError(f"source is not a singleton at level {i}")

    @property
    def L(self) -> int:
        return len(self.levels)

    def level_edges(self, i: int) -> frozenset:
        """E_i for 1 <= i <= L."""
        if not 1 <= i <= self.L:
            raise ParameterError(f"level {i} out of range 1..{self.L}")
        return self.levels[i - 1]

    def partition(self, i: int) -> Partition:
        if not 0 <= i <= self.L:
            raise ParameterError(f"level {i} out of range 0..{self.L}")
        return self.partitions[i]

    def validate(self) -> None:
        """Check the levels and phis against the graph: at least one
        level and one phi per level, cover, halving, the bound on L, and
        phis that `decompose` can end at. Raises on any failure. The
        partitions are the graph's SCCs by construction."""
        g = self.graph
        if self.L < 1 or len(self.level_phis) != self.L:
            raise InternalError(f"{self.L} levels with {len(self.level_phis)} phis")
        if set().union(*self.levels) != set(range(g.m)):
            raise InternalError("level edge sets do not cover the graph")
        caps = [g.edge_capacity(level) for level in self.levels]
        for i in range(len(caps) - 1):
            if 2 * caps[i + 1] > caps[i]:
                raise HalvingViolation(
                    f"c(E_{i + 2}) = {caps[i + 1]} exceeds half of c(E_{i + 1}) = {caps[i]}"
                )
        limit = (math.ceil(math.log2(caps[0])) if caps[0] > 1 else 0) + 1
        if self.L > limit:
            raise HalvingViolation(f"L = {self.L} exceeds bound {limit}")
        if not 0 < self.phi_target <= 1:
            raise ParameterError(f"phi_target must be in (0, 1], got {self.phi_target}")
        for i, phi in enumerate(self.level_phis, start=1):
            if not phi > 0 or self.phi_target / phi not in _HALVING_RATIOS:
                raise InternalError(
                    f"level {i} phi {phi} is not phi_target / 2^h for any "
                    f"0 <= h <= {_MAX_PHI_HALVINGS}"
                )


def build_hierarchy(
    g: DirectedGraph, phi_target: Fraction = DEFAULT_PHI, seed: int = 0
) -> Hierarchy:
    """Iterate decompose until no cut edges remain; the `Hierarchy` built
    from the levels validates them and derives each level's partition."""
    phi_target = Fraction(phi_target)
    levels: list[frozenset] = []
    phis: list[Fraction] = []
    total_cap = g.total_capacity()
    max_levels = (math.ceil(math.log2(total_cap)) if total_cap > 1 else 0) + 2
    estar: frozenset = frozenset(range(g.m))
    i = 1
    while True:
        result = decompose(g, estar, phi_target, derive_seed(seed, "level", i))
        levels.append(estar)
        phis.append(result.achieved_phi)
        if not result.cut_edges:
            break
        estar = result.cut_edges
        i += 1
        if i > max_levels:
            raise HalvingViolation(
                f"hierarchy construction passed {max_levels} levels without converging"
            )
    return Hierarchy(g, phi_target, tuple(levels), tuple(phis))

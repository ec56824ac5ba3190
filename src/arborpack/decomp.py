"""Terminal-set expander decomposition and the level hierarchy built on it.

`decompose` is a desk-scale certify-or-cut scheme: for every strongly
connected component of the working graph it tries to certify that the
terminal-degree demands route with congestion 1/phi, by pushing seeded
random split-flow instances through an exact max-flow. The demands sit
on the component's vertices, but the trial flows are not confined to
it: they pass no edge filter, so a flow may route through edges
outside the component, and nothing yet confines it there.
When a trial flow falls short, the residual min-cut exposes a
violating vertex set; its smaller-direction crossing edges join the cut
set B and both sides are re-examined. The halving guarantee c(B) <= c(terminals)/2 is enforced,
not hoped for: if B grows past the budget, phi is halved and the
offending component re-runs (routing always succeeds once the congestion
allowance exceeds the total terminal degree, so this terminates). A
violated component is split with one SCC pass over its own vertices.

The trials of one `decompose` call run on a contracted copy of the
graph, built once per call: every maximal path through terminal-free
vertices with one edge in and one out becomes a single edge of the
path's least capacity. The BFS balls that pick two of every three
demands grow there too, so they cross such a path in one step.
Supplies and sinks sit only on terminal vertices, so each trial's flow
value is the one the full graph gives; a trial that falls short reads
the violating side off its own flow, lifted to the full graph through a
table of which kept vertices decide each vertex's side. So on a long
ring with a few terminals each trial, ball and flow, walks a handful of
edges instead of the ring, and runs one max-flow.

`build_hierarchy` iterates decompose, feeding each round's cut edges back
in as the next terminal set until no cut is needed; every round starts
from the graph's SCCs, computed once per build. The `Hierarchy` it
builds keeps the graph, checks the levels and then derives the
partition of the graph minus all higher-level edges for every level:
level 0 is all singletons, level L (no edge above it) is the graph's
own SCCs, kept in its `memo`, and each level in between takes one SCC
pass, so a build of L levels runs L - 1 passes. The `cli` module writes
the hierarchy as JSON and reads it back.

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


def _level_bound(total_cap: int) -> int:
    """The most levels a hierarchy can have over edges of total capacity
    `total_cap`: each level holds at most half the capacity of the one
    below and at least 1."""
    return (math.ceil(math.log2(total_cap)) if total_cap > 1 else 0) + 1


def certification_trials(n: int) -> int:
    """Seeded demand-sampling count used per component."""
    return max(1, math.ceil(4 * math.log2(max(n, 2))))


def _grow_half(g, comp, deg, total, pivot, forward, threshold):
    """Deterministic BFS ball around `pivot` inside `comp`, grown until it
    holds `threshold` (at most half) of the component's terminal degree
    `total`.

    The threshold is randomized by the caller so that a natural boundary
    sitting just under one half is still hit rather than overgrown.
    """
    goal = threshold * total / 2
    ball = {pivot}
    mass = deg[pivot]
    frontier = [pivot]
    while frontier and mass < goal:
        nxt: list[int] = []
        for u in sorted(frontier):
            edge_ids = g.out_edges(u) if forward else g.in_edges(u)
            for eid in edge_ids:
                w = g.head(eid) if forward else g.tail(eid)
                if w in comp and w not in ball:
                    ball.add(w)
                    mass += deg[w]
                    nxt.append(w)
                    if mass >= goal:
                        return ball
        frontier = nxt
    return ball


def _contract_inner_paths(
    g: DirectedGraph, deg
) -> tuple[DirectedGraph, Sequence[int], list[tuple[int, ...]] | None]:
    """The graph the certification trials of one `decompose` call run on,
    the id each kept vertex of g has there (-1 for the others), and for
    each vertex of g the ids in it of the kept vertices whose sides decide
    its side after a maximum flow.

    A vertex is inner when it has no terminal degree and exactly one
    in-edge and one out-edge. Each maximal path u -> x1 -> ... -> xk -> w
    through inner vertices becomes one edge u -> w of the path's least
    capacity; a path with w = u is dropped, and so is a cycle of inner
    vertices, which no kept vertex reaches. Kept vertices keep their
    order. Without inner vertices the result is g itself, with no table.

    No supply or sink sits on an inner vertex, so a flow crosses a path
    of them as it would cross a single edge of the path's bottleneck:
    every max-flow value between kept vertices is the same on both graphs.
    The table lifts a min-cut side of h to g. Let R be the set the
    super-source reaches in h's residual graph after a maximum flow,
    whose complement is h's `min_cut_side`. Every maximum flow of g
    leaves the same set reachable (Picard and Queyranne, Math.
    Programming Study 13, 1980), so take h's flow copied onto each
    contracted path, a maximum flow of g. An inner vertex has residual
    arcs only along its path, and on a path carrying f units g has a
    forward arc wherever an edge is above f and a backward arc wherever
    f > 0, as h has on the path's edge. So a kept vertex is reached in
    g exactly when its id in h is in R. An inner vertex x on a path
    u -> ... -> w is reached exactly when u is and, in addition, w is
    or x lies before the path's first least-capacity edge: every edge
    from u to x is then above the least capacity, so none of them
    saturates, and from w only a path with f > 0 leads back, through x
    to u. Its entry lists u alone or both u and w. The inner vertices
    on a dropped path follow u, as they carry no flow. The vertices of
    a cycle of inner vertices are never reached; their entry is empty.
    """
    inner = [
        not deg[v] and len(g.in_edges(v)) == 1 and len(g.out_edges(v)) == 1
        for v in range(g.n)
    ]
    if not any(inner):
        return g, range(g.n), None
    new_id = [-1] * g.n
    kept = 0
    for v in range(g.n):
        if not inner[v]:
            new_id[v] = kept
            kept += 1
    sides = [(i,) if i >= 0 else () for i in new_id]
    edges = []
    for u, v, c in g.edges:
        if inner[u]:
            continue
        path, before = [], 0
        while inner[v]:
            path.append(v)
            _x, v, c_next = g.edges[g.out_edges(v)[0]]
            if c_next < c:
                c, before = c_next, len(path)
        first = (new_id[u],)
        last = first if v == u else (*first, new_id[v])
        for i, x in enumerate(path):
            sides[x] = first if i < before else last
        if v != u:
            edges.append((new_id[u], new_id[v], c))
    contracted = DirectedGraph(
        n=kept,
        edges=tuple(edges),
        source=new_id[g.source],
    )
    return contracted, new_id, sides


def _lift_side(side, sides, vertices) -> set[int]:
    """The vertices among `vertices` of g on the side that a maximum flow
    on g leaves unreached, given h's `min_cut_side` and the `sides` table
    of `_contract_inner_paths`: those whose entry is empty or names an id
    in h's side."""
    return {v for v in vertices if not sides[v] or not side.isdisjoint(sides[v])}


def _certify_component(g, comp, phi, rng, trials, contracted):
    """Try to certify `comp`, an SCC of g minus the cut so far; return
    None on success or a violating proper nonempty subset of comp on
    failure.

    Trials alternate between balanced random vertex splits and BFS-ball
    splits around degree-weighted pivots; the latter align with
    structured bottlenecks (bridges, long cycles) that coin flips almost
    never isolate. Both are degree-respecting demands, so a component
    that truly routes at congestion 1/phi passes every trial. A demand
    that already passed in this call is not routed again; its random
    draws are still made, so later trials see the same draws.

    `contracted = (h, new_id, sides, deg)` holds the graph from
    `_contract_inner_paths`, the ids of g's vertices there, its table of
    the ids that decide each vertex's side, and the terminal degree of
    each vertex of h. The trials run on comp's vertices in h: the active
    ones, the pivots, the balls, which grow along h's edges, and the
    flows. Supplies and sinks sit on terminal vertices, which h keeps,
    so each flow value is the one g gives, and a trial that reaches its
    target passes as it would on g. A trial that falls short ran a
    maximum flow, and `_lift_side` lifts its `min_cut_side` to the side
    that a maximum flow on g leaves, so each trial runs one flow, on h.
    As h keeps the order of g's vertices, the trials make the same
    random draws as on g.
    """
    h, new_id, sides, deg = contracted
    h_comp = comp if h is g else frozenset(new_id[v] for v in comp if new_id[v] >= 0)
    active = [v for v in sorted(h_comp) if deg[v] > 0]
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
            ball = _grow_half(h, h_comp, deg, total, pick_pivot(), forward, threshold)
            for v in active:
                if (v in ball) == forward:
                    supplies[v] = deg[v]
                else:
                    sinks[v] = deg[v]
        target = min(sum(supplies.values()), sum(sinks.values()))
        demand = frozenset(supplies)
        if target == 0 or demand in passed:
            continue
        res = max_flow(FlowProblem(h, supplies, sinks, flow_bound=target, capacity_scale=sigma))
        if res.value == target:
            passed.add(demand)
            continue
        side = res.min_cut_side
        viol = side & comp if h is g else _lift_side(side, sides, comp)
        if not viol or viol == comp:
            raise InternalError("trial flow produced a degenerate cut side")
        return frozenset(viol)
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
    h, new_id, sides = _contract_inner_paths(g, deg)
    contracted = (h, new_id, sides, deg if h is g else [d for d, i in zip(deg, new_id) if i >= 0])

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
        viol = _certify_component(g, comp, phi, rng, trials, contracted)
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
    its partition is all singletons, built without an SCC pass. No edge
    lies above level L, whose partition is the graph's own `sccs`.
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
        limit = _level_bound(caps[0])
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
    max_levels = _level_bound(g.total_capacity())
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

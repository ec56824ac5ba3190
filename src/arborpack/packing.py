"""Arborescence packing via level-by-level edge coloring.

Colors 1..k are threaded through the hierarchy bottom-up. At level 0
every non-source vertex holds all k colors as "breakpoints" (or, if some
vertex has in-degree below k, that vertex immediately certifies a small
cut). Each level then converts breakpoint colors into edge colors. It
walks its non-source components once, and runs three steps on each:

  1. split every vertex's colors into X (stays a breakpoint), Y (parked
     on incoming edges from the newly merged region), and Z (to be wired
     through the component);
  2. a single max-flow finds edge-disjoint paths from critical-edge
     budgets to level-edge budgets, one path per Z color, whose endpoint
     becomes that color's leader (a short flow means some subset has
     fewer than k incoming edges, which is a certifying cut);
  3. chain demands connect each color's leader through its breakpoints,
     taken in the pop order of a stack search from the leader inside
     the component, so consecutive breakpoints tend to lie close.

The chain demands of all components are then routed once per level with
measured congestion, each pair along a path inside its own component.
So every step of level i stays inside its level-i component: Y colors
park on edges whose tails joined it at level i, the flow of step 2 runs
on its edges, and so does every routed path of step 3.

The per-level steps take the hierarchy alone and read the graph off it.
`pack` builds each level's table of critical incoming edges once, as
the climb reaches that level, and hands it to every step that reads it.
Step 1 reads each vertex's split off the tables of levels i and i-1:
E_X is its level-i critical set, and the rest of its level-(i-1)
critical set divides into the level-i edges (E_Z) and the others (E_Y).
Step 2 decomposes its flow with `decompose_paths`, which checks the flow
against its problem with `verify_flow` first.
Each level also counts every vertex's level-edge in-degree once; the
counts set the flow sinks and the bound on the chain demands.

Three invariants are re-checked by direct search after every level: each
color can reach every vertex from a colored vertex of its component over
colored edges inside that component (Invariant 1), vertex color counts
stay within (i+1) times the critical degree (Invariant 2), and edge
color counts stay within 5 i^2 times the observed routing factor
(Invariant 3, instrumented form). The final coloring distributes
leftover vertex colors over top-level critical edges, and a DFS per
color extracts the arborescences. An exchange pass then moves parent
edges off edges that many trees share, onto in-edges that at least two
fewer trees use; the reported congestion is that of the exchanged trees,
while the instrumented bound is checked on the extracted ones.

Packing is defined for unit-capacity graphs; weighted inputs are
rejected. `pack` returns a `PackingResult`; `cli` writes it as JSON.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Collection, Mapping, Sequence

from .decomp import DEFAULT_PHI, Hierarchy, build_hierarchy
from .errors import (
    InternalError,
    InvariantError,
    ParameterError,
    PropertyOneError,
    UnsupportedGraphError,
)
from .graphcore import (
    DirectedGraph,
    cut_values,
    edges_within,
    reachable_from,
)
from .maxflow import FlowProblem, decompose_paths, max_flow
from .routing import Demand, route
from .seeds import derive_seed

__all__ = [
    "ColorState",
    "CriticalEdges",
    "CutFound",
    "PackingResult",
    "critical_edges",
    "init_base_colors",
    "partition_critical",
    "split_colors",
    "component_flow",
    "chain_demand_pairs",
    "run_level",
    "finalize_coloring",
    "extract_arborescences",
    "exchange_pass",
    "pack",
    "check_invariants",
]


#: Critical incoming edges per vertex at one level: edges from another
#: component of that level, and higher-level edges. delta(v) = len(crit[v]).
CriticalEdges = tuple[frozenset, ...]


def critical_edges(hierarchy: Hierarchy, i: int) -> CriticalEdges:
    g = hierarchy.graph
    part = hierarchy.partition(i)
    above = hierarchy.edges_above(i)
    sets: list[set] = [set() for _ in range(g.n)]
    for eid, (u, v, _c) in enumerate(g.edges):
        if part.comp_of[u] != part.comp_of[v] or eid in above:
            sets[v].add(eid)
    return tuple(frozenset(s) for s in sets)


@dataclass
class ColorState:
    """Color assignments after one level: per-edge and per-vertex color
    sets, plus the cumulative observed routing factor used by the
    instrumented edge-color bound."""

    level: int
    k: int
    edge_colors: dict
    vertex_colors: dict
    route_factor: Fraction
    level_log: tuple = ()


@dataclass(frozen=True)
class CutFound:
    """A certifying cut discovered mid-run; `source_side` contains the
    source and has outgoing capacity below k."""

    source_side: frozenset


@dataclass(frozen=True)
class PackingResult:
    """Either k arborescences with their congestion, or a certifying cut
    (source side S with delta(S) < k)."""

    kind: str  # "arborescences" | "cut"
    k: int
    trees: tuple | None = None
    congestion: int | None = None
    cut_vertices: frozenset | None = None
    cut_delta: int | None = None
    levels: int | None = None
    level_log: tuple = ()


def init_base_colors(g: DirectedGraph, k: int):
    """Level-0 state: no edge colors, all k colors on every non-source
    vertex. A vertex with in-degree below k yields an immediate cut."""
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    for v in range(g.n):
        if v != g.source and len(g.in_edges(v)) < k:
            return CutFound(frozenset(range(g.n)) - {v})
    colors = frozenset(range(1, k + 1))
    return ColorState(
        level=0,
        k=k,
        edge_colors={e: set() for e in range(g.m)},
        vertex_colors={v: set(colors) for v in range(g.n) if v != g.source},
        route_factor=Fraction(1),
    )


def partition_critical(
    hierarchy: Hierarchy,
    i: int,
    v: int,
    crit_i: CriticalEdges,
    crit_prev: CriticalEdges,
) -> tuple[frozenset, frozenset, frozenset]:
    """Split v's level-(i-1) critical incoming edges into (E_X, E_Y, E_Z).

    E_X are the level-i critical edges (`crit_i`). The rest of the
    level-(i-1) critical set (`crit_prev`) became internal at level i:
    E_Z are those that are level-i edges, E_Y the lower-level edges whose
    tails joined v's component only at level i. Partitions refine upward
    and the edges above level i are among those above level i-1, so
    `crit_i[v]` must be a subset of `crit_prev[v]`.
    """
    if not 1 <= i <= hierarchy.L:
        raise ParameterError(f"level {i} out of range 1..{hierarchy.L}")
    if v == hierarchy.graph.source:
        raise ParameterError("the source has no critical incoming edges")
    ex = crit_i[v]
    if not ex <= crit_prev[v]:
        raise InternalError(
            f"level-{i} critical edges of vertex {v} are not critical at level {i - 1}"
        )
    rest = crit_prev[v] - ex
    ez = rest & hierarchy.level_edges(i)
    return ex, rest - ez, ez


def split_colors(
    prev_colors: frozenset | set, caps: tuple[int, int, int]
) -> tuple[set, set, set]:
    """Deterministically split a color set into (X, Y, Z) within caps,
    filling X then Y then Z by ascending color."""
    cx, cy, cz = caps
    colors = sorted(prev_colors)
    if len(colors) > cx + cy + cz:
        raise InvariantError(
            f"{len(colors)} colors cannot fit caps {caps}; an upstream bound broke"
        )
    x = set(colors[:cx])
    y = set(colors[cx : cx + cy])
    z = set(colors[cx + cy :])
    return x, y, z


def component_flow(
    g: DirectedGraph,
    indeg: Sequence[int],
    i: int,
    comp: frozenset,
    crit: CriticalEdges,
    z_colors: set | frozenset,
    k: int,
):
    """Wire the component's Z colors with one exact max-flow.

    `indeg[v]` is v's in-degree over the level-i edges, counted once per
    level, and `crit` is the level-i critical-edge table. Supplies are
    the per-vertex critical degrees, sinks are i times the level-edge
    in-degrees, and the flow is capped at min(k, total sink).
    A short flow exposes a vertex set with fewer than k incoming edges
    (returned as a cut, whose bound `pack` checks); otherwise the flow
    decomposes into edge-disjoint paths inside the component and the
    first |Z| of them are assigned to the Z colors in ascending order. The result maps each Z color to its
    path, whose last vertex is that color's leader.
    """
    z = sorted(z_colors)
    if not z:
        return {}
    members = sorted(comp)
    sinks = {v: i * indeg[v] for v in members if indeg[v]}
    total_sink = sum(sinks.values())
    bound = min(k, total_sink)
    if len(z) > bound:
        raise InternalError(
            f"{len(z)} colors need wiring but the flow bound is only {bound}"
        )
    supplies = {v: len(crit[v]) for v in members if crit[v]}
    intra = edges_within(g, comp)
    problem = FlowProblem(g, supplies, sinks, flow_bound=bound, edge_filter=intra)
    res = max_flow(problem)
    if res.value < bound:
        cstar = frozenset(res.min_cut_side & comp)
        if not cstar:
            raise InternalError("component cut case produced an empty side")
        return CutFound(frozenset(range(g.n)) - cstar)
    paths = decompose_paths(problem, res)
    return {gamma: paths[j] for j, gamma in enumerate(z)}


def chain_demand_pairs(
    g: DirectedGraph,
    comp: frozenset,
    leader: int,
    breakpoints: Collection[int],
) -> tuple[tuple[int, int], ...]:
    """Chain the leader through the breakpoints of its component `comp`:
    (leader, b1), (b1, b2), ...

    The breakpoints are taken in the pop order of a stack search from
    the leader over the out-edges whose head is in `comp`. A vertex is
    marked when it is pushed, and out-neighbours are pushed in descending
    edge-id order, so consecutive breakpoints tend to lie a few hops
    apart and their routes stay short. (A true DFS preorder, marking on
    pop, raised the tree congestion on glued arborescences.) In `pack`
    the search reaches every breakpoint, because each component is
    strongly connected; breakpoints it does not reach otherwise follow in
    ascending id order. Degenerate self-pairs (the leader being its own
    first breakpoint) are dropped as vacuous."""
    pending = set(breakpoints)
    ordered: list[int] = []
    marked = {leader}
    stack = [leader]
    while stack and pending:
        u = stack.pop()
        if u in pending:
            pending.discard(u)
            ordered.append(u)
        for e in reversed(g.out_edges(u)):
            w = g.edges[e][1]
            if w in comp and w not in marked:
                marked.add(w)
                stack.append(w)
    ordered += sorted(pending)
    pairs: list[tuple[int, int]] = []
    prev = leader
    for b in ordered:
        if b != prev:
            pairs.append((prev, b))
        prev = b
    return tuple(pairs)


def run_level(
    hierarchy: Hierarchy,
    i: int,
    state: ColorState,
    crit_i: CriticalEdges,
    crit_prev: CriticalEdges,
):
    """Compute the level-i color state from the level-(i-1) state, or
    return the certifying cut discovered on the way. `crit_i` and
    `crit_prev` are the critical-edge tables of levels i and i-1."""
    if state.level != i - 1:
        raise ParameterError(f"state is at level {state.level}, expected {i - 1}")
    k = state.k
    g = hierarchy.graph
    part = hierarchy.partition(i)
    s = g.source
    singleton_source = frozenset({s})
    indeg = [0] * g.n
    for e in hierarchy.level_edges(i):
        indeg[g.head(e)] += 1

    edge_colors = {e: set(cols) for e, cols in state.edge_colors.items()}
    vertex_colors: dict[int, set] = {v: set() for v in range(g.n) if v != s}
    pairs: list[tuple[int, int]] = []
    tags: list[int] = []
    for comp in part.components:
        if comp == singleton_source:
            continue
        members = sorted(comp)

        # Step 1: split breakpoint colors into X (keep), Y (park on merged
        # in-edges), Z (wire through the component).
        z_of: dict[int, set] = {}
        for v in members:
            ex, ey, ez = partition_critical(hierarchy, i, v, crit_i, crit_prev)
            x, y, z = split_colors(
                state.vertex_colors.get(v, set()),
                (len(ex) * i, len(ey) * i, len(ez) * i),
            )
            vertex_colors[v] |= x
            if y:
                ey_sorted = sorted(ey)
                for idx, gamma in enumerate(sorted(y)):
                    edge_colors[ey_sorted[idx % len(ey_sorted)]].add(gamma)
            z_of[v] = z

        # Step 2: one flow hands each Z color a path and a leader.
        zc = set().union(*z_of.values())
        outcome = component_flow(g, indeg, i, comp, crit_i, zc, k)
        if isinstance(outcome, CutFound):
            return outcome
        for gamma, path in sorted(outcome.items()):
            for e in path.edges:
                edge_colors[e].add(gamma)
            vertex_colors[path.vertices[0]].add(gamma)

        # Step 3: chain each color's leader through its breakpoints.
        for gamma in sorted(zc):
            breakpoints = [v for v in members if gamma in z_of[v]]
            leader = outcome[gamma].vertices[-1]
            for pair in chain_demand_pairs(g, comp, leader, breakpoints):
                pairs.append(pair)
                tags.append(gamma)

    # Check the demand bound (each vertex is an end of at most
    # 3 i indeg[v] pairs), route once inside the level-i components, and
    # color the routed paths.
    participation = Counter(v for pair in pairs for v in pair)
    for v in sorted(participation):
        if participation[v] > 3 * i * indeg[v]:
            raise InvariantError(
                f"level-{i} demand exceeds its respecting bound at vertex "
                f"{v} ({participation[v]} > {3 * i * indeg[v]})"
            )
    congestion = 0
    if pairs:
        outcome = route(g, Demand(tuple(pairs), part))
        for idx, gamma in enumerate(tags):
            for e in outcome.paths_edges[idx]:
                edge_colors[e].add(gamma)
        congestion = outcome.congestion

    factor = max(Fraction(1), Fraction(congestion, 3 * i))
    new_state = ColorState(
        level=i,
        k=k,
        edge_colors=edge_colors,
        vertex_colors=vertex_colors,
        route_factor=max(state.route_factor, factor),
        level_log=state.level_log
        + (
            {
                "level": i,
                "demand_pairs": len(pairs),
                "congestion": congestion,
                "factor": str(max(state.route_factor, factor)),
            },
        ),
    )
    violations = check_invariants(hierarchy, i, new_state, crit_i)
    if violations:
        raise InvariantError("; ".join(violations))
    return new_state


def _color_adjacency(
    g: DirectedGraph, coloring: Mapping[int, Collection[int]], k: int
) -> list[list[list[tuple[int, int]]]]:
    """Entry gamma - 1 lists, for each vertex, the (head, edge id) pairs
    of its out-edges that hold color gamma, for gamma in 1..k, in the
    order of `coloring`; one pass over the edges builds all k."""
    adjs: list[list[list[tuple[int, int]]]] = [[[] for _ in range(g.n)] for _ in range(k)]
    for e, cols in coloring.items():
        u, v, _c = g.edges[e]
        for gamma in cols:
            if 1 <= gamma <= k:
                adjs[gamma - 1][u].append((v, e))
    return adjs


def check_invariants(
    hierarchy: Hierarchy,
    i: int,
    state: ColorState,
    crit: CriticalEdges,
) -> list[str]:
    """Re-derive the three per-level invariants by direct search, with
    `crit` the level-i critical-edge table; returns a list of violation
    descriptions (empty when all hold). The search for Invariant 1
    follows only colored edges inside the component, since every step
    of level i stays inside its level-i component."""
    violations: list[str] = []
    g = hierarchy.graph
    s = g.source
    part = hierarchy.partition(i)

    for v in range(g.n):
        if v == s:
            continue
        have = len(state.vertex_colors.get(v, ()))
        allowed = len(crit[v]) * (i + 1)
        if have > allowed:
            violations.append(
                f"vertex {v} holds {have} colors, bound is {allowed} (invariant 2)"
            )

    bound3 = 5 * i * i * state.route_factor
    for e, cols in state.edge_colors.items():
        if len(cols) > bound3:
            violations.append(
                f"edge {e} holds {len(cols)} colors, bound is {bound3} (invariant 3)"
            )

    adjs = _color_adjacency(g, state.edge_colors, state.k)
    for gamma, adj in enumerate(adjs, start=1):
        for comp in part.components:
            if comp == frozenset({s}):
                continue
            sources = [
                v for v in comp if gamma in state.vertex_colors.get(v, ())
            ]
            reached = set(sources)
            stack = list(sources)
            while stack:
                u = stack.pop()
                for w, _e in adj[u]:
                    if w in comp and w not in reached:
                        reached.add(w)
                        stack.append(w)
            missing = comp - reached
            if missing:
                violations.append(
                    f"color {gamma}: vertex {min(missing)} unreachable from a "
                    f"colored vertex of its component (invariant 1)"
                )
    return violations


def finalize_coloring(hierarchy: Hierarchy, state: ColorState, crit: CriticalEdges) -> dict:
    """Fold the top-level vertex colors onto their critical incoming edges
    (`crit`, the level-L table; round-robin, at most L+1 colors received
    per edge) and return the final per-edge coloring."""
    if state.level != hierarchy.L:
        raise ParameterError(
            f"state is at level {state.level}, expected top level {hierarchy.L}"
        )
    top = hierarchy.L
    g = hierarchy.graph
    final = {e: set(cols) for e, cols in state.edge_colors.items()}
    for v in range(g.n):
        if v == g.source:
            continue
        colors = sorted(state.vertex_colors.get(v, ()))
        if not colors:
            continue
        targets = sorted(crit[v])
        if not targets:
            raise InvariantError(
                f"vertex {v} still holds colors but has no critical incoming edge"
            )
        received: Counter = Counter()
        for idx, gamma in enumerate(colors):
            e = targets[idx % len(targets)]
            final[e].add(gamma)
            received[e] += 1
        worst = max(received.values())
        if worst > top + 1:
            raise InvariantError(
                f"edge received {worst} colors during finalization, quota is {top + 1}"
            )
    for e, cols in final.items():
        if len(cols) > len(state.edge_colors.get(e, ())) + top + 1:
            raise InvariantError(f"edge {e} exceeded its finalization growth bound")
    return {e: frozenset(cols) for e, cols in final.items()}


def extract_arborescences(
    g: DirectedGraph,
    coloring: Mapping[int, frozenset],
    k: int,
    congestion_bound: Fraction | None = None,
) -> PackingResult:
    """One DFS tree per color, rooted at the source over that color's
    edges; fails with the offending color and vertex if a color class
    does not span the graph."""
    s = g.source
    trees: list[tuple[int, ...]] = []
    for gamma, adj in enumerate(_color_adjacency(g, coloring, k), start=1):
        for lst in adj:
            lst.sort()
        visited = [False] * g.n
        visited[s] = True
        tree_edges: list[int] = []
        stack = [s]
        while stack:
            u = stack.pop()
            for head, eid in reversed(adj[u]):
                if not visited[head]:
                    visited[head] = True
                    tree_edges.append(eid)
                    stack.append(head)
        if not all(visited):
            missing = visited.index(False)
            raise PropertyOneError(
                f"color {gamma} cannot reach vertex {missing} from the source"
            )
        trees.append(tuple(sorted(tree_edges)))
    usage = Counter(e for tree in trees for e in tree)
    congestion = max(usage.values(), default=0)
    if congestion_bound is not None and congestion > congestion_bound:
        raise InvariantError(
            f"tree congestion {congestion} exceeds the instrumented bound "
            f"{congestion_bound}"
        )
    return PackingResult(
        kind="arborescences", k=k, trees=tuple(trees), congestion=congestion
    )


def exchange_pass(
    g: DirectedGraph, trees: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Swap parent edges between the spanning arborescences `trees` to
    spread their load; returns the new trees (edge ids ascending) and
    their congestion.

    The load of an edge is the number of trees that use it. Each tree
    sweeps its vertices v != source by ascending id and moves v's parent
    edge e to the in-edge e' of v of lowest load (lowest id on ties)
    whose tail is not in v's subtree, when load(e') <= load(e) - 2. The
    tail's ancestors, found by parent pointers, show whether it is in
    the subtree. Sweeps repeat until one moves nothing: each move lowers
    the sum of squared loads by at least 2, so the pass ends, and the
    maximum load never rises."""
    s = g.source
    edges = g.edges
    load = [0] * g.m
    parents: list[list[int]] = []
    for tree in trees:
        parent = [-1] * g.n
        for e in tree:
            parent[edges[e][1]] = e
            load[e] += 1
        parents.append(parent)

    def in_subtree(parent: list[int], x: int, v: int) -> bool:
        while x != s:
            if x == v:
                return True
            x = edges[parent[x]][0]
        return False

    moved = True
    while moved:
        moved = False
        for parent in parents:
            for v in range(g.n):
                e = parent[v]
                if v == s or load[e] < 2:
                    continue
                lighter = sorted((load[f], f) for f in g.in_edges(v) if load[f] <= load[e] - 2)
                for _load, f in lighter:
                    if not in_subtree(parent, edges[f][0], v):
                        parent[v] = f
                        load[e] -= 1
                        load[f] += 1
                        moved = True
                        break
    moved_trees = tuple(
        tuple(sorted(parent[v] for v in range(g.n) if v != s)) for parent in parents
    )
    return moved_trees, max(load, default=0)


def _cut_result(
    g: DirectedGraph, k: int, found: CutFound, levels: int | None, log: tuple
) -> PackingResult:
    side = found.source_side
    if g.source not in side:
        raise InternalError("certifying cut does not contain the source")
    delta = cut_values(g, side).delta
    if delta >= k:
        raise InternalError(f"certifying cut has delta {delta}, expected below {k}")
    return PackingResult(
        kind="cut",
        k=k,
        cut_vertices=side,
        cut_delta=delta,
        levels=levels,
        level_log=log,
    )


def pack(
    g: DirectedGraph,
    k: int,
    phi_target: Fraction = DEFAULT_PHI,
    seed: int = 0,
) -> PackingResult:
    """Produce k arborescences with measured congestion, or a cut with
    outgoing capacity below k containing the source. `seed` drives the
    hierarchy; the per-level steps draw no randomness."""
    if k < 1:
        raise ParameterError(f"k must be positive, got {k}")
    if not g.is_unit_capacity():
        raise UnsupportedGraphError(
            "arborescence packing supports unit-capacity graphs only"
        )
    reachable = reachable_from(g, g.source)
    if len(reachable) != g.n:
        return _cut_result(g, k, CutFound(reachable), None, ())

    hierarchy = build_hierarchy(g, phi_target, derive_seed(seed, "hierarchy"))
    state = init_base_colors(g, k)
    if isinstance(state, CutFound):
        return _cut_result(g, k, state, hierarchy.L, ())
    crit = critical_edges(hierarchy, 0)
    for i in range(1, hierarchy.L + 1):
        crit_prev, crit = crit, critical_edges(hierarchy, i)
        outcome = run_level(hierarchy, i, state, crit, crit_prev)
        if isinstance(outcome, CutFound):
            return _cut_result(g, k, outcome, hierarchy.L, state.level_log)
        state = outcome
    coloring = finalize_coloring(hierarchy, state, crit)
    bound = 5 * hierarchy.L * hierarchy.L * state.route_factor + hierarchy.L + 1
    result = extract_arborescences(g, coloring, k, bound)
    trees, congestion = exchange_pass(g, result.trees)
    return replace(
        result,
        trees=trees,
        congestion=congestion,
        levels=hierarchy.L,
        level_log=state.level_log,
    )

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
  3. each color's demand pairs its leader with its breakpoints, and one
     stack search from the leader inside the component reaches them all.

The demands of all components are then routed once per level with
measured congestion, each color along the tree of its own search, so
the color reaches its breakpoints from its leader. So every step of
level i stays inside its level-i component: Y colors park on edges
whose tails joined it at level i, the flow of step 2 runs on its edges,
and so does every routed tree of step 3.

The per-level steps take the hierarchy alone and read the graph off it.
`pack` builds one critical-edge table per run, holding each edge's
first level at which it is no longer critical; each step reads an
edge's class off it in one pass over a vertex's in-edges. Step 1 splits
each vertex's level-(i-1) critical in-edges: E_X stay critical at level
i, and those that stop there divide into the level-i edges (E_Z) and
the others (E_Y).
Step 2 decomposes its flow with `decompose_paths`, which checks the flow
against its problem with `verify_flow` first.
Each level also counts every vertex's level-edge in-degree once; the
counts set the flow sinks. They also bound the demands: a vertex v is
the root of at most i indeg[v] of them, its sink capacity in step 2, and
a terminal of at most as many, since step 1 caps its Z colors at i times
its level-edge in-degree.

Three invariants are re-checked by direct search after every level: each
color can reach every vertex from a colored vertex of its component over
colored edges inside that component (Invariant 1), vertex color counts
stay within (i+1) times the critical degree (Invariant 2), and edge
color counts stay within 5 i^2 times the observed routing factor
(Invariant 3, instrumented form). The final coloring distributes
leftover vertex colors over top-level critical edges, and a DFS per
color extracts the arborescences. An exchange pass then moves trees off
edges that many of them share. Its first move swaps a vertex's parent
edge for another in-edge that at least two fewer trees use; when no swap
is left, its second move re-hangs a whole subtree from such an edge
entering it, rewiring the subtree over its own edges. Each move lowers
the sorted load vector in lexicographic order, so the pass ends and the
maximum load never rises. The reported congestion is that of the
exchanged trees, while the instrumented bound is checked on the
extracted ones.

Packing is defined for unit-capacity graphs; weighted inputs are
rejected. `pack` returns a `PackingResult`; `cli` writes it as JSON.
"""
from __future__ import annotations

from collections import Counter, deque
from dataclasses import dataclass
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
    "run_level",
    "finalize_coloring",
    "extract_arborescences",
    "exchange_pass",
    "pack",
    "check_invariants",
]


#: Entry e is the first level at which edge e is not critical (L + 1 if
#: none), so e is critical at level i exactly when i < crit[e].
CriticalEdges = tuple[int, ...]


def critical_edges(hierarchy: Hierarchy) -> CriticalEdges:
    """For each edge e, the first level i >= top(e) at which e's tail
    and head share a level-i component, or L + 1 if there is none; top(e)
    is the highest level whose edge set holds e (the sets need not nest).

    An edge is critical at level i when it enters from another level-i
    component or lies above level i, which e does exactly when i < top(e).
    The hierarchy is laminar: the edges above level i shrink as i grows,
    so the level-i partition coarsens, and ends that share a component at
    one level share one at every higher level. So e is critical at every
    level below its entry and at none from it on."""
    g = hierarchy.graph
    top = [0] * g.m
    for i, level in enumerate(hierarchy.levels, start=1):
        for e in level:
            top[e] = i
    comp_of = [part.comp_of for part in hierarchy.partitions]
    entry = []
    for e, (u, v, _c) in enumerate(g.edges):
        i = top[e]
        while i <= hierarchy.L and comp_of[i][u] != comp_of[i][v]:
            i += 1
        entry.append(i)
    return tuple(entry)


def _critical_degree(g: DirectedGraph, crit: CriticalEdges, i: int, v: int) -> int:
    """delta_i(v): the number of v's in-edges critical at level i."""
    return sum(1 for e in g.in_edges(v) if crit[e] > i)


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
    hierarchy: Hierarchy, i: int, v: int, crit: CriticalEdges
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Split v's level-(i-1) critical incoming edges, in edge-id order,
    into E_X, still critical at level i (crit[e] > i), and the edges that
    became internal at level i (crit[e] = i): E_Y, whose tails joined v's
    component only at level i, and E_Z, the level-i edges."""
    level_i = hierarchy.level_edges(i)
    ex, ey, ez = [], [], []
    for e in hierarchy.graph.in_edges(v):
        if crit[e] > i:
            ex.append(e)
        elif crit[e] == i:
            (ez if e in level_i else ey).append(e)
    return tuple(ex), tuple(ey), tuple(ez)


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
    level, and `crit` is the critical-edge table. Supplies are the
    per-vertex level-i critical degrees, sinks are i times the level-edge
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
    supplies = {v: d for v in members if (d := _critical_degree(g, crit, i, v))}
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


def run_level(
    hierarchy: Hierarchy,
    i: int,
    state: ColorState,
    crit: CriticalEdges,
):
    """Compute the level-i color state from the level-(i-1) state, or
    return the certifying cut discovered on the way. `crit` is the
    critical-edge table."""
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
    pairs: list[tuple[int, tuple[int, ...]]] = []
    tags: list[int] = []
    for comp in part.components:
        if comp == singleton_source:
            continue
        members = sorted(comp)

        # Step 1: split breakpoint colors into X (keep), Y (park on merged
        # in-edges), Z (wire through the component).
        z_of: dict[int, set] = {}
        for v in members:
            ex, ey, ez = partition_critical(hierarchy, i, v, crit)
            x, y, z = split_colors(
                state.vertex_colors.get(v, set()),
                (len(ex) * i, len(ey) * i, len(ez) * i),
            )
            vertex_colors[v] |= x
            for idx, gamma in enumerate(sorted(y)):
                edge_colors[ey[idx % len(ey)]].add(gamma)
            z_of[v] = z

        # Step 2: one flow hands each Z color a path and a leader.
        zc = set().union(*z_of.values())
        outcome = component_flow(g, indeg, i, comp, crit, zc, k)
        if isinstance(outcome, CutFound):
            return outcome
        for gamma, path in sorted(outcome.items()):
            for e in path.edges:
                edge_colors[e].add(gamma)
            vertex_colors[path.vertices[0]].add(gamma)

        # Step 3: one demand per color, from its leader to its breakpoints.
        for gamma in sorted(zc):
            leader = outcome[gamma].vertices[-1]
            pairs.append((leader, tuple(v for v in members if gamma in z_of[v])))
            tags.append(gamma)

    # Route once inside the level-i components and color the routed trees.
    congestion = 0
    if pairs:
        outcome = route(g, Demand(tuple(pairs), part))
        for gamma, tree in zip(tags, outcome.paths_edges):
            for e in tree:
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
    violations = check_invariants(hierarchy, i, new_state, crit)
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
    `crit` the critical-edge table; returns a list of violation
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
        allowed = _critical_degree(g, crit, i, v) * (i + 1)
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
    """Fold the top-level vertex colors onto their level-L critical
    incoming edges (those with entry L + 1 in the critical-edge table
    `crit`; round-robin, at most L+1 colors received per edge) and
    return the final per-edge coloring."""
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
        targets = [e for e in g.in_edges(v) if crit[e] > top]
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
    congestion_bound: Fraction,
) -> tuple[tuple[int, ...], ...]:
    """One DFS tree per color, rooted at the source over that color's
    edges, each as its edge ids in ascending order; fails with the
    offending color and vertex if a color class does not span the graph,
    and when more than `congestion_bound` trees share an edge."""
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
    if congestion > congestion_bound:
        raise InvariantError(
            f"tree congestion {congestion} exceeds the instrumented bound "
            f"{congestion_bound}"
        )
    return tuple(trees)


def exchange_pass(
    g: DirectedGraph, trees: Sequence[Sequence[int]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Move parent edges between the spanning arborescences `trees` to
    spread their load; returns the new trees (edge ids ascending) and
    their congestion.

    The load of an edge is the number of trees that use it. The pass has
    two moves, and the second runs only when the first has none left.

    - A swap: each tree sweeps its vertices v != source by ascending id
      and moves v's parent edge e to the in-edge e' of v of lowest load
      (lowest id on ties) whose tail is not in v's subtree, when
      load(e') <= load(e) - 2. The tail's ancestors, found by parent
      pointers, show whether it is in the subtree. Sweeps repeat until
      one moves nothing.
    - A re-hang, when a whole sweep moved nothing: the first tree T and
      vertex v (by ascending id) whose parent edge e has load L >= 2 and
      whose subtree S can hang from an edge f = (x, y), x outside S and
      y in S, with load(f) <= L - 2. Candidates f go by (load, id). A
      0-1 BFS from y over the edges inside S, where T's edges cost 0,
      other edges of load <= L - 2 cost 1 and the rest are barred, must
      reach all of S; then y hangs from f and every other vertex of S
      from its BFS-tree edge, and the sweeps resume. Since x is outside
      S, none of its ancestors is in S, so T stays an arborescence.

    A swap is the re-hang with y = v, so both moves end every edge whose
    load rises at L - 1 or below while e's load falls from L: the load
    vector, sorted descending, falls in lexicographic order. So the pass
    ends, and the maximum load never rises."""
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

    def rehang(parent: list[int]) -> bool:
        children: list[list[int]] = [[] for _ in range(g.n)]
        for w in range(g.n):
            if w != s:
                children[edges[parent[w]][0]].append(w)
        for v in range(g.n):
            if v == s or load[parent[v]] < 2:
                continue
            cap = load[parent[v]] - 2
            subtree = {v}
            stack = [v]
            while stack:
                for w in children[stack.pop()]:
                    subtree.add(w)
                    stack.append(w)
            entering = sorted(
                (load[f], f)
                for y in subtree
                for f in g.in_edges(y)
                if load[f] <= cap and edges[f][0] not in subtree
            )
            failed: set[int] = set()  # what y reaches does not depend on f
            for _load, f in entering:
                y = edges[f][1]
                if y in failed:
                    continue
                via = {y: f}
                dist = {y: 0}
                queue = deque([y])
                while queue:
                    u = queue.popleft()
                    for a in g.out_edges(u):
                        w = edges[a][1]
                        cost = 0 if parent[w] == a else 1
                        if w in subtree and (cost == 0 or load[a] <= cap):
                            if dist[u] + cost < dist.get(w, g.n):
                                dist[w] = dist[u] + cost
                                via[w] = a
                                (queue.appendleft if cost == 0 else queue.append)(w)
                if len(via) < len(subtree):
                    failed.add(y)
                    continue
                for w, a in via.items():
                    load[parent[w]] -= 1
                    load[a] += 1
                    parent[w] = a
                return True
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
        if not moved:
            moved = any(rehang(parent) for parent in parents)
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
    crit = critical_edges(hierarchy)
    for i in range(1, hierarchy.L + 1):
        outcome = run_level(hierarchy, i, state, crit)
        if isinstance(outcome, CutFound):
            return _cut_result(g, k, outcome, hierarchy.L, state.level_log)
        state = outcome
    coloring = finalize_coloring(hierarchy, state, crit)
    bound = 5 * hierarchy.L * hierarchy.L * state.route_factor + hierarchy.L + 1
    trees, congestion = exchange_pass(g, extract_arborescences(g, coloring, k, bound))
    return PackingResult(
        kind="arborescences",
        k=k,
        trees=trees,
        congestion=congestion,
        levels=hierarchy.L,
        level_log=state.level_log,
    )

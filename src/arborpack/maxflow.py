"""Exact integral max-flow with multi-source/multi-sink boundaries.

The solver is Dinic's algorithm over a residual network that attaches a
virtual super-source and super-sink for the per-vertex supply and
sink-capacity functions. Virtual vertices are never visible to callers:
`min_cut_side` is always a set of real vertices (those unreachable from
the super-source in the final residual graph).

Each phase labels vertices by their distance to the super-sink, with one
backward BFS that stops once it labels the super-source. The blocking
flow then walks from the super-source along current-arc pointers and
takes only arcs whose head is one step closer to the sink, so every walk
reaches the sink unless arcs saturated earlier in the phase. After an
augmentation the walk resumes at the tail of the first saturated arc.
These are the arcs a source-side level graph offers minus its dead ends,
so the augmenting paths and their order are those of the textbook
forward labelling.

The arcs that come from the graph's edges are built once per graph
(`DirectedGraph.residual_arcs`) and shared by every call. A call copies
their capacities into a fresh list: `capacity_scale` multiplies them and
edges outside `edge_filter` get capacity 0 both ways. Only the arc lists
of vertices that get a supply or sink arc are copied and extended. The
blocking-flow search keeps an explicit stack, so path length is not
bounded by Python's recursion limit.

An optional `flow_bound` stops augmentation as soon as the flow reaches
it. Such a run is `capped`: it skips the final residual search, and its
`min_cut_side` is None. Any other run (no bound, or `value < flow_bound`)
is a genuine maximum flow: one forward search over the final residual
graph gives its `min_cut_side`, a genuine minimum cut.

`verify_flow` re-derives every invariant of a result against its
problem. `decompose_paths` takes the same pair, checks it with
`verify_flow`, and then traces the flow into unit paths.

Everything is deterministic: each vertex lists its arcs in edge-id order,
then its supply arc, then its sink arc; the super-source and super-sink
list theirs in ascending vertex order, and the search routines scan
adjacency in that order. Results do not depend on any worker or thread
configuration, nor on which problems ran on the graph before.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Mapping

from .errors import InternalError, ParameterError
from .graphcore import DirectedGraph, EdgeSet

__all__ = [
    "FlowProblem",
    "FlowResult",
    "FlowPath",
    "max_flow",
    "verify_flow",
    "decompose_paths",
]


@dataclass(frozen=True, eq=False)
class FlowProblem:
    """A max-flow instance over a `DirectedGraph`.

    `source_supply[v]` units may enter the network at v and
    `sink_capacity[v]` units may leave at v. `edge_filter`, when given,
    restricts the instance to that edge subset. `capacity_scale`
    multiplies every real edge capacity (supplies and sinks are never
    scaled).
    """

    graph: DirectedGraph
    source_supply: Mapping[int, int]
    sink_capacity: Mapping[int, int]
    flow_bound: int | None = None
    edge_filter: EdgeSet | None = None
    capacity_scale: int = 1

    def __post_init__(self) -> None:
        n = self.graph.n
        for name, mapping in (("supply", self.source_supply), ("sink", self.sink_capacity)):
            for v, amt in mapping.items():
                if not 0 <= v < n:
                    raise ParameterError(f"{name} vertex {v} out of range")
                if amt < 0:
                    raise ParameterError(f"{name} at {v} must be nonnegative, got {amt}")
        filt = self.edge_filter
        if filt and not 0 <= min(filt) <= max(filt) < self.graph.m:
            raise ParameterError("edge_filter holds an edge id out of range")
        if self.flow_bound is not None and self.flow_bound < 0:
            raise ParameterError("flow_bound must be nonnegative")
        if self.capacity_scale < 1:
            raise ParameterError("capacity_scale must be >= 1")


@dataclass(frozen=True, eq=False)
class FlowResult:
    """An integral flow: value, per-edge flow, and the sink-side cut.

    `flow[e]` is the flow on edge e in scaled capacity units, a list
    entry for every edge id (0 on edges outside the filter); `source_used`
    and `sink_used` record how much of each vertex's supply/sink capacity
    the flow consumed. `capped` means the value reached `flow_bound`; the
    run then stopped without a cut, and `min_cut_side` is None.
    """

    value: int
    flow: list = field(repr=False)
    min_cut_side: frozenset | None
    source_used: dict = field(repr=False)
    sink_used: dict = field(repr=False)
    capped: bool = False


def max_flow(problem: FlowProblem) -> FlowResult:
    """Exact integral maximum flow, optionally capped at `flow_bound`."""
    n = problem.graph.n
    source, sink = n, n + 1
    head, cap, adj, supply_arc, sink_arc = _residual_network(problem)
    bound = problem.flow_bound
    limit = sum(problem.source_supply.values())
    if bound is not None:
        limit = min(limit, bound)

    flow_total = 0
    while flow_total < limit:
        dist = _distances_to_sink(adj, head, cap, source, sink)
        if dist[source] < 0:
            break
        flow_total += _blocking_flow(adj, head, cap, dist, source, sink, limit - flow_total)
    capped = flow_total == bound
    if capped:
        cut_side = None
    else:
        reached = _reached(adj, head, cap, source)
        cut_side = frozenset([v for v in range(n) if not reached[v]])

    # The reverse arc of an edge (or of a supply or sink arc) holds the
    # flow on it.
    return FlowResult(
        value=flow_total,
        flow=cap[1 : 2 * problem.graph.m : 2],
        min_cut_side=cut_side,
        source_used={v: cap[a ^ 1] for v, a in supply_arc.items()},
        sink_used={v: cap[a ^ 1] for v, a in sink_arc.items()},
        capped=capped,
    )


def _residual_network(problem: FlowProblem):
    """The residual network of a fresh run: `(head, cap, adj, supply_arc,
    sink_arc)`, with the super-source at n and the super-sink at n + 1.
    `supply_arc[v]` and `sink_arc[v]` are the forward arcs of v's supply
    and sink; each arc's partner `a ^ 1` runs the other way."""
    g = problem.graph
    n = g.n
    source, sink = n, n + 1
    base_head, base_cap, base_adj = g.residual_arcs
    scale = problem.capacity_scale
    allowed = problem.edge_filter
    if allowed is None:
        cap = list(base_cap) if scale == 1 else [c * scale for c in base_cap]
    else:
        cap = [0] * len(base_cap)
        for eid in allowed:
            cap[2 * eid] = base_cap[2 * eid] * scale
    head = list(base_head)

    # Supply arcs leave the source and sink arcs enter the sink. A real
    # vertex lists its own after its real arcs, supply before sink.
    extra: dict[int, list[int]] = {}
    supply_arc: dict[int, int] = {}
    for v in sorted(problem.source_supply):
        amt = problem.source_supply[v]
        if amt > 0:
            supply_arc[v] = a = len(cap)
            cap += (amt, 0)
            head += (v, source)
            extra.setdefault(v, []).append(a + 1)
    sink_arc: dict[int, int] = {}
    for v in sorted(problem.sink_capacity):
        amt = problem.sink_capacity[v]
        if amt > 0:
            sink_arc[v] = a = len(cap)
            cap += (amt, 0)
            head += (sink, v)
            extra.setdefault(v, []).append(a)
    adj = list(base_adj)
    for v, arcs in extra.items():
        adj[v] = base_adj[v] + tuple(arcs)
    adj.append(tuple(supply_arc.values()))
    adj.append(tuple(a + 1 for a in sink_arc.values()))
    return head, cap, adj, supply_arc, sink_arc


def _distances_to_sink(adj, head, cap, source: int, sink: int) -> list[int]:
    """BFS distances to `sink` over arcs with residual capacity; -1 marks
    a vertex not reached. The search runs backwards: an arc b leaving w
    has a partner b ^ 1 that enters w from head[b]. It ends as soon as it
    labels `source`: no vertex at that distance or beyond lies on a
    shortest path from it."""
    dist = [-1] * len(adj)
    dist[sink] = 0
    dq = deque([sink])
    while dq:
        w = dq.popleft()
        nxt = dist[w] + 1
        for b in adj[w]:
            if cap[b ^ 1] > 0:
                v = head[b]
                if dist[v] < 0:
                    dist[v] = nxt
                    if v == source:
                        return dist
                    dq.append(v)
    return dist


def _reached(adj, head, cap, source: int) -> list[bool]:
    """Which vertices `source` reaches over arcs with residual capacity."""
    seen = [False] * len(adj)
    seen[source] = True
    stack = [source]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            if cap[a] > 0:
                w = head[a]
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
    return seen


def _blocking_flow(adj, head, cap, dist, source: int, sink: int, limit: int) -> int:
    """Augment along shortest paths until none is left or `limit` is met.

    An explicit stack of arcs walks from the source along each vertex's
    current arc (`it`), taking only arcs whose head is one step closer to
    the sink. At the start of the phase every such walk ends at the sink;
    a vertex whose arcs have all saturated since is dead for the rest of
    the phase (distance -1). After an augmentation the walk resumes at
    the tail of the first saturated arc: the current arcs before it are
    unchanged, so paths are found in the order of a recursive search.
    """
    it = [0] * len(adj)
    path: list[int] = []
    pushed = 0
    u = source
    while True:
        if u == sink:
            d = limit - pushed
            for a in path:
                if cap[a] < d:
                    d = cap[a]
            for a in path:
                cap[a] -= d
                cap[a ^ 1] += d
            pushed += d
            if pushed == limit:
                return pushed
            i = 0
            while cap[path[i]]:
                i += 1
            u = head[path[i] ^ 1]
            del path[i:]
            continue
        arcs = adj[u]
        i = it[u]
        want = dist[u] - 1
        while i < len(arcs):
            a = arcs[i]
            if cap[a] > 0 and dist[head[a]] == want:
                break
            i += 1
        it[u] = i
        if i < len(arcs):
            path.append(a)
            u = head[a]
            continue
        dist[u] = -1
        if not path:
            return pushed
        u = head[path.pop() ^ 1]
        it[u] += 1


def verify_flow(problem: FlowProblem, result: FlowResult) -> None:
    """Re-derive every flow invariant; raises `InternalError` on failure.

    Checks capacity bounds, conservation at every real vertex, value
    accounting, and (for uncapped runs) the min-cut identity
    value == supply(T) + c(crossing into T) + sink(V - T).
    """
    g = problem.graph
    scale = problem.capacity_scale
    allowed = problem.edge_filter
    in_flow = [0] * g.n
    out_flow = [0] * g.n
    for eid, f in enumerate(result.flow):
        u, v, c = g.edges[eid]
        if f and allowed is not None and eid not in allowed:
            raise InternalError(f"flow on filtered-out edge {eid}")
        if not 0 <= f <= c * scale:
            raise InternalError(f"edge {eid}: flow {f} outside [0, {c * scale}]")
        out_flow[u] += f
        in_flow[v] += f
    for v in range(g.n):
        src = result.source_used.get(v, 0)
        snk = result.sink_used.get(v, 0)
        if src > problem.source_supply.get(v, 0) or snk > problem.sink_capacity.get(v, 0):
            raise InternalError(f"vertex {v}: virtual usage exceeds its budget")
        if in_flow[v] + src != out_flow[v] + snk:
            raise InternalError(f"vertex {v}: conservation violated")
    if sum(result.source_used.values()) != result.value:
        raise InternalError("value does not match total supply used")
    if sum(result.sink_used.values()) != result.value:
        raise InternalError("value does not match total sink usage")
    if not result.capped:
        t_side = result.min_cut_side
        crossing = 0
        for eid, (u, v, c) in enumerate(g.edges):
            if allowed is not None and eid not in allowed:
                continue
            if u not in t_side and v in t_side:
                crossing += c * scale
        cut = (
            sum(problem.source_supply.get(v, 0) for v in t_side)
            + crossing
            + sum(problem.sink_capacity.get(v, 0) for v in range(g.n) if v not in t_side)
        )
        if cut != result.value:
            raise InternalError(f"min-cut value {cut} != flow value {result.value}")


@dataclass(frozen=True)
class FlowPath:
    """One unit path of a decomposition; a single-vertex path has no edges."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]


def decompose_paths(problem: FlowProblem, result: FlowResult) -> list[FlowPath]:
    """Decompose an integral flow of `problem` into `value` unit paths.

    The flow is first checked with `verify_flow`. Trace order is
    deterministic: repeatedly start from the lowest-id vertex with
    remaining injection and follow the lowest-id edge with positive
    remaining flow. Cycles encountered along the way are cancelled in
    full and never emitted. Each edge e appears in at most flow(e) paths;
    at most `source_supply[u]` paths start at u and at most
    `sink_capacity[v]` paths end at v.
    """
    verify_flow(problem, result)
    g = problem.graph
    rem = {eid: f for eid, f in enumerate(result.flow) if f > 0}
    inject = {v: amt for v, amt in result.source_used.items() if amt > 0}
    absorb = {v: amt for v, amt in result.sink_used.items() if amt > 0}

    out_sorted = {
        v: sorted(e for e in g.out_edges(v) if e in rem) for v in range(g.n)
    }
    out_ptr = {v: 0 for v in out_sorted}

    def next_edge(v: int) -> int:
        lst = out_sorted.get(v, ())
        ptr = out_ptr.get(v, 0)
        while ptr < len(lst) and rem.get(lst[ptr], 0) == 0:
            ptr += 1
        out_ptr[v] = ptr
        if ptr == len(lst):
            raise InternalError(f"vertex {v}: no outgoing flow while tracing")
        return lst[ptr]

    paths: list[FlowPath] = []
    for start in sorted(inject):
        while inject[start] > 0:
            vpath = [start]
            epath: list[int] = []
            seen = {start: 0}
            cur = start
            while absorb.get(cur, 0) == 0:
                eid = next_edge(cur)
                rem[eid] -= 1
                nxt = g.head(eid)
                if nxt in seen:
                    # One unit around this cycle is already removed; drop
                    # any further copies, then resume from the junction.
                    k = seen[nxt]
                    cyc_edges = epath[k:] + [eid]
                    extra = min(rem[e] for e in cyc_edges)
                    if extra:
                        for e in cyc_edges:
                            rem[e] -= extra
                    for v in vpath[k + 1:]:
                        del seen[v]
                    del vpath[k + 1:]
                    del epath[k:]
                    cur = nxt
                else:
                    epath.append(eid)
                    vpath.append(nxt)
                    seen[nxt] = len(vpath) - 1
                    cur = nxt
            absorb[cur] -= 1
            inject[start] -= 1
            paths.append(FlowPath(tuple(vpath), tuple(epath)))
    if len(paths) != result.value:
        raise InternalError(
            f"decomposed {len(paths)} paths for a flow of value {result.value}"
        )
    return paths

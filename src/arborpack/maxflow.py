"""Exact integral max-flow with multi-source/multi-sink boundaries.

The solver is Dinic's algorithm over a residual network that attaches a
virtual super-source and super-sink for the per-vertex supply and
sink-capacity functions. Virtual vertices are never visible to callers:
`min_cut_side` is always a set of real vertices (those unreachable from
the super-source in the final residual graph).

`_dinic` runs the phases, for `max_flow` from the super-source and for
`first_min_sink` from the super-source and a growing set of real
sources. Each phase labels vertices by their distance to the sink, with
one backward BFS that stops at the first source it labels. The blocking flow
then walks from that source along current-arc pointers and takes only
arcs whose head is one step closer to the sink, so every walk reaches
the sink unless arcs saturated earlier in the phase. After an
augmentation the walk resumes at the tail of the first saturated arc.
These are the arcs a source-side level graph offers minus its dead ends,
so the augmenting paths and their order are those of the textbook
forward labelling. The caller owns the label and current-arc arrays
(one pair per `max_flow` call or per sweep), and a phase resets just
the vertices its search labelled: it costs their arcs, not n.

Before its phases, `max_flow` makes the augmentations of the first two,
the phases of 2-arc paths (source, v, sink) and 3-arc paths (source, u,
w, sink), in one scan of the supply vertices and their arcs with no
search (`_short_paths`). They are the same augmentations in the same
order, so every result equals plain Dinic's; a flow that one-edge paths
can carry up to its bound runs no search at all.

Every arc a call can use is built once per graph, at its first flow
(`_residual_arcs`, kept in the graph's `memo`): the two arcs of each
edge, and a supply and a sink arc pair for each vertex at fixed ids,
with capacity 0. Every call shares the `head` tuple. A call copies the
capacity template the graph keeps for its `capacity_scale`, writes its
supplies and sink capacities into it, and gives edges outside
`edge_filter` capacity 0 both ways. Only the arc lists of vertices that
get a supply or sink arc are extended. The blocking-flow search keeps an
explicit stack, so path length is not bounded by Python's recursion
limit.

`first_min_sink` sweeps a sequence of sinks over one residual network,
after Hao and Orlin ("A faster algorithm for finding the minimum cut in
a directed graph", J. Algorithms 1994). Sink t_i takes flow from the
super-source and from every earlier sink, until the flow reaches the
least value found so far or no path is left; then t_i joins the
sources. Every kept flow starts and ends in S_i = {super-source, t_1,
..., t_{i-1}}, so for every X containing S_i the residual capacity
leaving X is its capacity in the problem: run i adds exactly
lambda(S_i, t_i), capped at the least value so far. As lambda(S_i, t_i)
>= lambda(S_1, t_i), the sweep's least value is the least of the
separate flows super-source -> t_i, and the first sink t* that attains
it there attains it in the sweep: a minimum cut for t* whose sink side
held an earlier sink t_j would give t_j a value no larger, so none
does, and the run of t* adds exactly the least value.

An optional `flow_bound` stops augmentation as soon as the flow reaches
it. Such a run skips the final residual search, and its `min_cut_side`
is None. Any other run (no bound, or `value < flow_bound`) is a genuine
maximum flow: one forward search over the final residual graph gives
its `min_cut_side`, a genuine minimum cut.

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

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .errors import InternalError, ParameterError
from .graphcore import DirectedGraph, EdgeSet

__all__ = [
    "FlowProblem",
    "FlowResult",
    "FlowPath",
    "max_flow",
    "first_min_sink",
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
    the flow consumed. `min_cut_side` is None exactly when the value
    reached `flow_bound`: the run then stopped without a cut.
    """

    value: int
    flow: list = field(repr=False)
    min_cut_side: frozenset | None
    source_used: dict = field(repr=False)
    sink_used: dict = field(repr=False)


def max_flow(problem: FlowProblem) -> FlowResult:
    """Exact integral maximum flow, optionally capped at `flow_bound`."""
    n = problem.graph.n
    source, sink = n, n + 1
    head, cap, adj, supply_arc, sink_arc = _residual_network(problem)
    bound = problem.flow_bound
    limit = sum(problem.source_supply.values())
    if bound is not None:
        limit = min(limit, bound)

    flow_total = _short_paths(adj, head, cap, supply_arc, 2 * problem.graph.m, limit)
    is_source = [False] * n + [True, False]
    dist, it = [-1] * (n + 2), [0] * (n + 2)
    flow_total += _dinic(adj, head, cap, is_source, sink, limit - flow_total, dist, it)
    cut_side = None if flow_total == bound else _unreached(adj, head, cap, source, n)

    # The reverse arc of an edge (or of a supply or sink arc) holds the
    # flow on it.
    return FlowResult(
        value=flow_total,
        flow=cap[1 : 2 * problem.graph.m : 2],
        min_cut_side=cut_side,
        source_used={v: cap[a ^ 1] for v, a in supply_arc.items()},
        sink_used={v: cap[a ^ 1] for v, a in sink_arc.items()},
    )


def first_min_sink(problem: FlowProblem, sinks: Sequence[int], bound: int) -> tuple[int, int]:
    """The least max-flow value below `bound` from the problem's supplies
    into one of `sinks`, and the first sink that reaches it; `(bound,
    -1)` when no sink goes below `bound`.

    One sweep over one residual network (see the module docstring); a
    repeated sink already joined the sources and is skipped. The problem
    must have no sink capacities and no `flow_bound`.
    """
    n = problem.graph.n
    if problem.sink_capacity or problem.flow_bound is not None:
        raise ParameterError("a sink sweep takes no sink capacities and no flow bound")
    for t in sinks:
        if not 0 <= t < n:
            raise ParameterError(f"sink vertex {t} out of range")
    best, first = bound, -1
    if best <= 0:
        return best, first
    head, cap, adj, _supply_arc, _sink_arc = _residual_network(problem)
    is_source = [False] * n + [True, False]
    dist, it = [-1] * (n + 2), [0] * (n + 2)
    for t in sinks:
        if is_source[t]:
            continue
        flow = _dinic(adj, head, cap, is_source, t, best, dist, it)
        if flow < best:
            best, first = flow, t
            if not best:
                break
        is_source[t] = True
    return best, first


def _residual_arcs(g: DirectedGraph, scale: int):
    """`(head, cap, adj)`: every arc a flow on g can use, with edge
    capacities times `scale`, built at the first flow at that scale and
    kept in `g.memo`.

    The super-source is n and the super-sink n + 1. Arc 2e runs along
    edge e with capacity c(e) * scale; arc 2e+1 runs back with capacity
    0. Each vertex v then has four arcs at fixed ids: 2m+4v runs from the
    super-source to v and 2m+4v+2 from v to the super-sink, each followed
    by its partner. These have capacity 0 here; a run writes its supplies
    and sinks into its own copy of `cap`. `adj[v]` lists the edge arcs
    leaving v in edge-id order. Every scale shares the `head` and `adj`
    of scale 1, and nothing changes them.
    """
    key = ("residual", scale)
    arcs = g.memo.get(key)
    if arcs is None and scale != 1:
        head, cap, adj = _residual_arcs(g, 1)
        arcs = g.memo[key] = (head, tuple([c * scale for c in cap]), adj)
    elif arcs is None:
        n = g.n
        head, cap = [], []
        adj = [[] for _ in range(n)]
        for eid, (u, v, c) in enumerate(g.edges):
            head += (v, u)
            cap += (c, 0)
            adj[u].append(2 * eid)
            adj[v].append(2 * eid + 1)
        # From 2m + 4v: source -> v, v -> source, v -> sink, sink -> v.
        virtual = [n] * (4 * n)
        virtual[0::4] = virtual[3::4] = range(n)
        virtual[2::4] = [n + 1] * n
        head += virtual
        cap += [0] * (4 * n)
        arcs = g.memo[key] = (tuple(head), tuple(cap), tuple(map(tuple, adj)))
    return arcs


def _residual_network(problem: FlowProblem):
    """The residual network of a fresh run: `(head, cap, adj, supply_arc,
    sink_arc)`, with the super-source at n and the super-sink at n + 1.
    `head` is the graph's shared tuple (`_residual_arcs`); `cap` and
    `adj` are this run's own. `supply_arc[v]` and `sink_arc[v]` are the
    forward arcs of v's supply and sink; each arc's partner `a ^ 1` runs
    the other way."""
    g = problem.graph
    head, template, base_adj = _residual_arcs(g, problem.capacity_scale)
    allowed = problem.edge_filter
    if allowed is None:
        cap = list(template)
    else:
        cap = [0] * len(template)
        for eid in allowed:
            cap[2 * eid] = template[2 * eid]

    # Supply arcs leave the source and sink arcs enter the sink. A real
    # vertex lists its own after its real arcs, supply before sink.
    first = 2 * g.m
    adj = list(base_adj)
    supply_arc: dict[int, int] = {}
    for v in sorted(problem.source_supply):
        amt = problem.source_supply[v]
        if amt > 0:
            supply_arc[v] = a = first + 4 * v
            cap[a] = amt
            adj[v] = base_adj[v] + (a + 1,)
    sink_arc: dict[int, int] = {}
    for v in sorted(problem.sink_capacity):
        amt = problem.sink_capacity[v]
        if amt > 0:
            sink_arc[v] = a = first + 4 * v + 2
            cap[a] = amt
            adj[v] += (a,)
    adj.append(tuple(supply_arc.values()))
    adj.append(tuple(a + 1 for a in sink_arc.values()))
    return head, cap, adj, supply_arc, sink_arc


def _short_paths(adj, head, cap, supply_arc, first: int, limit: int) -> int:
    """Dinic's phases of 2-arc and 3-arc paths from the super-source,
    without their BFS; returns the flow added, at most `limit`.

    The 2-arc phase pushes source -> v -> sink for each v with supply
    and sink capacity, in ascending v. After it no vertex has both
    left, so the 3-arc phase's level graph is source -> u -> w -> sink
    over edge arcs u -> w into vertices with sink capacity. Its blocking
    flow takes each u with supply left in ascending order and its arcs
    in `adj[u]` order, and moves on past an arc once the arc or w's sink
    is saturated, and to the next u once u's supply is. These are the augmentations `_blocking_flow` makes in
    those phases, in the same order, so `_dinic` continues from the
    first phase of 4 or more arcs with the same residual network. The
    sink arc of a vertex w is `first + 4 * w + 2`, as `_residual_arcs`
    lays them out.
    """
    room = limit
    for v, a in supply_arc.items():
        t = first + 4 * v + 2
        d = min(cap[a], cap[t], room)
        if d > 0:
            cap[a] -= d
            cap[a + 1] += d
            cap[t] -= d
            cap[t + 1] += d
            room -= d
    for u, a in supply_arc.items():
        if not room:
            break
        left = cap[a]
        if not left:
            continue
        for b in adj[u]:
            if b >= first:
                break  # u's supply and sink arcs follow its edge arcs
            c = cap[b]
            if c:
                t = first + 4 * head[b] + 2
                d = cap[t]
                if d:
                    if c < d:
                        d = c
                    if left < d:
                        d = left
                    if room < d:
                        d = room
                    cap[b] = c - d
                    cap[b ^ 1] += d
                    cap[t] -= d
                    cap[t + 1] += d
                    left -= d
                    room -= d
                    if not left or not room:
                        break
        cap[a + 1] += cap[a] - left
        cap[a] = left
    return limit - room


def _dinic(adj, head, cap, is_source, sink: int, limit: int, dist, it) -> int:
    """Augment from the `is_source` vertices into `sink`, phase by phase,
    up to `limit`; returns the flow added. The caller owns `dist` and `it`,
    all -1 and all 0 on entry and on return: a phase resets what it labels."""
    flow = start = 0
    while flow < limit and start >= 0:
        labelled, start = _distances_to_sink(adj, head, cap, is_source, sink, dist)
        if start >= 0:
            flow += _blocking_flow(adj, head, cap, dist, it, start, sink, limit - flow)
        for v in labelled:
            dist[v], it[v] = -1, 0
    return flow


def _distances_to_sink(adj, head, cap, is_source, sink: int, dist) -> tuple[list[int], int]:
    """BFS distances to `sink` over arcs with residual capacity, written
    into `dist` (-1 marks a vertex not reached); returns the labelled
    vertices in search order, sink first, and the first of them with
    `is_source[v]` true (-1 if none is reached), which ends the list. The
    search runs backwards: an arc b leaving w has a partner b ^ 1 that
    enters w from head[b]. It ends as soon as it labels a source: no
    vertex at that distance or beyond lies on a shortest path from it."""
    dist[sink] = 0
    queue = [sink]
    for w in queue:  # also visits the vertices appended below
        nxt = dist[w] + 1
        for b in adj[w]:
            v = head[b]
            if dist[v] < 0 and cap[b ^ 1] > 0:
                dist[v] = nxt
                queue.append(v)
                if is_source[v]:
                    return queue, v
    return queue, -1


def _unreached(adj, head, cap, source: int, n: int) -> frozenset:
    """The real vertices (ids below n) that `source` does not reach over
    arcs with residual capacity."""
    seen = [False] * len(adj)
    seen[source] = True
    stack = [source]
    while stack:
        u = stack.pop()
        for a in adj[u]:
            w = head[a]
            if not seen[w] and cap[a] > 0:
                seen[w] = True
                stack.append(w)
    return frozenset([v for v in range(n) if not seen[v]])


def _blocking_flow(adj, head, cap, dist, it, source: int, sink: int, limit: int) -> int:
    """Augment along shortest paths until none is left or `limit` is met.

    An explicit stack of arcs walks from the source along each vertex's
    current arc (`it`), taking only arcs whose head is one step closer to
    the sink. At the start of the phase every such walk ends at the sink;
    a vertex whose arcs have all saturated since is dead for the rest of
    the phase (distance -1). After an augmentation the walk resumes at
    the tail of the first saturated arc: the current arcs before it are
    unchanged, so paths are found in the order of a recursive search.
    As the walk enters only labelled vertices, it advances `it[u]` or
    marks u dead only where the phase's search labelled u.
    """
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
        k = len(arcs)
        want = dist[u] - 1
        while i < k:
            a = arcs[i]
            if cap[a] > 0 and dist[head[a]] == want:
                break
            i += 1
        it[u] = i
        if i < k:
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

    Checks capacity bounds, conservation and usage budgets, value
    accounting, that only a value at `flow_bound` comes without a cut
    side, and for a cut side T the min-cut identity
    value == supply(T) + c(crossing into T) + sink(V - T). Conservation
    and budgets can fail only where flow or a supply, sink or usage entry
    is, so only those vertices are checked, in ascending order.
    """
    g = problem.graph
    scale = problem.capacity_scale
    allowed = problem.edge_filter
    supply, sink = problem.source_supply, problem.sink_capacity
    net: dict[int, int] = {}  # flow in minus flow out
    for eid, f in enumerate(result.flow):
        u, v, c = g.edges[eid]
        if f and allowed is not None and eid not in allowed:
            raise InternalError(f"flow on filtered-out edge {eid}")
        if not 0 <= f <= c * scale:
            raise InternalError(f"edge {eid}: flow {f} outside [0, {c * scale}]")
        if f:
            net[u] = net.get(u, 0) - f
            net[v] = net.get(v, 0) + f
    touched = set(net).union(supply, sink, result.source_used, result.sink_used)
    for v in sorted(touched):
        src = result.source_used.get(v, 0)
        snk = result.sink_used.get(v, 0)
        if src > supply.get(v, 0) or snk > sink.get(v, 0):
            raise InternalError(f"vertex {v}: virtual usage exceeds its budget")
        if net.get(v, 0) + src != snk:
            raise InternalError(f"vertex {v}: conservation violated")
    if sum(result.source_used.values()) != result.value:
        raise InternalError("value does not match total supply used")
    if sum(result.sink_used.values()) != result.value:
        raise InternalError("value does not match total sink usage")
    t_side = result.min_cut_side
    if t_side is None:
        if result.value != problem.flow_bound:
            raise InternalError(f"flow of value {result.value} below its bound has no cut side")
    else:
        crossing = 0
        for eid in range(g.m) if allowed is None else allowed:
            u, v, c = g.edges[eid]
            if u not in t_side and v in t_side:
                crossing += c * scale
        cut = (
            sum(a for v, a in supply.items() if v in t_side)
            + crossing
            + sum(a for v, a in sink.items() if v not in t_side)
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

    # Each tail's edges that carry flow, in ascending id (as `rem` is).
    out_sorted: dict[int, list[int]] = {}
    for eid in rem:
        out_sorted.setdefault(g.tail(eid), []).append(eid)
    out_ptr = dict.fromkeys(out_sorted, 0)

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

"""Exact integral max-flow with multi-source/multi-sink boundaries.

The solvers work over a residual network that attaches a virtual
super-source and super-sink for the per-vertex supply and sink-capacity
functions. Virtual vertices are never visible to callers: `min_cut_side`
is always a set of real vertices (those unreachable from the
super-source in the final residual graph).

`max_flow` runs Dinic's short phases, then search trees. First it makes
the augmentations of Dinic's phases of 2-arc paths (source, v, sink),
3-arc paths (source, u, w, sink) and 4-arc paths (source, u, x, w,
sink), in the same order, by scanning the supply vertices and their
arcs, with no search (`_short_paths`): each of these level graphs
follows from which vertices have supply and sink capacity left. A flow
that one-edge paths can carry up to its bound stops after the 3-arc
phase. A flow still below its limit after the 4-arc phase is finished
with the two search trees of Boykov and Kolmogorov ("An experimental
comparison of min-cut/max-flow algorithms for energy minimization in
vision", IEEE TPAMI 26(9), 2004; `_search_trees`), one grown from the
super-source and one into the super-sink. The trees are kept from one
augmentation to the next, so a flow made of many augmenting paths of
different lengths pays for its search about once, not once per phase.
Every maximum flow leaves the same vertices unreachable from the
super-source, so `value` and `min_cut_side` equal plain Dinic's; the
flow itself equals Dinic's up to the end of the 4-arc phase, and need
not after it.

`first_min_sink` augments along shortest paths, one search per path
(Edmonds and Karp, "Theoretical improvements in algorithmic efficiency
for network flow problems", JACM 19(2), 1972). The search
(`_path_to_sink`) is a backward BFS from the sink over arcs with
residual capacity that stops at the first source it labels, and the arc
it records at each labelled vertex, one step closer to the sink, spells
the path. A sweep allocates one list of those arcs and one list of
stamps, each vertex stamped with the number of the last search that
labelled it, so no search resets anything: it costs the arcs of the
vertices it labels, not n.

Every arc a call can use is built once per graph, at its first flow
(`_residual_arcs`, kept in the graph's `memo`): the two arcs of each
edge, and a supply and a sink arc pair for each vertex at fixed ids,
with capacity 0. Every call shares the `head` tuple. A call copies the
capacity template the graph keeps for its `capacity_scale`, writes its
supplies and sink capacities into it, and gives edges outside
`edge_filter` capacity 0 both ways. Only the arc lists of vertices that
get a supply or sink arc are extended. Every search keeps an explicit
queue, so path length is not bounded by Python's recursion limit.

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
it, and such a run's `min_cut_side` is None. Any other run is a genuine
maximum flow, and its `min_cut_side` is read off the flow with no
further search: every real vertex when all supply is used, and else
those outside the source tree the search trees leave (`_search_trees`).

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
    """Exact integral maximum flow, optionally capped at `flow_bound`.

    Dinic's 2-, 3- and 4-arc phases by scanning (`_short_paths`), then
    the search trees, whose source tree gives the cut side; the value
    and the cut side are plain Dinic's.
    """
    g = problem.graph
    n = g.n
    source, sink = n, n + 1
    head, cap, adj, supply_arc, sink_arc = _residual_network(problem)
    bound = problem.flow_bound
    limit = sum(problem.source_supply.values())
    if bound is not None:
        limit = min(limit, bound)

    edge_arcs = _residual_arcs(g, 1)[2]
    flow_total = _short_paths(edge_arcs, head, cap, supply_arc, sink_arc, 2 * g.m, limit)
    if flow_total < limit:
        tree = [0] * len(adj)
        flow_total += _search_trees(adj, head, cap, tree, source, sink, limit - flow_total)
    if flow_total == bound:
        cut_side = None
    elif flow_total == limit:  # the super-source's arcs are all saturated
        cut_side = frozenset(range(n))
    else:
        cut_side = frozenset([v for v in range(n) if tree[v] <= 0])

    # The reverse arc of an edge (or of a supply or sink arc) holds the
    # flow on it.
    return FlowResult(
        value=flow_total,
        flow=cap[1 : 2 * g.m : 2],
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
    via, stamp = [0] * (n + 2), [0] * (n + 2)
    search = 0
    for t in sinks:
        if is_source[t]:
            continue
        flow = 0
        while flow < best:
            search += 1
            v = _path_to_sink(adj, head, cap, is_source, t, via, stamp, search)[1]
            if v < 0:
                break
            start, d = v, best - flow
            while v != t:
                a = via[v]
                if cap[a] < d:
                    d = cap[a]
                v = head[a]
            v = start
            while v != t:
                a = via[v]
                cap[a] -= d
                cap[a ^ 1] += d
                v = head[a]
            flow += d
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


def _short_paths(edge_arcs, head, cap, supply_arc, sink_arc, first: int, limit: int) -> int:
    """Dinic's phases of 2-arc, 3-arc and 4-arc paths from the
    super-source, without their BFS; returns the flow added, at most
    `limit`. `edge_arcs[v]` lists the edge arcs leaving v, as the `adj`
    of `_residual_arcs`, and the sink arc of a vertex w is
    `first + 4 * w + 2`, as it lays them out.

    The 2-arc phase pushes source -> v -> sink for each v with supply
    and sink capacity, in ascending v. After it no vertex has both
    left, so the 3-arc phase's level graph is source -> u -> w -> sink
    over edge arcs u -> w into vertices with sink capacity. Its blocking
    flow takes each u with supply left in ascending order and its arcs
    in `edge_arcs[u]` order, and moves on past an arc once the arc or
    w's sink is saturated, and to the next u once u's supply is. The
    4-arc phase follows (`_four_arc_paths`). Each phase makes the
    augmentations of a blocking flow over its level graph, in the same
    order as `_blocking_flow`, so the network left is the one Dinic's
    phases of at most 4 arcs leave. One list, `room_at`, holds each
    vertex's sink capacity left through the 3-arc and 4-arc phases.
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
    if not room:
        return limit
    room_at = [0] * len(edge_arcs)
    for v, t in sink_arc.items():
        room_at[v] = cap[t]
    for u, a in supply_arc.items():
        left = cap[a]
        if not left:
            continue
        for b in edge_arcs[u]:
            c = cap[b]
            if c:
                w = head[b]
                r = room_at[w]
                if r:
                    d = c if c < r else r
                    if left < d:
                        d = left
                    if room < d:
                        d = room
                    cap[b] = c - d
                    cap[b ^ 1] += d
                    t = first + 4 * w + 2
                    cap[t] -= d
                    cap[t + 1] += d
                    room_at[w] = r - d
                    left -= d
                    room -= d
                    if not left or not room:
                        break
        cap[a + 1] += cap[a] - left
        cap[a] = left
        if not room:
            return limit
    return limit - _four_arc_paths(edge_arcs, head, cap, supply_arc, room_at, first, room)


def _four_arc_paths(edge_arcs, head, cap, supply_arc, room_at, first: int, room: int) -> int:
    """Dinic's phase of 4-arc paths source -> u -> x -> w -> sink, right
    after the shorter phases of `_short_paths`; returns what is left of
    `room`, the flow still allowed.

    Its level graph needs no search. The vertices with supply left are
    at level 1, and after the 3-arc phase none of them has sink capacity
    left or an open arc into a vertex that has. So the vertices with
    sink capacity at the start, `room_at[w] > 0`, are at level 3, and
    any other vertex that an open edge arc from level 1 enters is at
    level 2. The phase turns `room_at` into each vertex's state: the
    sink capacity left at a level-3 vertex w, 0 at a vertex that may
    serve as a middle vertex x, and -1 at a vertex that may not. That
    is a level-1 vertex, a level-3 vertex once its sink fills, and a
    middle vertex with no arc left. The blocking flow takes each u with
    supply left in ascending order and its arcs in `edge_arcs[u]` order;
    each x walks its arcs from a current arc kept for this phase, and
    takes x -> w while w's sink has room. Each path carries its
    bottleneck, and the walk resumes at the first arc or sink it
    saturated: where the walk of `tests/test_maxflow.py::reference_phases`,
    which restarts at the source along its current arcs, arrives next.
    """
    for v, a in supply_arc.items():
        if cap[a]:
            room_at[v] = -1
    current: dict[int, int] = {}
    for u, a in supply_arc.items():
        left = cap[a]
        if not left:
            continue
        for b in edge_arcs[u]:
            c = cap[b]
            if not c:
                continue
            x = head[b]
            if room_at[x]:
                continue
            arcs = edge_arcs[x]
            for i in range(current.get(x, 0), len(arcs)):
                e = arcs[i]
                ce = cap[e]
                if ce:
                    w = head[e]
                    r = room_at[w]
                    if r > 0:
                        d = c if c < ce else ce
                        if r < d:
                            d = r
                        if left < d:
                            d = left
                        if room < d:
                            d = room
                        cap[b] = c = c - d
                        cap[b ^ 1] += d
                        cap[e] = ce - d
                        cap[e ^ 1] += d
                        t = first + 4 * w + 2
                        cap[t] -= d
                        cap[t + 1] += d
                        room_at[w] = r - d or -1
                        left -= d
                        room -= d
                        if not c or not left or not room:
                            current[x] = i
                            break
            else:
                room_at[x] = -1
            if not left or not room:
                break
        cap[a + 1] += cap[a] - left
        cap[a] = left
        if not room:
            break
    return room


def _path_to_sink(
    adj, head, cap, is_source, sink: int, via, stamp, search: int
) -> tuple[list[int], int]:
    """A shortest path over arcs with residual capacity from an
    `is_source` vertex into `sink`; returns the labelled vertices in
    search order, sink first, and the path's source (-1 if none is
    reached), which ends the list.

    The BFS runs backwards: an arc b leaving w has a partner b ^ 1 that
    enters w from head[b]. It stamps each vertex it labels with `search`,
    which no vertex holds on entry, and sets `via[v]` to v's arc one step
    closer to the sink; it ends as soon as it labels a source, and the
    path follows `via` from that source."""
    stamp[sink] = search
    queue = [sink]
    for w in queue:  # also visits the vertices appended below
        for b in adj[w]:
            v = head[b]
            if stamp[v] != search and cap[b ^ 1] > 0:
                stamp[v] = search
                via[v] = b ^ 1
                queue.append(v)
                if is_source[v]:
                    return queue, v
    return queue, -1


_ROOT, _ORPHAN = -1, -2


def _search_trees(adj, head, cap, tree, source: int, sink: int, limit: int) -> int:
    """Augment from `source` into `sink` up to `limit` with Boykov and
    Kolmogorov's two search trees; returns the flow added.

    The source tree (side 1) holds vertices the source reaches over arcs
    with residual capacity, the sink tree (side -1) vertices that reach
    the sink. `parent[v]` is the arc of `adj[v]` whose head is v's tree
    parent: the flow on a tree path runs along its partner in the source
    tree and along it in the sink tree. Active vertices are grown in FIFO
    order, scanning their arcs in `adj` order; a free vertex joins the
    tree of the first active vertex that reaches it, and an arc from the
    source tree into the sink tree closes a path, which carries its
    bottleneck. A vertex whose parent arc saturates is an orphan. It
    re-attaches to the first neighbour in its tree, in `adj` order, with
    residual capacity on the joining arc and a tree path to the root,
    found by walking up to the root, an orphan, or a vertex already found
    to reach the root since the augmentation (`stamp`). Failing that, it
    leaves its tree: its children there become orphans, and its
    neighbours there that have residual capacity to it (from it, in the
    sink tree) become active again. The growth goes on from the active
    vertex that closed the path, with its arcs scanned from the first.
    With no active vertex left the flow is maximum.

    The caller owns `tree`, zeros for the vertices of `adj`. When the
    call ends below `limit`, the source tree (`tree[v] > 0`) is what the
    source reaches over residual arcs: a scanned vertex has no residual
    arc out of the tree (it would adopt a free head, or meet the sink
    tree and stay active), an augmentation opens only arcs within a tree
    and the meeting arc's reverse, into the source tree, and a vertex
    leaving a tree reactivates each neighbour there with residual
    capacity into it.
    """
    size = len(adj)
    parent = [_ROOT] * size
    stamp = [0] * size
    active = [False] * size
    tree[source], tree[sink] = 1, -1
    active[source] = active[sink] = True
    queue = [source, sink]
    flow = qi = time = 0
    while qi < len(queue):
        p = queue[qi]
        side = tree[p]
        meet = -1
        if side > 0:
            for a in adj[p]:
                if cap[a]:
                    q = head[a]
                    t = tree[q]
                    if not t:
                        tree[q] = 1
                        parent[q] = a ^ 1
                        if not active[q]:
                            active[q] = True
                            queue.append(q)
                    elif t < 0:
                        meet, x, y = a, p, q
                        break
        elif side < 0:
            for a in adj[p]:
                b = a ^ 1
                if cap[b]:
                    q = head[a]
                    t = tree[q]
                    if not t:
                        tree[q] = -1
                        parent[q] = b
                        if not active[q]:
                            active[q] = True
                            queue.append(q)
                    elif t > 0:
                        meet, x, y = b, q, p
                        break
        if meet < 0:
            active[p] = False
            qi += 1
            continue

        # Carry the bottleneck along source -> x -> y -> sink.
        d = limit - flow
        if cap[meet] < d:
            d = cap[meet]
        v = x
        while v != source:
            b = parent[v]
            if cap[b ^ 1] < d:
                d = cap[b ^ 1]
            v = head[b]
        v = y
        while v != sink:
            b = parent[v]
            if cap[b] < d:
                d = cap[b]
            v = head[b]
        cap[meet] -= d
        cap[meet ^ 1] += d
        orphans = []
        v = x
        while v != source:
            b = parent[v]
            cap[b] += d
            cap[b ^ 1] -= d
            if not cap[b ^ 1]:
                parent[v] = _ORPHAN
                orphans.append(v)
            v = head[b]
        v = y
        while v != sink:
            b = parent[v]
            cap[b] -= d
            cap[b ^ 1] += d
            if not cap[b]:
                parent[v] = _ORPHAN
                orphans.append(v)
            v = head[b]
        flow += d
        if flow == limit:
            return flow

        time += 1
        for o in orphans:  # also visits the orphans appended below
            side = tree[o]
            for a in adj[o]:
                q = head[a]
                if tree[q] != side or not cap[a ^ 1 if side > 0 else a]:
                    continue
                v = q
                while stamp[v] != time:
                    b = parent[v]
                    if b < 0:
                        break
                    v = head[b]
                if parent[v] == _ORPHAN:
                    continue
                while stamp[q] != time:
                    stamp[q] = time
                    b = parent[q]
                    if b < 0:
                        break
                    q = head[b]
                parent[o] = a
                stamp[o] = time
                break
            else:
                tree[o] = 0
                for a in adj[o]:
                    q = head[a]
                    if tree[q] != side:
                        continue
                    if parent[q] == a ^ 1:
                        parent[q] = _ORPHAN
                        orphans.append(q)
                    if cap[a ^ 1 if side > 0 else a] and not active[q]:
                        active[q] = True
                        queue.append(q)
    return flow


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

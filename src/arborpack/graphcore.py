"""Directed multigraph core: normalized graphs, SCCs, cuts, degrees.

Everything in this package runs on `DirectedGraph`: an immutable weighted
multigraph with dense vertex ids 0..n-1 and a distinguished source vertex
that has no incoming edges after normalization. Parallel edges are kept
as distinct edge occurrences (edge ids index into `edges`) because the
packing algorithms assign per-edge state; self-loops are dropped because
they can affect neither a cut nor an arborescence.

All functions here are pure; a constructed graph is safe to share across
concurrent readers.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Sequence

from .errors import InputError, InternalError

VertexId = int
EdgeId = int
Edge = tuple[int, int, int]
EdgeSet = frozenset  # frozenset[EdgeId]

#: Reject capacities above this bound so 64-bit accumulation cannot
#: overflow even when summed over every edge of a desk-scale graph.
MAX_CAPACITY = 1 << 40

#: Reject vertex counts above this bound: a graph allocates several
#: n-entry tables before it reads an edge, and the algorithms here are
#: meant for graphs far smaller.
MAX_VERTICES = 1 << 20

#: Reject edge counts above this bound: a graph keeps an edge triple and
#: eight table entries per edge, so 2^24 edges already fill gigabytes.
MAX_EDGES = 1 << 24


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable weighted directed multigraph.

    `edges[e] = (tail, head, capacity)`.

    `memo` keeps what is derived from the graph once: its own SCC
    partition, `sccs` (that is, `scc(g)`), and the residual network that
    `maxflow` builds for its flows. Each entry is built at its first use,
    so a graph that needs none builds none; two readers that race to
    build one build equal values.
    """

    n: int
    edges: tuple[Edge, ...]
    source: int
    _out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _in: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v, _c) in enumerate(self.edges):
            out[u].append(eid)
            inc[v].append(eid)
        object.__setattr__(self, "_out", tuple(tuple(a) for a in out))
        object.__setattr__(self, "_in", tuple(tuple(a) for a in inc))
        # Not `functools.cached_property`: it writes through `__dict__`,
        # after which CPython 3.11 and 3.12 read every attribute of the
        # graph (`n`, `edges`) about 1.7 times slower. Filling a dict
        # field adds no attribute.
        object.__setattr__(self, "memo", {})

    @property
    def sccs(self) -> Partition:
        """The strongly connected components of the whole graph."""
        part = self.memo.get("sccs")
        if part is None:
            part = self.memo["sccs"] = _scc_partition(self, frozenset())
        return part

    @property
    def m(self) -> int:
        return len(self.edges)

    def tail(self, e: EdgeId) -> VertexId:
        return self.edges[e][0]

    def head(self, e: EdgeId) -> VertexId:
        return self.edges[e][1]

    def capacity(self, e: EdgeId) -> int:
        return self.edges[e][2]

    def out_edges(self, v: VertexId) -> tuple[int, ...]:
        """Edge ids leaving v, in ascending id order."""
        return self._out[v]

    def in_edges(self, v: VertexId) -> tuple[int, ...]:
        """Edge ids entering v, in ascending id order."""
        return self._in[v]

    def in_capacity(self, v: VertexId) -> int:
        return sum(self.edges[e][2] for e in self._in[v])

    def total_capacity(self) -> int:
        return sum(c for _, _, c in self.edges)

    def edge_capacity(self, eids: Iterable[EdgeId]) -> int:
        """Capacity sum c(F) over an edge set."""
        return sum(self.edges[e][2] for e in eids)

    def is_unit_capacity(self) -> bool:
        return all(c == 1 for _, _, c in self.edges)


def check_vertex_count(n: int) -> None:
    """Raise `InputError` for a vertex count above `MAX_VERTICES`."""
    if n > MAX_VERTICES:
        raise InputError(f"vertex count {n} exceeds bound 2^20")


def check_edge_count(m: int) -> None:
    """Raise `InputError` for an edge count above `MAX_EDGES`."""
    if m > MAX_EDGES:
        raise InputError(f"edge count {m} exceeds bound 2^24")


def normalize(raw_edges: Sequence[tuple[int, ...]], n: int, s: int) -> DirectedGraph:
    """Build a normalized `DirectedGraph` from raw (tail, head, capacity) triples.

    Drops self-loops and every edge whose head is the source; preserves
    the order of the surviving edges. Raises `InputError` for a vertex
    count outside 1..`MAX_VERTICES`, more than `MAX_EDGES` raw edges
    (counted before any is read), ids out of range, non-positive
    capacities, or capacities above `MAX_CAPACITY`.
    """
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    check_vertex_count(n)
    check_edge_count(len(raw_edges))
    if not 0 <= s < n:
        raise InputError(f"source {s} out of range for n={n}")
    kept: list[Edge] = []
    for idx, e in enumerate(raw_edges):
        u, v, c = e
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"edge {idx}: endpoint out of range: ({u}, {v})")
        if c < 1:
            raise InputError(f"edge {idx}: capacity must be >= 1, got {c}")
        if c > MAX_CAPACITY:
            raise InputError(f"edge {idx}: capacity {c} exceeds bound 2^40")
        if u == v or v == s:
            continue
        kept.append((u, v, c))
    return DirectedGraph(n=n, edges=tuple(kept), source=s)


@dataclass(frozen=True)
class Partition:
    """A partition of the vertex set into numbered components.

    Component numbering is deterministic: components are ordered by their
    smallest member vertex id.
    """

    comp_of: tuple[int, ...]
    components: tuple[frozenset, ...]

    def component(self, v: VertexId) -> frozenset:
        return self.components[self.comp_of[v]]


def _partition_from_groups(n: int, groups: Iterable[Iterable[int]]) -> Partition:
    ordered = sorted((frozenset(grp) for grp in groups), key=min)
    comp_of = [-1] * n
    for cid, comp in enumerate(ordered):
        for v in comp:
            comp_of[v] = cid
    if any(c < 0 for c in comp_of):
        raise InternalError("partition does not cover all vertices")
    return Partition(tuple(comp_of), tuple(ordered))


def scc(g: DirectedGraph, removed: EdgeSet = frozenset()) -> Partition:
    """Strongly connected components of g with `removed` edges deleted.

    Iterative Tarjan; component numbering by smallest member vertex id.
    With no edge removed this is the partition the graph keeps,
    `DirectedGraph.sccs`.
    """
    if not removed:
        return g.sccs
    return _scc_partition(g, removed)


def _scc_partition(g: DirectedGraph, removed: EdgeSet) -> Partition:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for eid, (u, v, _c) in enumerate(g.edges):
        if eid not in removed:
            adj[u].append(v)
    return _partition_from_groups(g.n, _tarjan(g.n, adj, range(g.n)))


def induced_sccs(g: DirectedGraph, vertices: frozenset, removed: EdgeSet) -> list[frozenset]:
    """Strongly connected components of the subgraph induced on `vertices`
    with `removed` edges deleted, ordered by smallest member.

    The pass reads only the edges leaving `vertices`, so splitting one
    component costs time in its own size, not in the graph's.
    """
    adj = {
        u: [v for eid in g.out_edges(u)
            if (v := g.edges[eid][1]) in vertices and eid not in removed]
        for u in vertices
    }
    return sorted(map(frozenset, _tarjan(g.n, adj, vertices)), key=min)


def _tarjan(n: int, adj, roots: Iterable[int]) -> list[list[int]]:
    """Tarjan's SCCs of the vertices reachable from `roots`, where
    `adj[v]` lists the heads of v's edges and vertex ids lie in 0..n-1.
    Components come out in Tarjan's order, each from its last vertex
    pushed to its root.

    The search keeps one frame per vertex on its path: the vertex, an
    iterator over the positions of `adj[v]` that resumes where the frame
    left off, and the height of the vertex stack when v was pushed. A
    frame whose iterator runs out is done; if v is its component's root,
    the component is the stack above that height. The iterator runs over
    `range`, not over `adj[v]`: a range iterator holds no object, so the
    garbage collector does not track it or its frame, while a deep search
    that holds list iterators hands each collection during it thousands
    of objects to promote, and brings the next full collection forward.
    """
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    groups: list[list[int]] = []
    counter = 0
    for root in roots:
        if index[root]:
            continue
        counter += 1
        index[root] = low[root] = counter
        on_stack[root] = True
        work = [(root, iter(range(len(adj[root]))), len(stack))]
        stack.append(root)
        while work:
            v, places, height = work[-1]
            heads = adj[v]
            for i in places:
                w = heads[i]
                if not index[w]:
                    counter += 1
                    index[w] = low[w] = counter
                    on_stack[w] = True
                    work.append((w, iter(range(len(adj[w]))), len(stack)))
                    stack.append(w)
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    comp = stack[height:]
                    del stack[height:]
                    for w in comp:
                        on_stack[w] = False
                    comp.reverse()
                    groups.append(comp)
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return groups


class CutValues(NamedTuple):
    delta: int
    rho: int


def cut_values(g: DirectedGraph, vertex_set: Iterable[int]) -> CutValues:
    """Capacity leaving (delta) and entering (rho) a vertex set.

    Only the edges at the vertices of the smaller of the set and its
    complement are read: an edge leaving one side enters the other. An
    id outside 0..n-1 names no vertex and adds nothing.
    """
    inside = set(vertex_set)
    if 2 * len(inside) <= g.n:
        return _crossing(g, inside)
    rho, delta = _crossing(g, {v for v in range(g.n) if v not in inside})
    return CutValues(delta, rho)


def _crossing(g: DirectedGraph, inside: set) -> CutValues:
    edges = g.edges
    delta = rho = 0
    for v in inside:
        if 0 <= v < g.n:
            for eid in g._out[v]:
                _u, w, c = edges[eid]
                if w not in inside:
                    delta += c
            for eid in g._in[v]:
                u, _w, c = edges[eid]
                if u not in inside:
                    rho += c
    return CutValues(delta, rho)


def restricted_degrees(g: DirectedGraph, edge_filter: Iterable[EdgeId]) -> list[int]:
    """Per-vertex degrees (in plus out) counting only capacities of edges
    in `edge_filter`."""
    deg = [0] * g.n
    for eid in edge_filter:
        u, v, c = g.edges[eid]
        deg[u] += c
        deg[v] += c
    return deg


def edges_within(g: DirectedGraph, vertices: Iterable[int]) -> EdgeSet:
    """Ids of edges with both ends in `vertices`; ids outside 0..n-1 add nothing."""
    inside = set(vertices)
    return frozenset(
        eid for u in inside if 0 <= u < g.n for eid in g._out[u] if g.edges[eid][1] in inside
    )


def reachable_from(g: DirectedGraph, start: VertexId) -> frozenset:
    """Vertices reachable from `start` along edges of g."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for eid in g.out_edges(u):
            v = g.head(eid)
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return frozenset(seen)

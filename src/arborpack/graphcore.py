"""Directed multigraph core: normalized graphs, SCCs, cuts, degree tables.

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
#: (head, cap, adj) of every residual arc a max-flow on a graph can use.
ResidualArcs = tuple[tuple[int, ...], tuple[int, ...], tuple[tuple[int, ...], ...]]

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

    `residual_arcs = (head, cap, adj)` holds every arc a max-flow on the
    graph can use, with the super-source at n and the super-sink at
    n + 1. Arc 2e runs along edge e with capacity c(e); arc 2e+1 runs
    back with capacity 0. Each vertex v then has four arcs at fixed ids:
    2m+4v runs from the super-source to v and 2m+4v+2 from v to the
    super-sink, each followed by its partner. These have capacity 0
    here; a flow writes its supplies and sinks into its own copy of
    `cap`. `head[a]` and `cap[a]` give an arc's head and unscaled
    capacity, and `adj[v]` lists the edge arcs leaving v in edge-id
    order. `scaled_capacities` gives `cap` times a scale and keeps the
    last scaled copy. Nothing changes `head` or `adj`. The arcs are
    built at their first use, so a graph that runs no flow never builds
    them; two readers that race to build them build equal tuples.

    `sccs` is the graph's own SCC partition, `scc(g)`, likewise built at
    its first use and kept.
    """

    n: int
    edges: tuple[Edge, ...]
    source: int
    _out: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _in: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _arcs: ResidualArcs | None = field(init=False, repr=False, compare=False)
    _scaled: tuple[int, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    _sccs: Partition | None = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        out: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v, _c) in enumerate(self.edges):
            out[u].append(eid)
            inc[v].append(eid)
        object.__setattr__(self, "_out", tuple(tuple(a) for a in out))
        object.__setattr__(self, "_in", tuple(tuple(a) for a in inc))
        # Filled in at first use, by `residual_arcs`, `scaled_capacities`
        # and `sccs`.
        object.__setattr__(self, "_arcs", None)
        object.__setattr__(self, "_scaled", (1, ()))
        object.__setattr__(self, "_sccs", None)

    @property
    def residual_arcs(self) -> ResidualArcs:
        """`(head, cap, adj)`, as the class docstring describes them."""
        arcs = self._arcs
        if arcs is None:
            n = self.n
            head: list[int] = []
            cap: list[int] = []
            adj: list[list[int]] = [[] for _ in range(n)]
            for eid, (u, v, c) in enumerate(self.edges):
                head += (v, u)
                cap += (c, 0)
                adj[u].append(2 * eid)
                adj[v].append(2 * eid + 1)
            # From 2m + 4v: source -> v, v -> source, v -> sink, sink -> v,
            # with the super-source at n and the super-sink at n + 1.
            virtual = [n] * (4 * n)
            virtual[0::4] = virtual[3::4] = range(n)
            virtual[2::4] = [n + 1] * n
            head += virtual
            cap += [0] * (4 * n)
            arcs = (tuple(head), tuple(cap), tuple(tuple(a) for a in adj))
            object.__setattr__(self, "_arcs", arcs)
        return arcs

    def scaled_capacities(self, scale: int) -> tuple[int, ...]:
        """The arc capacities of `residual_arcs` times `scale`.

        Scale 1 gives `cap` itself. The graph keeps the last other scaled
        copy, as one `(scale, caps)` pair replaced in one assignment, so
        flows at one scale share it and a concurrent reader never pairs a
        scale with another scale's copy.
        """
        if scale == 1:
            return self.residual_arcs[1]
        last, caps = self._scaled
        if last != scale:
            caps = tuple([c * scale for c in self.residual_arcs[1]])
            object.__setattr__(self, "_scaled", (scale, caps))
        return caps

    @property
    def sccs(self) -> Partition:
        """The strongly connected components of the whole graph."""
        part = self._sccs
        if part is None:
            part = _scc_partition(self, frozenset())
            object.__setattr__(self, "_sccs", part)
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
    count outside 1..`MAX_VERTICES`, ids out of range, non-positive
    capacities, or capacities above `MAX_CAPACITY`.
    """
    if n < 1:
        raise InputError(f"vertex count must be positive, got {n}")
    check_vertex_count(n)
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
    Components come out in Tarjan's order."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack: list[int] = []
    groups: list[list[int]] = []
    counter = 1
    for root in roots:
        if visited[root]:
            continue
        work: list[tuple[int, int]] = [(root, 0)]
        while work:
            v, ptr = work.pop()
            if ptr == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            while ptr < len(adj[v]):
                w = adj[v][ptr]
                if not visited[w]:
                    work.append((v, ptr + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
                ptr += 1
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                groups.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
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


@dataclass(frozen=True)
class DegreeTable:
    """Capacity-weighted in/out degrees restricted to an edge set."""

    in_deg: tuple[int, ...]
    out_deg: tuple[int, ...]

    def deg(self, v: VertexId) -> int:
        return self.in_deg[v] + self.out_deg[v]


def restricted_degrees(g: DirectedGraph, edge_filter: Iterable[EdgeId]) -> DegreeTable:
    """Per-vertex degrees counting only capacities of edges in `edge_filter`."""
    in_deg = [0] * g.n
    out_deg = [0] * g.n
    for eid in edge_filter:
        u, v, c = g.edges[eid]
        out_deg[u] += c
        in_deg[v] += c
    return DegreeTable(tuple(in_deg), tuple(out_deg))


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

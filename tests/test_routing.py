"""Demand routing: exactness, simplicity, congestion accounting, quality."""
import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack.errors import ParameterError, RoutingError
from arborpack.generators import gen_two_cliques_bridge
from arborpack.graphcore import DirectedGraph, normalize, scc
from arborpack.routing import (
    _LENGTH_EXP_CAP,
    _REROUTE_SWEEPS,
    Demand,
    RoutingOutcome,
    respecting_check,
    route,
)
from arborpack.seeds import derive_rng


def path_vertices(g: DirectedGraph, edges: tuple[int, ...]) -> tuple[int, ...]:
    """The vertices of a path given by its edge ids; asserts that each
    edge starts where the one before it ends."""
    vertices = [g.tail(edges[0])]
    for e in edges:
        assert g.tail(e) == vertices[-1], f"edge {e} does not continue {edges}"
        vertices.append(g.head(e))
    return tuple(vertices)


def reference_shortest_path(
    g: DirectedGraph, src: int, dst: int, loads: list[int]
) -> tuple[int, ...] | None:
    """The earlier Dijkstra, which reads the graph through its methods and
    recomputes each length from the load: the reference for `route`."""
    inf = float("inf")
    dist: list[float] = [inf] * g.n
    parent: list[int] = [-1] * g.n
    dist[src] = 0
    heap: list[tuple[int, int]] = [(0, src)]
    done = [False] * g.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dst:
            break
        for eid in g.out_edges(u):
            v = g.head(eid)
            if done[v]:
                continue
            nd = d + (1 << min(loads[eid], _LENGTH_EXP_CAP))
            if nd < dist[v]:
                dist[v] = nd
                parent[v] = eid
                heapq.heappush(heap, (nd, v))
    if dist[dst] == inf:
        return None
    edges: list[int] = []
    cur = dst
    while cur != src:
        eid = parent[cur]
        edges.append(eid)
        cur = g.tail(eid)
    edges.reverse()
    return tuple(edges)


def reference_route(g: DirectedGraph, demand: Demand, seed: int = 0) -> RoutingOutcome:
    """The earlier routing loop over `reference_shortest_path`."""
    npairs = len(demand.pairs)
    loads = [0] * g.m
    paths_e: list[tuple[int, ...] | None] = [None] * npairs

    def place(idx: int) -> None:
        src, dst = demand.pairs[idx]
        es = reference_shortest_path(g, src, dst, loads)
        if es is None:
            raise RoutingError(f"no path from {src} to {dst} for demand pair {idx}")
        paths_e[idx] = es
        for e in es:
            loads[e] += 1

    order = list(range(npairs))
    derive_rng(seed, "route-order").shuffle(order)
    for idx in order:
        place(idx)

    for _sweep in range(_REROUTE_SWEEPS):
        congestion = max(loads, default=0)
        if congestion <= 1:
            break
        hot = {e for e, load in enumerate(loads) if load == congestion}
        victims = [i for i in range(npairs) if hot.intersection(paths_e[i])]
        if not victims:
            break
        for idx in victims:
            for e in paths_e[idx]:
                loads[e] -= 1
            place(idx)

    return RoutingOutcome(paths_edges=tuple(paths_e), congestion=max(loads, default=0))


def same_outcome(g: DirectedGraph, a: RoutingOutcome, b: RoutingOutcome) -> bool:
    def fields(out):
        vertices = [path_vertices(g, es) for es in out.paths_edges]
        return vertices, out.paths_edges, out.congestion

    return fields(a) == fields(b)


@st.composite
def routing_cases(draw):
    """A strongly connected multigraph on 1..n-1 fed by the source 0, and
    a seeded demand of pairs inside it."""
    n = draw(st.integers(3, 9))
    ring = draw(st.permutations(range(1, n)))
    raw = [(0, ring[0], 1)]
    raw += [(ring[i], ring[(i + 1) % len(ring)], 1) for i in range(len(ring))]
    vertex = st.integers(1, n - 1)
    raw += draw(st.lists(st.tuples(vertex, vertex, st.just(1)), max_size=3 * n))
    g = normalize(raw, n, 0)
    pair = st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1])
    pairs = tuple(draw(st.lists(pair, max_size=4 * n)))
    return g, Demand(pairs, scc(g)), draw(st.integers(0, 2**32))


def bidirected_cycle(n):
    edges = []
    for v in range(1, n):
        edges.append((v, (v % (n - 1)) + 1, 1))
        edges.append(((v % (n - 1)) + 1, v, 1))
    return normalize(edges, n, 0)


class TestDemand:
    def test_rejects_self_pair(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        with pytest.raises(ParameterError):
            Demand(((1, 1),), scc(g))

    def test_rejects_cross_component_pair(self):
        g = normalize([(1, 2, 1)], 3, 0)
        with pytest.raises(ParameterError):
            Demand(((1, 2),), scc(g))


class TestRoute:
    def test_empty_demand(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        out = route(g, Demand((), scc(g)))
        assert out.congestion == 0
        assert out.paths_edges == ()

    def test_single_pair_direct_edge(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        out = route(g, Demand(((1, 2),), scc(g)))
        assert out.congestion == 1
        assert [path_vertices(g, es) for es in out.paths_edges] == [(1, 2)]

    def test_four_cycle_neighbors_use_direct_edges(self):
        g = bidirected_cycle(5)
        part = scc(g)
        pairs = ((1, 2), (2, 3), (3, 4), (4, 1))
        out = route(g, Demand(pairs, part), seed=3)
        assert out.congestion == 1
        assert all(len(p) == 1 for p in out.paths_edges)

    def test_unreachable_pair_raises(self):
        g = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1)], 4, 0)
        part = scc(g)  # {1,2,3} strongly connected
        demand = Demand(((2, 3),), part)
        restricted = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1)], 4, 0)
        with pytest.raises(RoutingError):
            route(restricted, Demand(((3, 1),), scc(g)))

    def test_loads_match_paths_and_outcome_is_deterministic(self):
        g = bidirected_cycle(6)
        part = scc(g)
        pairs = ((1, 3), (3, 5), (5, 2), (2, 4), (4, 1))
        a = route(g, Demand(pairs, part), seed=9)
        b = route(g, Demand(pairs, part), seed=9)
        assert a.paths_edges == b.paths_edges
        recount = {}
        for path in a.paths_edges:
            for e in path:
                recount[e] = recount.get(e, 0) + 1
        assert max(recount.values()) == a.congestion

    def test_paths_are_simple_and_match_endpoints(self):
        g = bidirected_cycle(7)
        part = scc(g)
        pairs = ((1, 4), (4, 1), (2, 6), (6, 2))
        out = route(g, Demand(pairs, part), seed=1)
        for (src, dst), es in zip(pairs, out.paths_edges):
            vs = path_vertices(g, es)
            assert vs[0] == src and vs[-1] == dst
            assert len(set(vs)) == len(vs)

    def test_congestion_close_to_exhaustive_optimum(self):
        # Quality regression guard on small fixtures: reported congestion
        # stays within twice the optimum over all simple-path assignments.
        fixtures = [
            (bidirected_cycle(5), ((1, 3), (2, 4), (3, 1), (4, 2))),
            (
                normalize(
                    [(1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 3, 1), (2, 1, 1), (3, 2, 1)],
                    4,
                    0,
                ),
                ((1, 3), (2, 1), (3, 2)),
            ),
        ]
        for g, pairs in fixtures:
            part = scc(g)
            out = route(g, Demand(pairs, part), seed=5)

            def simple_paths(src, dst):
                found = []
                stack = [(src, (src,), ())]
                while stack:
                    cur, vs, es = stack.pop()
                    if cur == dst:
                        found.append(es)
                        continue
                    for eid in g.out_edges(cur):
                        head = g.head(eid)
                        if head not in vs:
                            stack.append((head, vs + (head,), es + (eid,)))
                return found

            options = [simple_paths(s, d) for s, d in pairs]
            best = None
            for combo in itertools.product(*options):
                loads = {}
                for path in combo:
                    for e in path:
                        loads[e] = loads.get(e, 0) + 1
                worst = max(loads.values(), default=0)
                best = worst if best is None else min(best, worst)
            assert out.congestion <= 2 * best


class TestAgainstReference:
    @given(routing_cases())
    @settings(max_examples=150)
    def test_outcome_equals_the_earlier_router(self, case):
        g, demand, seed = case
        assert same_outcome(g, route(g, demand, seed), reference_route(g, demand, seed))

    def test_loads_past_the_length_cap(self):
        # Every pair from one clique to the other crosses the single
        # bridge edge, whose load climbs past the exponent cap to 25.
        g = gen_two_cliques_bridge(5)
        side_a, side_b = range(1, 6), range(6, 11)
        pairs = tuple((u, v) for u in side_a for v in side_b)
        demand = Demand(pairs, scc(g))
        out = route(g, demand, seed=4)
        assert len(pairs) == 25 > _LENGTH_EXP_CAP
        assert out.congestion == 25
        assert same_outcome(g, out, reference_route(g, demand, seed=4))


class TestRespectingCheck:
    def test_empty_demand(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        ok, violation = respecting_check(Demand((), scc(g)), [0, 0, 0])
        assert ok and violation is None

    def test_repeated_pair_exceeds_bound(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        demand = Demand(((1, 2), (1, 2)), scc(g))
        ok, violation = respecting_check(demand, [0, 1, 4])
        assert not ok
        assert violation == (1, 2, 1)

    def test_bound_met(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        demand = Demand(((1, 2), (2, 1)), scc(g))
        ok, violation = respecting_check(demand, [0, 2, 2])
        assert ok

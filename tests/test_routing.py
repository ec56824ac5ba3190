"""Demand routing: exactness, simplicity, congestion accounting, quality."""
import heapq
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack import packing, routing
from arborpack.errors import InternalError, ParameterError, RoutingError
from arborpack.generators import gen_known_packing, gen_two_cliques_bridge, instance_stream
from arborpack.graphcore import DirectedGraph, Partition, normalize, scc
from arborpack.routing import Demand, _shortest_path, route


def path_vertices(g: DirectedGraph, edges: tuple[int, ...]) -> tuple[int, ...]:
    """The vertices of a path given by its edge ids; asserts that each
    edge starts where the one before it ends."""
    vertices = [g.tail(edges[0])]
    for e in edges:
        assert g.tail(e) == vertices[-1], f"edge {e} does not continue {edges}"
        vertices.append(g.head(e))
    return tuple(vertices)


def reference_shortest_path(g: DirectedGraph, src: int, dst: int) -> tuple[int, ...] | None:
    """A one-sided Dijkstra at unit edge lengths that reads the graph
    through its methods: the reference for the edge counts of the paths
    `_shortest_path` finds."""
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
            nd = d + 1
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


def search_lists(g: DirectedGraph):
    """The out-edge and in-edge lists that `route` hands to
    `_shortest_path`."""
    out_adj = [[] for _ in range(g.n)]
    in_adj = [[] for _ in range(g.n)]
    for eid, (u, v, _c) in enumerate(g.edges):
        out_adj[u].append((eid, v))
        in_adj[v].append((eid, u))
    return out_adj, in_adj


@st.composite
def search_cases(draw):
    """A multigraph with self-loops and parallel edges, and two distinct
    endpoints."""
    n = draw(st.integers(2, 14))
    vertex = st.integers(0, n - 1)
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex, st.just(1)), max_size=4 * n)))
    src, dst = draw(st.tuples(vertex, vertex).filter(lambda p: p[0] != p[1]))
    return DirectedGraph(n=n, edges=edges, source=0), src, dst


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
        out = route(g, Demand(pairs, part))
        assert out.congestion == 1
        assert all(len(p) == 1 for p in out.paths_edges)

    def test_unreachable_pair_raises(self):
        # 3 has no out-edge, so the forward search runs dry first.
        g = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1)], 4, 0)
        part = scc(g)  # {1,2,3} strongly connected
        restricted = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1)], 4, 0)
        with pytest.raises(RoutingError):
            route(restricted, Demand(((3, 1),), part))

    def test_unreachable_pair_raises_when_the_backward_search_runs_dry(self):
        # 3 has no in-edge, so the backward search runs dry first.
        g = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1)], 4, 0)
        restricted = normalize([(1, 2, 1), (2, 1, 1), (3, 1, 1)], 4, 0)
        with pytest.raises(RoutingError):
            route(restricted, Demand(((2, 3),), scc(g)))

    def test_a_pair_that_crosses_components_has_no_path(self):
        # 1 -> 2 is an edge, but 1 and 2 lie in two components.
        g = normalize([(1, 2, 1)], 3, 0)
        with pytest.raises(RoutingError, match="no path from 1 to 2"):
            route(g, Demand(((1, 2),), scc(g)))

    def test_the_path_stays_inside_the_component(self):
        # The cycle 1 -> 2 -> 3 -> 5 -> 1 plus 1 -> 4 -> 5, with 4 in a
        # component of its own: the fewest-edge path 1 -> 4 -> 5 leaves
        # the component of the pair (1, 5), so 1 -> 2 -> 3 -> 5 is taken.
        g = normalize(
            [(1, 2, 1), (2, 3, 1), (3, 5, 1), (5, 1, 1), (1, 4, 1), (4, 5, 1)], 6, 0
        )
        part = Partition(
            comp_of=(0, 1, 1, 1, 2, 1),
            components=(frozenset({0}), frozenset({1, 2, 3, 5}), frozenset({4})),
        )
        out = route(g, Demand(((1, 5),), part))
        assert [path_vertices(g, es) for es in out.paths_edges] == [(1, 2, 3, 5)]

    def test_pack_routes_every_pair_inside_its_component(self, monkeypatch):
        # A search over the whole graph routes one of these pairs (at
        # k = 3) through a vertex of another component.
        routed = []

        def recording_route(g, demand):
            outcome = route(g, demand)
            routed.append((g, demand, outcome))
            return outcome

        monkeypatch.setattr(packing, "route", recording_route)
        graphs = instance_stream(30, seed=3, n_max=60, m_max=400, unit_only=True, n_mean=20.0)
        for _name, g in graphs:
            for k in (2, 3):
                packing.pack(g, k, seed=1)
        assert sum(len(demand.pairs) for _g, demand, _out in routed) > 200
        for g, demand, outcome in routed:
            comp_of = demand.partition.comp_of
            for (src, _dst), es in zip(demand.pairs, outcome.paths_edges):
                vs = path_vertices(g, es)
                assert {comp_of[v] for v in vs} == {comp_of[src]}, (demand.pairs, es)

    def test_loads_match_paths_and_outcome_is_deterministic(self):
        g = bidirected_cycle(6)
        part = scc(g)
        pairs = ((1, 3), (3, 5), (5, 2), (2, 4), (4, 1))
        a = route(g, Demand(pairs, part))
        b = route(g, Demand(pairs, part))
        assert a.paths_edges == b.paths_edges
        recount = {}
        for path in a.paths_edges:
            for e in path:
                recount[e] = recount.get(e, 0) + 1
        assert max(recount.values()) == a.congestion

    def test_paths_do_not_depend_on_the_pair_order(self):
        # The search reads no loads, so each pair gets the same path
        # whether it is routed first or last.
        g = gen_known_packing(30, 3, seed=2)
        part = scc(g)
        pairs = tuple(
            (u, v) for comp in part.components if len(comp) > 1
            for u, v in itertools.permutations(sorted(comp)[:6], 2)
        )
        forward = route(g, Demand(pairs, part))
        backward = route(g, Demand(pairs[::-1], part))
        assert len(pairs) > 1
        assert forward.paths_edges == backward.paths_edges[::-1]

    def test_paths_are_simple_and_match_endpoints(self):
        g = bidirected_cycle(7)
        part = scc(g)
        pairs = ((1, 4), (4, 1), (2, 6), (6, 2))
        out = route(g, Demand(pairs, part))
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
            out = route(g, Demand(pairs, part))

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

    @pytest.mark.parametrize(
        "pair, walk, message",
        [
            ((1, 2), (1, 2, 1, 2), "path for pair 0 repeats a vertex"),
            ((1, 3), (1, 2), "path endpoints do not match demand pair 0"),
        ],
        ids=["repeated_vertex", "wrong_endpoint"],
    )
    def test_a_bad_search_result_is_caught(self, monkeypatch, pair, walk, message):
        # The search hands back the edges of `walk`, a walk in the graph
        # that is not a simple path for `pair`.
        g = bidirected_cycle(5)
        es = [next(e for e in g.out_edges(u) if g.head(e) == v) for u, v in zip(walk, walk[1:])]
        monkeypatch.setattr(routing, "_shortest_path", lambda *args: es)
        with pytest.raises(InternalError, match=message):
            route(g, Demand((pair,), scc(g)))

    def test_each_pair_is_searched_once(self, monkeypatch):
        # Level 1 of `gen known_packing --n 60 --k 6 --seed 4` places its
        # chain demands at congestion above 1, so a router that moved
        # paths off its hottest edges would search for them again.
        searches = 0

        def counting_search(*args):
            nonlocal searches
            searches += 1
            return _shortest_path(*args)

        calls = []

        def counting_route(g, demand):
            before = searches
            outcome = route(g, demand)
            calls.append((len(demand.pairs), searches - before, outcome.congestion))
            return outcome

        monkeypatch.setattr(routing, "_shortest_path", counting_search)
        monkeypatch.setattr(packing, "route", counting_route)
        packing.pack(gen_known_packing(60, 6, seed=4), 6, seed=1)
        assert max(congestion for _, _, congestion in calls) >= 2
        assert [pairs for pairs, _, _ in calls] == [made for _, made, _ in calls]


class TestAgainstReference:
    @given(search_cases())
    @settings(max_examples=300)
    def test_search_finds_a_shortest_path(self, case):
        # Tied shortest paths may differ from the reference's; their
        # edge counts may not.
        g, src, dst = case
        out_adj, in_adj = search_lists(g)
        found = _shortest_path(g.edges, out_adj, in_adj, src, dst)
        expected = reference_shortest_path(g, src, dst)
        if expected is None:
            assert found is None
            return
        assert found is not None
        vs = path_vertices(g, tuple(found))
        assert (vs[0], vs[-1]) == (src, dst)
        assert len(set(vs)) == len(vs)
        assert len(found) == len(expected)

    def test_a_tie_between_the_frontiers_expands_forward(self):
        # Both 1 -> 2 -> 4 and 1 -> 3 -> 4 are shortest. The frontiers
        # {1} and {4} tie, so the forward side expands first and reaches
        # 3 and 2; then the backward side, now the smaller, expands 4 and
        # meets at 2 through its lower-id in-edge. Expanding backward on
        # the tie would let the forward side meet at 3 and return [0, 3].
        g = DirectedGraph(n=5, edges=((1, 3, 1), (1, 2, 1), (2, 4, 1), (3, 4, 1)), source=0)
        out_adj, in_adj = search_lists(g)
        assert _shortest_path(g.edges, out_adj, in_adj, 1, 4) == [1, 2]

    def test_every_pair_shares_the_only_bridge(self):
        # Every pair from one clique to the other crosses the single
        # bridge edge, so its load, and the congestion, is 25.
        g = gen_two_cliques_bridge(5)
        side_a, side_b = range(1, 6), range(6, 11)
        pairs = tuple((u, v) for u in side_a for v in side_b)
        demand = Demand(pairs, scc(g))
        out = route(g, demand)
        assert out.congestion == 25
        (bridge,) = (e for e in range(g.m) if g.tail(e) in side_a and g.head(e) in side_b)
        assert all(bridge in path for path in out.paths_edges)

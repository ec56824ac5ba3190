"""Demand routing: one search tree per pair, congestion accounting."""
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack import packing, routing
from arborpack.errors import RoutingError
from arborpack.generators import gen_known_packing, gen_two_cliques_bridge, instance_stream
from arborpack.graphcore import DirectedGraph, Partition, normalize, scc
from arborpack.routing import Demand, _search_tree, route


def path_vertices(g: DirectedGraph, edges: tuple[int, ...]) -> tuple[int, ...]:
    """The vertices of a path given by its edge ids; asserts that each
    edge starts where the one before it ends."""
    vertices = [g.tail(edges[0])]
    for e in edges:
        assert g.tail(e) == vertices[-1], f"edge {e} does not continue {edges}"
        vertices.append(g.head(e))
    return tuple(vertices)


def tree_path(g: DirectedGraph, src: int, tree: tuple[int, ...]) -> tuple[int, ...]:
    """The edges of `tree` in path order from `src`, when they form one
    path; asserts that each step has exactly one edge to take."""
    path: list[int] = []
    rest = set(tree)
    while rest:
        (e,) = [e for e in rest if g.tail(e) == (g.head(path[-1]) if path else src)]
        path.append(e)
        rest.discard(e)
    return tuple(path)


def tree_reach(g: DirectedGraph, root: int, tree: tuple[int, ...]) -> set[int]:
    """The vertices that `root` reaches over the edges of `tree`; asserts
    that no vertex has two tree in-edges and the root has none."""
    heads = Counter(g.head(e) for e in tree)
    assert all(count == 1 for count in heads.values()), tree
    assert root not in heads, tree
    reached, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for e in tree:
            if g.tail(e) == u and g.head(e) not in reached:
                reached.add(g.head(e))
                stack.append(g.head(e))
    return reached


def component_reach(g: DirectedGraph, part: Partition, root: int) -> set[int]:
    """The vertices that `root` reaches over edges inside its component."""
    reached, stack = {root}, [root]
    while stack:
        u = stack.pop()
        for e in g.out_edges(u):
            v = g.head(e)
            if part.comp_of[v] == part.comp_of[root] and v not in reached:
                reached.add(v)
                stack.append(v)
    return reached


@st.composite
def routing_cases(draw):
    """A multigraph with self-loops and parallel edges, its SCC partition,
    and a few pairs, each a root and up to four terminals anywhere."""
    n = draw(st.integers(2, 12))
    vertex = st.integers(0, n - 1)
    edges = tuple(draw(st.lists(st.tuples(vertex, vertex, st.just(1)), max_size=4 * n)))
    g = DirectedGraph(n=n, edges=edges, source=0)
    pairs = draw(st.lists(
        st.tuples(vertex, st.lists(vertex, max_size=4).map(tuple)), min_size=1, max_size=4
    ))
    return g, scc(g), tuple(pairs)


def search_graph():
    """Root 1 reaches 2 and 3; 2 reaches 3 again, 5, and the vertex 6 of
    another component, which leads to 4; 3 leads to 4; 7 -> 8 are in 1's
    component but out of its reach."""
    edges = [(0, 1), (1, 2), (1, 3), (2, 6), (2, 3), (2, 5), (3, 4), (6, 4), (0, 7), (7, 8)]
    g = normalize([(u, v, 1) for u, v in edges], 9, 0)
    comp = frozenset({1, 2, 3, 4, 5, 7, 8})
    part = Partition(
        comp_of=(0, 1, 1, 1, 1, 1, 2, 1, 1),
        components=(frozenset({0}), comp, frozenset({6})),
    )
    return g, part


def bidirected_cycle(n):
    edges = []
    for v in range(1, n):
        edges.append((v, (v % (n - 1)) + 1, 1))
        edges.append(((v % (n - 1)) + 1, v, 1))
    return normalize(edges, n, 0)


def routed_packs(monkeypatch):
    """Pack a stream of small unit graphs at k = 2 and 3, and return one
    (hierarchy, level, demand, outcome) per `route` call."""
    routed = []
    level = []

    def recording_run_level(hierarchy, i, state, crit):
        level[:] = [hierarchy, i]
        return run_level(hierarchy, i, state, crit)

    def recording_route(g, demand):
        outcome = route(g, demand)
        routed.append((*level, demand, outcome))
        return outcome

    run_level = packing.run_level
    monkeypatch.setattr(packing, "run_level", recording_run_level)
    monkeypatch.setattr(packing, "route", recording_route)
    graphs = instance_stream(30, seed=5, n_max=60, m_max=400, unit_only=True, n_mean=20.0)
    for _name, g in graphs:
        for k in (2, 3):
            packing.pack(g, k, seed=1)
    return routed


class TestDemand:
    def test_a_root_may_be_its_own_terminal(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        out = route(g, Demand(((1, (1,)), (1, (1, 2))), scc(g)))
        assert out.paths_edges == ((), (0,))


class TestSearchTree:
    def test_no_terminals_give_an_empty_tree(self):
        g, part = search_graph()
        assert route(g, Demand(((1, ()),), part)).paths_edges == ((),)

    def test_single_terminal(self):
        # 3 is pushed from 1, so 4 hangs below 3.
        g, part = search_graph()
        assert route(g, Demand(((1, (4,)),), part)).paths_edges == ((2, 6),)

    def test_search_order(self):
        # Marking on push keeps 3 on its edge from 1, though the search
        # pops 2 first and 2 -> 3 is an edge too; 6 lies outside the
        # component, so 4 hangs from 3.
        g, part = search_graph()
        assert route(g, Demand(((1, (5, 4, 3, 2)),), part)).paths_edges == ((1, 2, 5, 6),)

    def test_the_search_stops_at_its_last_terminal(self):
        # 2 is the first vertex popped after 1, so neither 2's
        # out-neighbour 5 nor 3's out-neighbour 4 is pushed.
        g, part = search_graph()
        assert _search_tree(g, part.comp_of, 1, (2,)) == {1: -1, 3: 2, 2: 1}
        assert _search_tree(g, part.comp_of, 1, (1,)) == {1: -1}

    @pytest.mark.parametrize(
        "root, terminals, missing",
        [(5, (8, 7, 1), 1), (1, (8, 4, 7), 7)],
        ids=["root_without_out_edges", "terminals_past_the_search"],
    )
    def test_a_terminal_out_of_reach_raises(self, root, terminals, missing):
        g, part = search_graph()
        with pytest.raises(RoutingError, match=f"no path from {root} to {missing} "):
            route(g, Demand(((root, terminals),), part))


class TestRoute:
    def test_empty_demand(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        out = route(g, Demand((), scc(g)))
        assert out.congestion == 0
        assert out.paths_edges == ()

    def test_single_pair_direct_edge(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        out = route(g, Demand(((1, (2,)),), scc(g)))
        assert out.congestion == 1
        assert [path_vertices(g, es) for es in out.paths_edges] == [(1, 2)]

    def test_four_cycle_neighbors_use_direct_edges(self):
        g = bidirected_cycle(5)
        part = scc(g)
        pairs = ((1, (2,)), (2, (3,)), (3, (4,)), (4, (1,)))
        out = route(g, Demand(pairs, part))
        assert out.congestion == 1
        assert all(len(p) == 1 for p in out.paths_edges)

    def test_unreachable_pair_raises(self):
        # 3 has no out-edge, so the search from 3 runs dry.
        g = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 1, 1)], 4, 0)
        part = scc(g)  # {1,2,3} strongly connected
        restricted = normalize([(1, 2, 1), (2, 1, 1), (1, 3, 1)], 4, 0)
        with pytest.raises(RoutingError):
            route(restricted, Demand(((3, (1,)),), part))

    def test_a_pair_that_crosses_components_has_no_path(self):
        # 1 -> 2 is an edge, but 1 and 2 lie in two components.
        g = normalize([(1, 2, 1)], 3, 0)
        with pytest.raises(RoutingError, match="no path from 1 to 2"):
            route(g, Demand(((1, (2,)),), scc(g)))

    def test_the_path_stays_inside_the_component(self):
        # The cycle 1 -> 2 -> 3 -> 5 -> 1 plus 1 -> 4 -> 5, with 4 in a
        # component of its own. A search over the whole graph would pop 4
        # first, through 1's lower-id out-edge, and reach 5 from it; the
        # search inside the component reaches 5 over 1 -> 2 -> 3 -> 5.
        g = normalize(
            [(1, 4, 1), (4, 5, 1), (1, 2, 1), (2, 3, 1), (3, 5, 1), (5, 1, 1)], 6, 0
        )
        part = Partition(
            comp_of=(0, 1, 1, 1, 2, 1),
            components=(frozenset({0}), frozenset({1, 2, 3, 5}), frozenset({4})),
        )
        out = route(g, Demand(((1, (5,)),), part))
        assert [path_vertices(g, es) for es in out.paths_edges] == [(1, 2, 3, 5)]

    def test_pack_routes_every_pair_inside_its_component(self, monkeypatch):
        # Step 3 of level i routes on the level-i partition, and every
        # edge it colors has both ends in the root's level-i component. A
        # search over the whole graph takes two of these trees through a
        # vertex of another component.
        routed = routed_packs(monkeypatch)
        assert sum(len(demand.pairs) for _h, _i, demand, _out in routed) > 10
        for hierarchy, i, demand, outcome in routed:
            comp_of = hierarchy.partition(i).comp_of
            assert demand.partition == hierarchy.partition(i)
            g = hierarchy.graph
            for (root, _terminals), tree in zip(demand.pairs, outcome.paths_edges):
                ends = {comp_of[v] for e in tree for v in (g.tail(e), g.head(e))}
                assert ends <= {comp_of[root]}, (demand.pairs, tree)

    def test_pack_demands_respect_the_degree_bound(self, monkeypatch):
        # A vertex v roots at most i indeg[v] pairs, its sink capacity in
        # the level-i flow, and is a terminal of at most as many, since
        # its Z colors are capped at i times its level-edge in-degree; so
        # it is an end of at most 3 i indeg[v] pairs, the bound the
        # paper's expander routing needs.
        routed = routed_packs(monkeypatch)
        for hierarchy, i, demand, _outcome in routed:
            g = hierarchy.graph
            indeg = Counter(g.head(e) for e in hierarchy.level_edges(i))
            roots = Counter(root for root, _terminals in demand.pairs)
            terminals = Counter(v for _root, ts in demand.pairs for v in ts)
            for v in roots | terminals:
                assert roots[v] <= i * indeg[v], (i, v)
                assert terminals[v] <= i * indeg[v], (i, v)
        assert any(i > 1 for _h, i, _d, _o in routed)

    def test_loads_match_paths_and_outcome_is_deterministic(self):
        g = bidirected_cycle(6)
        part = scc(g)
        pairs = ((1, (3, 4)), (3, (5,)), (5, (2, 1)), (2, (4,)), (4, (1, 2, 3)))
        a = route(g, Demand(pairs, part))
        b = route(g, Demand(pairs, part))
        assert a.paths_edges == b.paths_edges
        recount = Counter(e for tree in a.paths_edges for e in tree)
        assert max(recount.values()) == a.congestion

    def test_paths_do_not_depend_on_the_pair_order(self):
        # The search reads no loads, so each pair gets the same tree
        # whether it is routed first or last.
        g = gen_known_packing(30, 3, seed=2)
        part = scc(g)
        pairs = tuple(
            (u, (v, w)) for comp in part.components if len(comp) > 1
            for u, v, w in itertools.permutations(sorted(comp)[:6], 3)
        )
        forward = route(g, Demand(pairs, part))
        backward = route(g, Demand(pairs[::-1], part))
        assert len(pairs) > 1
        assert forward.paths_edges == backward.paths_edges[::-1]

    def test_paths_are_simple_and_match_endpoints(self):
        # A tree to one terminal is a simple path.
        g = bidirected_cycle(7)
        part = scc(g)
        pairs = ((1, 4), (4, 1), (2, 6), (6, 2))
        out = route(g, Demand(tuple((src, (dst,)) for src, dst in pairs), part))
        for (src, dst), es in zip(pairs, out.paths_edges):
            vs = path_vertices(g, tree_path(g, src, es))
            assert vs[0] == src and vs[-1] == dst
            assert len(set(vs)) == len(vs)

    def test_congestion_close_to_exhaustive_optimum(self):
        # Quality regression guard on small fixtures: with one terminal
        # per pair, reported congestion stays within twice the optimum
        # over all simple-path assignments.
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
            out = route(g, Demand(tuple((src, (dst,)) for src, dst in pairs), part))

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
                loads = Counter(e for path in combo for e in path)
                worst = max(loads.values(), default=0)
                best = worst if best is None else min(best, worst)
            assert out.congestion <= 2 * best

    def test_each_pair_is_searched_once(self, monkeypatch):
        # Level 1 of `gen known_packing --n 60 --k 6 --seed 4` places its
        # demands at congestion above 1, so a router that moved trees off
        # its hottest edges would search for them again.
        searches = 0

        def counting_search(*args):
            nonlocal searches
            searches += 1
            return _search_tree(*args)

        calls = []

        def counting_route(g, demand):
            before = searches
            outcome = route(g, demand)
            calls.append((len(demand.pairs), searches - before, outcome.congestion))
            return outcome

        monkeypatch.setattr(routing, "_search_tree", counting_search)
        monkeypatch.setattr(packing, "route", counting_route)
        packing.pack(gen_known_packing(60, 6, seed=4), 6, seed=1)
        assert max(congestion for _, _, congestion in calls) >= 2
        assert [pairs for pairs, _, _ in calls] == [made for _, made, _ in calls]


class TestAgainstReference:
    @given(routing_cases())
    @settings(max_examples=300)
    def test_each_tree_reaches_its_terminals_inside_the_component(self, case):
        # A terminal that the root cannot reach inside its component
        # makes `route` raise; otherwise each tree is an arborescence
        # from its root inside that component that reaches every
        # terminal, and congestion is the largest edge count.
        g, part, pairs = case
        if any(not set(ts) <= component_reach(g, part, root) for root, ts in pairs):
            with pytest.raises(RoutingError):
                route(g, Demand(pairs, part))
            return
        out = route(g, Demand(pairs, part))
        for (root, terminals), tree in zip(pairs, out.paths_edges):
            assert list(tree) == sorted(set(tree))
            assert all(
                part.comp_of[g.tail(e)] == part.comp_of[g.head(e)] == part.comp_of[root]
                for e in tree
            )
            assert set(terminals) <= tree_reach(g, root, tree)
        loads = Counter(e for tree in out.paths_edges for e in tree)
        assert out.congestion == max(loads.values(), default=0)

    def test_every_pair_shares_the_only_bridge(self):
        # Every tree from one clique to the other crosses the single
        # bridge edge, so its load, and the congestion, is 5.
        g = gen_two_cliques_bridge(5)
        side_a, side_b = range(1, 6), range(6, 11)
        pairs = tuple((u, tuple(side_b)) for u in side_a)
        out = route(g, Demand(pairs, scc(g)))
        assert out.congestion == 5
        (bridge,) = (e for e in range(g.m) if g.tail(e) in side_a and g.head(e) in side_b)
        assert all(bridge in tree for tree in out.paths_edges)

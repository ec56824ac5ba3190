"""Demand routing: exactness, simplicity, congestion accounting, quality."""
import itertools

import pytest

from arborpack.errors import ParameterError, RoutingError
from arborpack.graphcore import normalize, scc
from arborpack.routing import Demand, respecting_check, route


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
        assert out.paths_vertices == ((1, 2),)

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
        for (src, dst), vs in zip(pairs, out.paths_vertices):
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

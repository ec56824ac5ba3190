"""Max-flow: exactness against cut enumeration, path decomposition."""
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arborpack.errors import InternalError, ParameterError
from arborpack.graphcore import normalize
from arborpack.maxflow import (
    FlowProblem,
    FlowResult,
    decompose_paths,
    max_flow,
    verify_flow,
)

from .conftest import digraphs


def brute_min_cut(g, supplies, sinks, edge_filter=None, scale=1):
    """Minimum cut of the virtual-terminal network by direct enumeration,
    over the edges in `edge_filter` (all when None) at `scale` times
    their capacity."""
    best = None
    for r in range(g.n + 1):
        for combo in itertools.combinations(range(g.n), r):
            t_side = set(combo)
            crossing = sum(
                c * scale
                for eid, (u, v, c) in enumerate(g.edges)
                if (edge_filter is None or eid in edge_filter)
                and u not in t_side
                and v in t_side
            )
            value = (
                sum(supplies.get(v, 0) for v in t_side)
                + crossing
                + sum(sinks.get(v, 0) for v in range(g.n) if v not in t_side)
            )
            if best is None or value < best:
                best = value
    return best


@st.composite
def flow_problems(draw, g):
    """A problem on g with several supplies and sinks, an optional edge
    filter and flow bound, and capacities scaled by 1-3."""
    vertices = st.integers(0, g.n - 1)
    supplies = draw(st.dictionaries(vertices, st.integers(0, 5), min_size=1, max_size=3))
    sinks = draw(st.dictionaries(vertices, st.integers(0, 5), min_size=1, max_size=3))
    edge_ids = st.sampled_from(range(g.m)) if g.m else st.nothing()
    edge_filter = draw(st.none() | st.frozensets(edge_ids))
    return FlowProblem(
        g,
        supplies,
        sinks,
        flow_bound=draw(st.none() | st.integers(0, 8)),
        edge_filter=edge_filter,
        capacity_scale=draw(st.integers(1, 3)),
    )


class TestMaxFlow:
    def test_unit_path(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        res = max_flow(FlowProblem(g, {0: 1}, {2: 1}))
        assert res.value == 1

    def test_parallel_edges(self):
        g = normalize([(0, 1, 1), (0, 1, 1)], 2, 0)
        res = max_flow(FlowProblem(g, {0: 2}, {1: 2}))
        assert res.value == 2

    def test_diamond_with_cut_reevaluation(self):
        g = normalize([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 4, 0)
        problem = FlowProblem(g, {0: 2}, {3: 2})
        res = max_flow(problem)
        assert res.value == 2
        assert res.value == brute_min_cut(g, {0: 2}, {3: 2})
        verify_flow(problem, res)

    def test_flow_bound_early_exit(self):
        g = normalize([(0, 1, 5)], 2, 0)
        res = max_flow(FlowProblem(g, {0: 5}, {1: 5}, flow_bound=2))
        assert res.value == 2
        assert res.capped
        assert res.min_cut_side is None

    def test_supply_below_bound_is_not_capped(self):
        # The supply runs out at 3, below the bound: the flow is maximum
        # and its cut is genuine.
        g = normalize([(0, 1, 5)], 2, 0)
        problem = FlowProblem(g, {0: 3}, {1: 5}, flow_bound=5)
        res = max_flow(problem)
        assert res.value == 3
        assert not res.capped
        assert res.min_cut_side == frozenset({0, 1})
        verify_flow(problem, res)

    def test_infeasible_supplies_give_smaller_value(self):
        g = normalize([(0, 1, 1)], 3, 0)
        res = max_flow(FlowProblem(g, {0: 4}, {2: 4}))
        assert res.value == 0

    def test_capacity_scale(self):
        g = normalize([(0, 1, 2)], 2, 0)
        res = max_flow(FlowProblem(g, {0: 9}, {1: 9}, capacity_scale=3))
        assert res.value == 6

    def test_determinism(self):
        g = normalize([(0, 1, 2), (0, 2, 1), (1, 2, 2), (2, 3, 2), (1, 3, 1)], 4, 0)
        p = FlowProblem(g, {0: 4}, {3: 4})
        a, b = max_flow(p), max_flow(p)
        assert (a.value, a.flow, a.min_cut_side) == (b.value, b.flow, b.min_cut_side)

    @given(digraphs(max_n=6, max_m=14, max_cap=3), st.data())
    def test_duality_against_enumeration(self, g, data):
        supplies = {0: data.draw(st.integers(1, 6))}
        t = data.draw(st.integers(1, g.n - 1))
        sinks = {t: data.draw(st.integers(1, 6))}
        problem = FlowProblem(g, supplies, sinks)
        res = max_flow(problem)
        assert res.value == brute_min_cut(g, supplies, sinks)
        verify_flow(problem, res)

    def test_long_unit_path(self):
        # Every augmenting path is 2,999 arcs long: deeper than Python's
        # recursion limit.
        n = 3000
        g = normalize([(v, v + 1, 1) for v in range(n - 1)], n, 0)
        problem = FlowProblem(g, {0: 1}, {n - 1: 1})
        res = max_flow(problem)
        assert res.value == 1
        verify_flow(problem, res)

    def test_rejects_edge_filter_out_of_range(self):
        g = normalize([(0, 1, 1)], 2, 0)
        with pytest.raises(ParameterError):
            FlowProblem(g, {0: 1}, {1: 1}, edge_filter=frozenset({1}))

    @given(digraphs(max_n=6, max_m=14, max_cap=3), st.data())
    def test_problems_on_one_graph_match_fresh_copies(self, g, data):
        # The arc arrays are cached on the graph, so a run must leave
        # nothing behind that changes the next problem's result.
        for _ in range(3):
            problem = data.draw(flow_problems(g))
            res = max_flow(problem)
            best = brute_min_cut(
                g,
                problem.source_supply,
                problem.sink_capacity,
                problem.edge_filter,
                problem.capacity_scale,
            )
            bound = problem.flow_bound
            assert res.value == (best if bound is None else min(best, bound))
            verify_flow(problem, res)
            fresh = FlowProblem(
                normalize(g.edges, g.n, g.source),
                problem.source_supply,
                problem.sink_capacity,
                flow_bound=bound,
                edge_filter=problem.edge_filter,
                capacity_scale=problem.capacity_scale,
            )
            ref = max_flow(fresh)
            assert (res.value, res.flow, res.min_cut_side, res.capped) == (
                ref.value, ref.flow, ref.min_cut_side, ref.capped
            )
            assert (res.source_used, res.sink_used) == (ref.source_used, ref.sink_used)


class TestDecomposePaths:
    def test_unit_path(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        problem = FlowProblem(g, {0: 1}, {2: 1})
        res = max_flow(problem)
        paths = decompose_paths(g, res, {0: 1}, {2: 1})
        assert [p.vertices for p in paths] == [(0, 1, 2)]

    def test_diamond_two_disjoint_paths(self):
        g = normalize([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 4, 0)
        res = max_flow(FlowProblem(g, {0: 2}, {3: 2}))
        paths = decompose_paths(g, res, {0: 2}, {3: 2})
        assert sorted(p.vertices for p in paths) == [(0, 1, 3), (0, 2, 3)]
        used = [e for p in paths for e in p.edges]
        assert len(used) == len(set(used))

    def test_cycle_is_cancelled_not_emitted(self):
        # One unit along 0->1->2 plus a closed 1->3->1 circulation.
        g = normalize([(0, 1, 1), (1, 2, 1), (1, 3, 1), (3, 1, 1)], 4, 0)
        res = FlowResult(
            value=1,
            flow=[1, 1, 1, 1],
            min_cut_side=frozenset(),
            source_used={0: 1},
            sink_used={2: 1},
        )
        paths = decompose_paths(g, res, {0: 1}, {2: 1})
        assert [p.vertices for p in paths] == [(0, 1, 2)]

    def test_trivial_path_at_supply_sink_vertex(self):
        g = normalize([(0, 1, 1)], 2, 0)
        res = max_flow(FlowProblem(g, {1: 2}, {1: 2}))
        paths = decompose_paths(g, res, {1: 2}, {1: 2})
        assert [p.vertices for p in paths] == [(1,), (1,)]
        assert all(p.edges == () for p in paths)

    def test_rejects_nonconservative_flow(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        res = FlowResult(
            value=1,
            flow=[1, 0],
            min_cut_side=frozenset(),
            source_used={0: 1},
            sink_used={2: 1},
        )
        with pytest.raises(InternalError):
            decompose_paths(g, res, {0: 1}, {2: 1})

    @given(digraphs(max_n=6, max_m=14, max_cap=3), st.data())
    def test_path_counts_respect_flow_and_endpoints(self, g, data):
        supplies = {
            v: data.draw(st.integers(0, 3)) for v in range(g.n)
        }
        sinks = {v: data.draw(st.integers(0, 3)) for v in range(g.n)}
        res = max_flow(FlowProblem(g, supplies, sinks))
        paths = decompose_paths(g, res, supplies, sinks)
        assert len(paths) == res.value
        per_edge = {}
        starts = {}
        ends = {}
        for p in paths:
            starts[p.vertices[0]] = starts.get(p.vertices[0], 0) + 1
            ends[p.vertices[-1]] = ends.get(p.vertices[-1], 0) + 1
            for e in p.edges:
                per_edge[e] = per_edge.get(e, 0) + 1
        for e, count in per_edge.items():
            assert count <= res.flow[e]
        for v, count in starts.items():
            assert count <= supplies[v]
        for v, count in ends.items():
            assert count <= sinks[v]

"""Max-flow: exactness against cut enumeration and against the
forward-labelled Dinic, path decomposition."""
import itertools
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arborpack.errors import InternalError, ParameterError
from arborpack.graphcore import normalize
from arborpack.maxflow import (
    FlowProblem,
    FlowResult,
    _residual_network,
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


def reference_max_flow(problem):
    """Dinic with the textbook forward labelling, kept as a cross-check.

    Each phase labels vertices by BFS distance from the super-source and
    stops at the super-sink; the blocking flow restarts from the source
    after every augmentation and walks into dead ends. The last search of
    an uncapped run gives the cut side. It shares only the residual
    network with `max_flow`."""
    g = problem.graph
    source, sink = g.n, g.n + 1
    head, cap, adj, supply_arc, sink_arc = _residual_network(problem)
    bound = problem.flow_bound
    total_supply = sum(problem.source_supply.values())
    limit = total_supply if bound is None else min(bound, total_supply)
    flow_total = 0
    while bound is None or flow_total < bound:
        level = _reference_levels(adj, head, cap, source, sink if flow_total < limit else -1)
        if flow_total >= limit or level[sink] < 0:
            break
        flow_total += _reference_blocking_flow(
            adj, head, cap, level, source, sink, limit - flow_total
        )
    capped = flow_total == bound
    return FlowResult(
        value=flow_total,
        flow=cap[1 : 2 * g.m : 2],
        min_cut_side=None if capped else frozenset(v for v in range(g.n) if level[v] < 0),
        source_used={v: cap[a ^ 1] for v, a in supply_arc.items()},
        sink_used={v: cap[a ^ 1] for v, a in sink_arc.items()},
        capped=capped,
    )


def _reference_levels(adj, head, cap, source, stop):
    level = [-1] * len(adj)
    level[source] = 0
    dq = deque([source])
    while dq:
        u = dq.popleft()
        nxt = level[u] + 1
        for a in adj[u]:
            if cap[a] > 0:
                w = head[a]
                if level[w] < 0:
                    level[w] = nxt
                    if w == stop:
                        return level
                    dq.append(w)
    return level


def _reference_blocking_flow(adj, head, cap, level, source, sink, limit):
    it = [0] * len(adj)
    path = []
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
            path.clear()
            u = source
            continue
        arcs = adj[u]
        i = it[u]
        want = level[u] + 1
        while i < len(arcs):
            a = arcs[i]
            if cap[a] > 0 and level[head[a]] == want:
                break
            i += 1
        it[u] = i
        if i < len(arcs):
            path.append(a)
            u = head[a]
            continue
        level[u] = -1
        if not path:
            return pushed
        u = head[path.pop() ^ 1]
        it[u] += 1


def result_fields(res):
    return (
        res.value,
        res.flow,
        res.min_cut_side,
        res.source_used,
        res.sink_used,
        res.capped,
    )


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

    @given(digraphs(max_n=12, max_m=40, max_cap=4), st.data())
    def test_matches_forward_labelled_reference(self, g, data):
        # Several supplies and sinks, filters, scales 1-3 and bounds;
        # zero supplies, empty filters and bound 0 give zero flows, and
        # supplies below the sinks' total run out before the cut.
        for _ in range(3):
            problem = data.draw(flow_problems(g))
            res = max_flow(problem)
            assert result_fields(res) == result_fields(reference_max_flow(problem))
            verify_flow(problem, res)

    def test_broom_matches_reference(self):
        # A complete binary tree of 2,047 dead-end vertices hangs off the
        # source, listed first, beside three source-sink paths of 30, 31
        # and 32 edges. The forward labelling reaches the whole tree before
        # the sink in every phase; the backward one never enters it.
        tree = 2047
        edges = [(0, 1, 3)]
        edges += [(v, c, 1) for v in range(1, tree // 2 + 1) for c in (2 * v, 2 * v + 1)]
        sink = tree + 1
        nxt = sink + 1
        for length in (30, 31, 32):
            chain = [0] + list(range(nxt, nxt + length - 1)) + [sink]
            nxt += length - 1
            edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
        g = normalize(edges, nxt, 0)
        for bound in (None, 2):
            problem = FlowProblem(g, {0: 5}, {sink: 5}, flow_bound=bound)
            res = max_flow(problem)
            assert result_fields(res) == result_fields(reference_max_flow(problem))
            verify_flow(problem, res)
        assert res.value == 2 and res.capped
        res = max_flow(FlowProblem(g, {0: 5}, {sink: 5}))
        assert res.value == 3
        assert res.min_cut_side == frozenset(range(sink, nxt))

class TestDecomposePaths:
    def test_unit_path(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        problem = FlowProblem(g, {0: 1}, {2: 1})
        paths = decompose_paths(problem, max_flow(problem))
        assert [p.vertices for p in paths] == [(0, 1, 2)]

    def test_diamond_two_disjoint_paths(self):
        g = normalize([(0, 1, 1), (0, 2, 1), (1, 3, 1), (2, 3, 1)], 4, 0)
        problem = FlowProblem(g, {0: 2}, {3: 2})
        paths = decompose_paths(problem, max_flow(problem))
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
        paths = decompose_paths(FlowProblem(g, {0: 1}, {2: 1}), res)
        assert [p.vertices for p in paths] == [(0, 1, 2)]

    def test_trivial_path_at_supply_sink_vertex(self):
        g = normalize([(0, 1, 1)], 2, 0)
        problem = FlowProblem(g, {1: 2}, {1: 2})
        paths = decompose_paths(problem, max_flow(problem))
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
        with pytest.raises(InternalError, match="conservation"):
            decompose_paths(FlowProblem(g, {0: 1}, {2: 1}), res)

    def test_rejects_flow_outside_the_edge_filter(self):
        # Two parallel routes 0->1->3 and 0->2->3; the problem allows only
        # the first, but the flow takes the second.
        g = normalize([(0, 1, 1), (1, 3, 1), (0, 2, 1), (2, 3, 1)], 4, 0)
        res = FlowResult(
            value=1,
            flow=[0, 0, 1, 1],
            min_cut_side=None,
            source_used={0: 1},
            sink_used={3: 1},
            capped=True,
        )
        problem = FlowProblem(g, {0: 1}, {3: 1}, flow_bound=1, edge_filter={0, 1})
        with pytest.raises(InternalError, match="filtered-out edge 2"):
            decompose_paths(problem, res)

    def test_rejects_flow_above_capacity(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        res = FlowResult(
            value=2,
            flow=[2, 2],
            min_cut_side=None,
            source_used={0: 2},
            sink_used={2: 2},
            capped=True,
        )
        problem = FlowProblem(g, {0: 2}, {2: 2}, flow_bound=2)
        with pytest.raises(InternalError, match=r"edge 0: flow 2 outside \[0, 1\]"):
            decompose_paths(problem, res)

    def test_rejects_supply_above_its_budget(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        res = FlowResult(
            value=1,
            flow=[1, 1],
            min_cut_side=None,
            source_used={0: 1},
            sink_used={2: 1},
            capped=True,
        )
        problem = FlowProblem(g, {1: 1}, {2: 1}, flow_bound=1)
        with pytest.raises(InternalError, match="exceeds its budget"):
            decompose_paths(problem, res)

    @given(digraphs(max_n=6, max_m=14, max_cap=3), st.data())
    def test_path_counts_respect_flow_and_endpoints(self, g, data):
        supplies = {
            v: data.draw(st.integers(0, 3)) for v in range(g.n)
        }
        sinks = {v: data.draw(st.integers(0, 3)) for v in range(g.n)}
        problem = FlowProblem(g, supplies, sinks)
        res = max_flow(problem)
        paths = decompose_paths(problem, res)
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

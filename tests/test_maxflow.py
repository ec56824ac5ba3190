"""Max-flow: exactness against cut enumeration and against the
forward-labelled Dinic, path decomposition."""
import itertools
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arborpack import maxflow
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


def reference_network(problem):
    """A fresh residual network built from the graph's edges alone:
    `(head, cap, adj, supply_arc, sink_arc)`. Arc 2e runs along edge e and
    2e+1 back; supply and sink arcs follow in ascending vertex order, and
    each vertex lists its edge arcs in edge-id order, then its supply
    partner, then its sink arc. It reads nothing the graph caches."""
    g = problem.graph
    n = g.n
    source, sink = n, n + 1
    allowed = problem.edge_filter
    head, cap = [], []
    adj = [[] for _ in range(n + 2)]
    for eid, (u, v, c) in enumerate(g.edges):
        head += (v, u)
        cap += (c * problem.capacity_scale if allowed is None or eid in allowed else 0, 0)
        adj[u].append(2 * eid)
        adj[v].append(2 * eid + 1)
    supply_arc, sink_arc = {}, {}
    for v in sorted(problem.source_supply):
        if problem.source_supply[v] > 0:
            supply_arc[v] = a = len(cap)
            head += (v, source)
            cap += (problem.source_supply[v], 0)
            adj[v].append(a + 1)
            adj[source].append(a)
    for v in sorted(problem.sink_capacity):
        if problem.sink_capacity[v] > 0:
            sink_arc[v] = a = len(cap)
            head += (sink, v)
            cap += (problem.sink_capacity[v], 0)
            adj[v].append(a)
            adj[sink].append(a + 1)
    return head, cap, adj, supply_arc, sink_arc


def reference_max_flow(problem):
    """Dinic with the textbook forward labelling, kept as a cross-check.

    Each phase labels vertices by BFS distance from the super-source and
    stops at the super-sink; the blocking flow restarts from the source
    after every augmentation and walks into dead ends. The last search of
    an uncapped run gives the cut side. It shares no code with
    `max_flow`: its network comes from `reference_network`."""
    g = problem.graph
    source, sink = g.n, g.n + 1
    head, cap, adj, supply_arc, sink_arc = reference_network(problem)
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
    )


@st.composite
def flow_problems(draw, g, scales=st.integers(1, 3), both_ends=False):
    """A problem on g with several supplies and sinks, an optional edge
    filter and flow bound, and capacities scaled by a draw from `scales`.
    With `both_ends`, some vertex has both a positive supply and a
    positive sink capacity."""
    vertices = st.integers(0, g.n - 1)
    supplies = draw(st.dictionaries(vertices, st.integers(0, 5), min_size=1, max_size=3))
    sinks = draw(st.dictionaries(vertices, st.integers(0, 5), min_size=1, max_size=3))
    if both_ends:
        v = draw(vertices)
        supplies[v] = draw(st.integers(1, 5))
        sinks[v] = draw(st.integers(1, 5))
    edge_ids = st.sampled_from(range(g.m)) if g.m else st.nothing()
    edge_filter = draw(st.none() | st.frozensets(edge_ids))
    return FlowProblem(
        g,
        supplies,
        sinks,
        flow_bound=draw(st.none() | st.integers(0, 8)),
        edge_filter=edge_filter,
        capacity_scale=draw(scales),
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
        assert res.min_cut_side is None

    def test_supply_below_bound_is_not_capped(self):
        # The supply runs out at 3, below the bound: the flow is maximum
        # and its cut is genuine.
        g = normalize([(0, 1, 5)], 2, 0)
        problem = FlowProblem(g, {0: 3}, {1: 5}, flow_bound=5)
        res = max_flow(problem)
        assert res.value == 3
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
            assert (res.value, res.flow, res.min_cut_side) == (
                ref.value, ref.flow, ref.min_cut_side
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

    @given(digraphs(max_n=10, max_m=30, max_cap=4), st.data())
    def test_problem_sequences_on_one_graph_match_reference(self, g, data):
        # The network and the scaled capacity template are kept on the
        # graph, so scales 1, 2 and 16 interleave here, with filters,
        # bounds and a vertex that both supplies and absorbs flow.
        for scale in (2, 16, 1, 16, 2):
            problem = data.draw(flow_problems(g, scales=st.just(scale), both_ends=True))
            res = max_flow(problem)
            assert result_fields(res) == result_fields(reference_max_flow(problem))
            verify_flow(problem, res)

    def test_capped_run_leaves_no_state_behind(self):
        edges = [(0, 1, 2), (0, 2, 1), (1, 2, 1), (1, 3, 2), (2, 3, 3), (3, 1, 1)]
        g = normalize(edges, 4, 0)
        capped = max_flow(FlowProblem(g, {0: 9, 1: 2}, {3: 9, 1: 1}, flow_bound=2,
                                      capacity_scale=2))
        assert capped.min_cut_side is None and capped.value == 2
        res = max_flow(FlowProblem(g, {0: 9}, {3: 9}, capacity_scale=2))
        fresh = max_flow(FlowProblem(normalize(edges, 4, 0), {0: 9}, {3: 9}, capacity_scale=2))
        assert result_fields(res) == result_fields(fresh)
        assert res.value == 6 and res.min_cut_side is not None

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
        assert res.value == 2 and res.min_cut_side is None
        res = max_flow(FlowProblem(g, {0: 5}, {sink: 5}))
        assert res.value == 3
        assert res.min_cut_side == frozenset(range(sink, nxt))

class TestShortPaths:
    """The pass that makes the 2-arc and 3-arc phases' augmentations
    without their searches gives plain Dinic's results."""

    @given(digraphs(max_n=12, max_m=40, max_cap=4), st.data())
    def test_certification_problems_match_reference(self, g, data):
        # As in certification: every vertex supplies or absorbs flow,
        # some do both, capacities are scaled by 16, and the bound is
        # the smaller of the two totals.
        amounts = st.integers(1, 6)
        supplies, sinks = {}, {}
        for v in range(g.n):
            role = data.draw(st.sampled_from(("supply", "sink", "both")))
            if role != "sink":
                supplies[v] = data.draw(amounts)
            if role != "supply":
                sinks[v] = data.draw(amounts)
        bound = min(sum(supplies.values()), sum(sinks.values()))
        problem = FlowProblem(g, supplies, sinks, flow_bound=bound, capacity_scale=16)
        res = max_flow(problem)
        assert result_fields(res) == result_fields(reference_max_flow(problem))
        verify_flow(problem, res)

    @pytest.mark.parametrize("edges, supplies, sinks, bound, edge_filter", [
        # The bound is met at vertex 2, inside the 2-arc step.
        ([(0, 1, 1), (1, 2, 1)], {1: 3, 2: 2}, {1: 2, 2: 5}, 3, None),
        # The bound is met on the arc 1 -> 3, inside the 3-arc step.
        ([(0, 1, 1), (1, 2, 2), (1, 3, 2), (1, 4, 2)], {1: 9}, {2: 2, 3: 2, 4: 2}, 3, None),
        # Vertex 1 both supplies and absorbs; its supply left goes on.
        ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 2)], {1: 4}, {1: 1, 2: 2, 3: 5}, None,
         None),
        # The edge 1 -> 2 into the sink is filtered out; 1 -> 3 -> 2 is
        # a 4-arc path that Dinic's phases find after the pass.
        ([(0, 1, 1), (1, 2, 3), (1, 3, 1), (3, 2, 1)], {1: 3}, {2: 3}, None,
         frozenset({0, 2, 3})),
    ], ids=["bound-in-2-arc-step", "bound-in-3-arc-step", "supply-and-sink",
            "filtered-edge-into-sink"])
    def test_unit_cases_match_reference(self, edges, supplies, sinks, bound, edge_filter):
        g = normalize(edges, 5, 0)
        problem = FlowProblem(g, supplies, sinks, flow_bound=bound, edge_filter=edge_filter)
        res = max_flow(problem)
        assert result_fields(res) == result_fields(reference_max_flow(problem))
        verify_flow(problem, res)

    def test_unit_case_values(self):
        g = normalize([(0, 1, 1), (1, 2, 2), (1, 3, 2), (1, 4, 2)], 5, 0)
        res = max_flow(FlowProblem(g, {1: 9}, {2: 2, 3: 2, 4: 2}, flow_bound=3))
        assert res.min_cut_side is None and res.flow == [0, 2, 1, 0]
        assert res.sink_used == {2: 2, 3: 1, 4: 0}
        g = normalize([(0, 1, 1), (1, 2, 3), (1, 3, 1), (3, 2, 1)], 4, 0)
        res = max_flow(FlowProblem(g, {1: 3}, {2: 3}, edge_filter=frozenset({0, 2, 3})))
        assert res.value == 1 and res.flow == [0, 0, 1, 1]
        assert res.min_cut_side == frozenset({0, 2, 3})

    def test_single_edge_flow_runs_no_search(self, monkeypatch):
        # Every unit goes over one edge from the supply to a sink, so the
        # pass meets the bound and no phase runs.
        calls = []
        search = maxflow._distances_to_sink
        monkeypatch.setattr(maxflow, "_distances_to_sink",
                            lambda *a: calls.append(1) or search(*a))
        g = normalize([(0, v, 1) for v in range(1, 5)] + [(1, 2, 1), (2, 3, 1)], 5, 0)
        res = max_flow(FlowProblem(g, {0: 4}, dict.fromkeys(range(1, 5), 1), flow_bound=4))
        assert res.min_cut_side is None and res.value == 4
        assert res.flow == [1, 1, 1, 1, 0, 0]
        assert calls == []


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

    @pytest.mark.parametrize("loop", [1, 2])
    def test_cycle_met_while_tracing_is_cancelled(self, loop):
        # The trace takes 1->2 (edge 1) before 1->3 (edge 3), so it walks
        # the circulation 1->2->1 back to vertex 1 and cancels it: one
        # unit as it is walked, and with `loop` = 2 the further unit too.
        g = normalize([(0, 1, 1), (1, 2, loop), (2, 1, loop), (1, 3, 1)], 4, 0)
        res = FlowResult(
            value=1,
            flow=[1, loop, loop, 1],
            min_cut_side=None,
            source_used={0: 1},
            sink_used={3: 1},
        )
        paths = decompose_paths(FlowProblem(g, {0: 1}, {3: 1}, flow_bound=1), res)
        assert [(p.vertices, p.edges) for p in paths] == [((0, 1, 3), (0, 3))]

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

    def test_rejects_broken_conservation_away_from_every_terminal(self):
        # Vertex 2 appears in no supply, sink or usage dict: only the flow
        # edges 1->2 and 2->3 touch it, and they carry 2 in but 1 out.
        g = normalize([(0, 1, 2), (1, 2, 2), (2, 3, 2), (1, 3, 1)], 4, 0)
        res = FlowResult(
            value=2,
            flow=[2, 2, 1, 0],
            min_cut_side=None,
            source_used={0: 2},
            sink_used={3: 2},
        )
        problem = FlowProblem(g, {0: 2}, {3: 2}, flow_bound=2)
        with pytest.raises(InternalError, match="vertex 2: conservation violated"):
            verify_flow(problem, res)

    def test_rejects_a_missing_cut_below_the_bound(self):
        # A value of 1 where 5 units fit is no maximum flow, so it needs
        # the cut side that would prove it one.
        g = normalize([(0, 1, 5)], 2, 0)
        res = FlowResult(
            value=1,
            flow=[1],
            min_cut_side=None,
            source_used={0: 1},
            sink_used={1: 1},
        )
        for bound in (None, 2):
            problem = FlowProblem(g, {0: 5}, {1: 5}, flow_bound=bound)
            with pytest.raises(InternalError, match="below its bound has no cut side"):
                verify_flow(problem, res)

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

"""Max-flow: exactness against cut enumeration and against the
forward-labelled Dinic, path decomposition."""
import itertools
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack import maxflow
from arborpack.errors import InternalError, ParameterError
from arborpack.generators import gen_cycle_plus_chords, gen_random_gnm
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


def reference_phases(problem, max_arcs=None):
    """Dinic with the textbook forward labelling, kept as a cross-check.

    Each phase labels vertices by BFS distance from the super-source and
    stops at the super-sink; the blocking flow restarts from the source
    after every augmentation and walks into dead ends. The phases run on
    a fresh `reference_network` until the flow reaches the bound or the
    supply, or no path is left; with `max_arcs`, only the phases whose
    paths have at most that many arcs run. Returns the network, the flow
    value and the labels of the last search (None if none ran). It
    shares no code with `max_flow`."""
    source, sink = problem.graph.n, problem.graph.n + 1
    network = reference_network(problem)
    head, cap, adj, _supply_arc, _sink_arc = network
    bound = problem.flow_bound
    total_supply = sum(problem.source_supply.values())
    limit = total_supply if bound is None else min(bound, total_supply)
    longest = len(adj) if max_arcs is None else max_arcs
    flow_total, level = 0, None
    while bound is None or flow_total < bound:
        level = _reference_levels(adj, head, cap, source, sink if flow_total < limit else -1)
        if flow_total >= limit or not 0 <= level[sink] <= longest:
            break
        flow_total += _reference_blocking_flow(
            adj, head, cap, level, source, sink, limit - flow_total
        )
    return network, flow_total, level


def reference_max_flow(problem):
    """The reference's maximum flow (`reference_phases`); the last search
    of an uncapped run gives the cut side."""
    g = problem.graph
    (_head, cap, _adj, supply_arc, sink_arc), flow_total, level = reference_phases(problem)
    capped = flow_total == problem.flow_bound
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


def assert_matches_reference(problem, res):
    """`res` is a valid flow of `problem` with the reference's value and
    cut side, and it has no cut side exactly when it met its bound. The
    flow itself may differ from the reference's: after its 4-arc phase,
    `max_flow` augments along the paths its search trees find."""
    ref = reference_max_flow(problem)
    assert (res.value, res.min_cut_side) == (ref.value, ref.min_cut_side)
    assert (res.min_cut_side is None) == (res.value == problem.flow_bound)
    verify_flow(problem, res)


def returns_of(monkeypatch, name):
    """What each call of `maxflow.<name>` returns, in call order."""
    returned = []
    real = getattr(maxflow, name)
    monkeypatch.setattr(maxflow, name, lambda *a: returned.append(real(*a)) or returned[-1])
    return returned


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


class TestResidualArcs:
    def test_layout(self):
        # m = 2, n = 3: edge arcs 0-3, then four arcs per vertex from 4;
        # the super-source is 3 and the super-sink 4.
        g = normalize([(0, 1, 3), (1, 2, 2)], 3, 0)
        head, cap, adj = maxflow._residual_arcs(g, 1)
        assert head == (1, 0, 2, 1) + (0, 3, 4, 0) + (1, 3, 4, 1) + (2, 3, 4, 2)
        assert cap == (3, 0, 2, 0) + (0,) * 12
        assert adj == ((0,), (1, 2), (3,))
        assert maxflow._residual_arcs(g, 1) is maxflow._residual_arcs(g, 1)

    def test_each_scale_is_kept_and_shares_head_and_adj(self):
        g = normalize([(0, 1, 3), (1, 2, 2)], 3, 0)
        head, cap, adj = maxflow._residual_arcs(g, 1)
        doubled = maxflow._residual_arcs(g, 2)
        assert doubled[0] is head and doubled[2] is adj
        assert doubled[1] == (6, 0, 4, 0) + (0,) * 12
        assert maxflow._residual_arcs(g, 16)[1][:4] == (48, 0, 32, 0)
        assert maxflow._residual_arcs(g, 2) is doubled
        assert maxflow._residual_arcs(g, 1)[1] is cap


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
            assert_matches_reference(problem, res)

    @given(digraphs(max_n=10, max_m=30, max_cap=4), st.data())
    def test_problem_sequences_on_one_graph_match_reference(self, g, data):
        # The network and the scaled capacity template are kept on the
        # graph, so scales 1, 2 and 16 interleave here, with filters,
        # bounds and a vertex that both supplies and absorbs flow.
        for scale in (2, 16, 1, 16, 2):
            problem = data.draw(flow_problems(g, scales=st.just(scale), both_ends=True))
            res = max_flow(problem)
            assert_matches_reference(problem, res)

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
            assert_matches_reference(problem, res)
        assert res.value == 2 and res.min_cut_side is None
        res = max_flow(FlowProblem(g, {0: 5}, {sink: 5}))
        assert res.value == 3
        assert res.min_cut_side == frozenset(range(sink, nxt))

@st.composite
def certification_problems(draw, g):
    """A problem shaped as in certification: every vertex supplies or
    absorbs flow, some do both, capacities are scaled by 16, and the
    bound is the smaller of the two totals."""
    amounts = st.integers(1, 6)
    supplies, sinks = {}, {}
    for v in range(g.n):
        role = draw(st.sampled_from(("supply", "sink", "both")))
        if role != "sink":
            supplies[v] = draw(amounts)
        if role != "supply":
            sinks[v] = draw(amounts)
    bound = min(sum(supplies.values()), sum(sinks.values()))
    return FlowProblem(g, supplies, sinks, flow_bound=bound, capacity_scale=16)


@st.composite
def layered_problems(draw):
    """A problem whose paths mostly have 4 arcs: supplies on the layer
    0..k-1, sinks on the layer 2k..3k-1, and edges from the first layer
    into the middle one k..2k-1 and from there into the last, with a
    few edges between any two vertices; capacities 1-3 and an optional
    bound. Middle vertices meet several supplies and several sinks, so
    the order of the 4-arc phase's augmentations shows."""
    k = draw(st.integers(2, 4))
    n = 3 * k

    def layer(i):
        return st.integers(i * k, i * k + k - 1)

    ends = (
        st.tuples(layer(0), layer(1))
        | st.tuples(layer(1), layer(2))
        | st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    )
    pairs = draw(st.lists(ends, min_size=2 * k, max_size=6 * k))
    edges = [(u, v, draw(st.integers(1, 3))) for u, v in pairs]
    amounts = st.integers(1, 4)
    supplies = {u: draw(amounts) for u in range(k)}
    sinks = {w: draw(amounts) for w in range(2 * k, n)}
    bound = draw(st.none() | st.integers(0, sum(supplies.values())))
    return FlowProblem(normalize(edges, n, 0), supplies, sinks, flow_bound=bound)


def assert_leaves_short_phase_network(problem):
    """Every residual capacity, of edge, supply and sink arcs, that
    `_short_paths` leaves equals the one the reference's 2-arc, 3-arc and
    4-arc phases leave, and so does the flow it returns."""
    g = problem.graph
    head, cap, _adj, supply_arc, sink_arc = maxflow._residual_network(problem)
    limit = sum(problem.source_supply.values())
    if problem.flow_bound is not None:
        limit = min(limit, problem.flow_bound)
    value = maxflow._short_paths(
        maxflow._residual_arcs(g, 1)[2], head, cap, supply_arc, sink_arc, 2 * g.m, limit
    )
    network, ref_value, _level = reference_phases(problem, max_arcs=4)
    _head, ref_cap, _adj, ref_supply_arc, ref_sink_arc = network
    assert value == ref_value
    assert cap[: 2 * g.m] == ref_cap[: 2 * g.m]
    for arcs, ref_arcs in ((supply_arc, ref_supply_arc), (sink_arc, ref_sink_arc)):
        assert {v: (cap[a], cap[a ^ 1]) for v, a in arcs.items()} == {
            v: (ref_cap[a], ref_cap[a ^ 1]) for v, a in ref_arcs.items()
        }


class TestShortPaths:
    """The pass that makes the 2-arc, 3-arc and 4-arc phases'
    augmentations without their searches leaves plain Dinic's residual
    network."""

    # Supply at 1, sink at 3: two 4-arc paths, 1 -> 2 -> 3 and 1 -> 4 -> 3.
    FOUR_ARC_EDGES = [(0, 1, 1), (1, 2, 2), (2, 3, 2), (1, 4, 2), (4, 3, 2)]

    @given(digraphs(max_n=12, max_m=40, max_cap=4), st.data())
    def test_certification_problems_match_reference(self, g, data):
        problem = data.draw(certification_problems(g))
        res = max_flow(problem)
        assert_matches_reference(problem, res)

    @given(digraphs(max_n=12, max_m=40, max_cap=4), st.data())
    def test_leaves_the_residual_network_of_the_short_phases(self, g, data):
        assert_leaves_short_phase_network(
            data.draw(certification_problems(g) | flow_problems(g, both_ends=True))
        )

    @settings(max_examples=100)
    @given(layered_problems())
    def test_leaves_the_residual_network_of_the_four_arc_phase(self, problem):
        # Here a pass that walks a middle vertex's arcs in another order,
        # moves its current arc past an arc still open, or gives it up
        # when the arc into it saturates leaves another network.
        assert_leaves_short_phase_network(problem)

    @pytest.mark.parametrize("edges, supplies, sinks, bound, edge_filter", [
        # The bound is met at vertex 2, inside the 2-arc step.
        ([(0, 1, 1), (1, 2, 1)], {1: 3, 2: 2}, {1: 2, 2: 5}, 3, None),
        # The bound is met on the arc 1 -> 3, inside the 3-arc step.
        ([(0, 1, 1), (1, 2, 2), (1, 3, 2), (1, 4, 2)], {1: 9}, {2: 2, 3: 2, 4: 2}, 3, None),
        # The bound is met on 1 -> 4 -> 3, inside the 4-arc step, after
        # 1 -> 2 -> 3 carried 2.
        (FOUR_ARC_EDGES, {1: 9}, {3: 9}, 3, None),
        # Vertex 1 both supplies and absorbs; its supply left goes on.
        ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (1, 3, 2)], {1: 4}, {1: 1, 2: 2, 3: 5}, None,
         None),
        # The edge 1 -> 2 into the sink is filtered out, so the 3-arc
        # step finds nothing; the 4-arc step takes 1 -> 3 -> 2.
        ([(0, 1, 1), (1, 2, 3), (1, 3, 1), (3, 2, 1)], {1: 3}, {2: 3}, None,
         frozenset({0, 2, 3})),
    ], ids=["bound-in-2-arc-step", "bound-in-3-arc-step", "bound-in-4-arc-step",
            "supply-and-sink", "filtered-edge-into-sink"])
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
        # 3-arc step meets the bound: neither the 4-arc step nor a search
        # tree runs.
        four_arc = returns_of(monkeypatch, "_four_arc_paths")
        trees = returns_of(monkeypatch, "_search_trees")
        g = normalize([(0, v, 1) for v in range(1, 5)] + [(1, 2, 1), (2, 3, 1)], 5, 0)
        res = max_flow(FlowProblem(g, {0: 4}, dict.fromkeys(range(1, 5), 1), flow_bound=4))
        assert res.min_cut_side is None and res.value == 4
        assert res.flow == [1, 1, 1, 1, 0, 0]
        assert four_arc == [] and trees == []

    def test_four_arc_flow_runs_no_search_tree(self, monkeypatch):
        # The supply of 3 runs out inside the 4-arc step, so the flow is
        # maximum and no search tree runs.
        four_arc = returns_of(monkeypatch, "_four_arc_paths")
        trees = returns_of(monkeypatch, "_search_trees")
        problem = FlowProblem(normalize(self.FOUR_ARC_EDGES, 5, 0), {1: 3}, {3: 9})
        res = max_flow(problem)
        assert result_fields(res) == result_fields(reference_max_flow(problem))
        assert res.value == 3 and res.flow == [0, 2, 2, 1, 1]
        assert four_arc == [0] and trees == []


@st.composite
def ring_problems(draw, min_n, max_n):
    """A certification-shaped problem on a ring: the source 0 feeds a
    directed cycle over 1..n-1, with random chords and capacities 1-3;
    a contiguous arc of the cycle supplies flow and the other cycle
    vertices absorb it, at scale 1 or 16, with no bound, the smaller
    total as bound, or a lower one."""
    n = draw(st.integers(min_n, max_n))
    caps = st.integers(1, 3)
    edges = [(0, 1, 1)] + [(v, v % (n - 1) + 1, draw(caps)) for v in range(1, n)]
    ring = st.integers(1, n - 1)
    edges += draw(st.lists(st.tuples(ring, ring, caps), max_size=n // 2))
    first, length = draw(ring), draw(st.integers(1, n - 2))
    arc = {(first + i - 1) % (n - 1) + 1 for i in range(length)}
    amounts = st.integers(1, 6)
    supplies = {v: draw(amounts) for v in sorted(arc)}
    sinks = {v: draw(amounts) for v in range(1, n) if v not in arc}
    target = min(sum(supplies.values()), sum(sinks.values()))
    bound = draw(st.none() | st.just(target) | st.integers(0, target))
    return FlowProblem(
        normalize(edges, n, 0),
        supplies,
        sinks,
        flow_bound=bound,
        capacity_scale=draw(st.sampled_from((1, 16))),
    )


class TestSearchTrees:
    """The search trees that finish a flow after its short phases give
    the reference's value and cut side."""

    @staticmethod
    def split_by_degree(g, arc):
        """Supplies on the ring vertices of `arc` and sinks on the other
        ring vertices, each at its degree, as certification sets them."""
        deg = [0] * g.n
        for u, v, c in g.edges:
            deg[u] += c
            deg[v] += c
        supplies = {v: deg[v] for v in arc}
        return supplies, {v: deg[v] for v in range(1, g.n) if v not in supplies}

    def test_rings_with_a_supply_arc_match_reference(self, monkeypatch):
        added = returns_of(monkeypatch, "_search_trees")

        @given(ring_problems(8, 40))
        def check(problem):
            assert_matches_reference(problem, max_flow(problem))

        check()
        assert sum(1 for flow in added if flow) >= 10

    def test_long_ring_at_scale_16(self, monkeypatch):
        # Failing trial flows as certification makes them on a 60-vertex
        # ring with 3 chords: the supplies hold a contiguous arc at their
        # degrees and the sinks the rest. Each flow takes augmenting
        # paths of many lengths and falls short of its bound.
        added = returns_of(monkeypatch, "_search_trees")
        g = gen_cycle_plus_chords(60, 3, seed=1)
        for first, last in ((1, 20), (10, 40), (30, 59)):
            supplies, sinks = self.split_by_degree(g, range(first, last))
            bound = min(sum(supplies.values()), sum(sinks.values()))
            problem = FlowProblem(g, supplies, sinks, flow_bound=bound, capacity_scale=16)
            res = max_flow(problem)
            assert_matches_reference(problem, res)
            assert res.value < bound and added[-1] >= 8

    def test_freed_orphan_wakes_its_neighbours(self, monkeypatch):
        # Here a vertex leaves the source tree while the neighbours with
        # residual capacity into it have been scanned: unless they become
        # active again, nothing brings it back, and the search stops at
        # 87 of the 95 units.
        added = returns_of(monkeypatch, "_search_trees")
        g = gen_cycle_plus_chords(41, 13, seed=94, max_cap=3)
        supplies, sinks = self.split_by_degree(g, range(6, 22))
        problem = FlowProblem(g, supplies, sinks, capacity_scale=16)
        res = max_flow(problem)
        assert_matches_reference(problem, res)
        assert res.value == 95 and added[0] > 0

    def test_dense_graphs_where_orphans_leave_their_tree(self, monkeypatch):
        # 80 edges on 14 vertices; in seeds 1 and 3-5 some orphan finds
        # no new parent, leaves its tree and orphans its children.
        added = returns_of(monkeypatch, "_search_trees")
        for seed in range(6):
            g = gen_random_gnm(14, 80, seed=seed)
            problem = FlowProblem(g, dict.fromkeys(range(1, 7), 3), dict.fromkeys(range(7, 14), 3))
            assert_matches_reference(problem, max_flow(problem))
        assert all(added)

    # Supply at 1, sink at 5: the 4-arc step takes 1 -> 2 -> 5 and the
    # search trees take 1 -> 3 -> 4 -> 5.
    TWO_ROUTES = [(1, 2, 1), (2, 5, 1), (1, 3, 1), (3, 4, 1), (4, 5, 1)]

    @pytest.mark.parametrize("supply, bound, capped", [
        (5, None, False),  # both routes saturate: a maximum flow
        (5, 2, True),  # the bound is met inside the search
        (2, 3, False),  # the supply runs out inside the search, below the bound
    ], ids=["maximum", "bound-met", "supply-runs-out"])
    def test_two_routes_match_enumeration(self, monkeypatch, supply, bound, capped):
        added = returns_of(monkeypatch, "_search_trees")
        g = normalize(self.TWO_ROUTES, 6, 0)
        problem = FlowProblem(g, {1: supply}, {5: 5}, flow_bound=bound)
        res = max_flow(problem)
        assert_matches_reference(problem, res)
        assert res.value == 2 == brute_min_cut(g, {1: supply}, {5: 5})
        assert (res.min_cut_side is None) == capped and added == [1]
        assert res.flow == [1, 1, 1, 1, 1]


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

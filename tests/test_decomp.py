"""Decomposition contract and hierarchy invariants."""
import math
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arborpack import decomp, graphcore
from arborpack.cli import hierarchy_from_json, hierarchy_to_json
from arborpack.decomp import (
    DecompResult,
    Hierarchy,
    _contract_inner_paths,
    _grow_half,
    _lift_side,
    build_hierarchy,
    certification_trials,
    decompose,
)
from arborpack.errors import InternalError, ParameterError
from arborpack.generators import gen_two_cliques_bridge
from arborpack.graphcore import (
    DirectedGraph,
    induced_sccs,
    normalize,
    restricted_degrees,
    scc,
)
from arborpack.maxflow import FlowProblem, max_flow
from arborpack.oracle import bruteforce_cut_expansion
from arborpack.seeds import derive_rng

from .conftest import digraphs, refines

PHI = Fraction(1, 16)


def bidirected_clique(n):
    raw = [(u, v, 1) for u in range(n) for v in range(n) if u != v]
    return normalize(raw, n, 0)



def sub_sccs(g, comp, banned):
    """SCCs of the subgraph induced on `comp` with `banned` edges deleted,
    ordered by smallest member: the reference for the pieces a split
    component leaves."""
    removed = set(banned)
    for eid, (u, v, _c) in enumerate(g.edges):
        if u not in comp or v not in comp:
            removed.add(eid)
    part = scc(g, frozenset(removed))
    return sorted((c for c in part.components if c <= comp), key=min)


class TestSplit:
    @given(digraphs(max_n=8, max_m=30), st.data())
    @settings(max_examples=100)
    def test_one_scc_pass_gives_the_pieces_of_each_side(self, g, data):
        # An SCC C of G - B, split into S and C - S with every crossing
        # edge of one direction added to B, as `decompose` splits it.
        cut = set(
            data.draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=g.m))
        ) & frozenset(range(g.m))
        comps = [c for c in scc(g, frozenset(cut)).components if len(c) > 1]
        assume(comps)
        comp = data.draw(st.sampled_from(comps))
        side = frozenset(
            data.draw(st.sets(st.sampled_from(sorted(comp)), min_size=1,
                              max_size=len(comp) - 1))
        )
        rest = comp - side
        tails, heads = (side, rest) if data.draw(st.booleans()) else (rest, side)
        cut |= {e for e, (u, v, _c) in enumerate(g.edges) if u in tails and v in heads}
        parts = induced_sccs(g, comp, frozenset(cut))
        assert parts == [c for c in scc(g, frozenset(cut)).components if c <= comp]
        for piece in (side, rest):
            assert sub_sccs(g, piece, cut) == [c for c in parts if c <= piece]


class TestDecompose:
    def test_ring_of_cliques_examines_every_piece(self):
        # Three bidirected 5-cliques in a ring, joined both ways by single
        # edges. The first split cuts {1..5} off, the second splits the
        # rest, and each clique is then certified: 2 + 3 rounds. A piece
        # read off G minus only the newest cut edges would merge with the
        # other side through the older ones and never be examined.
        raw = [(0, 1, 1)]
        for k in range(3):
            first, last, nxt = 1 + 5 * k, 5 + 5 * k, 1 + 5 * ((k + 1) % 3)
            raw += [(u, v, 1) for u in range(first, last + 1)
                    for v in range(first, last + 1) if u != v]
            raw += [(last, nxt, 1), (nxt, last, 1)]
        g = normalize(raw, 16, 0)
        res = decompose(g, frozenset(range(g.m)), PHI, seed=1)
        assert [sorted(c) for c in scc(g, res.cut_edges).components] == [
            [0], list(range(1, 6)), list(range(6, 11)), list(range(11, 16))
        ]
        assert res.rounds == 5

    def test_clique_needs_no_cut(self):
        g = bidirected_clique(5)
        res = decompose(g, frozenset(range(g.m)), PHI, seed=1)
        assert res.cut_edges == frozenset()
        # Exhaustive check: the SCC partition already satisfies cut
        # expansion at the target.
        phi_hat = bruteforce_cut_expansion(g, scc(g), frozenset(range(g.m)))
        assert phi_hat >= PHI

    def test_two_cliques_cut_at_the_bridge(self):
        g = gen_two_cliques_bridge(4, seed=0)
        bridges = {
            e for e, (u, v, _c) in enumerate(g.edges)
            if {u, v} == {4, 5}
        }
        res = decompose(g, frozenset(range(g.m)), PHI, seed=1)
        assert res.cut_edges  # the thin bridge violates expansion
        assert res.cut_edges <= bridges
        # Halving contract.
        assert 2 * g.edge_capacity(res.cut_edges) <= g.total_capacity()
        # After the cut, the cliques are separate components and the
        # exhaustive certifier clears the target.
        part = scc(g, res.cut_edges)
        comps = set(part.components)
        assert frozenset(range(1, 5)) in comps
        assert frozenset(range(5, 9)) in comps
        phi_hat = bruteforce_cut_expansion(g, part, frozenset(range(g.m)))
        assert phi_hat >= PHI

    def test_empty_terminals(self):
        g = bidirected_clique(4)
        res = decompose(g, frozenset(), PHI, seed=0)
        assert res.cut_edges == frozenset()

    def test_rejects_bad_phi(self):
        g = bidirected_clique(3)
        with pytest.raises(ParameterError):
            decompose(g, frozenset(range(g.m)), Fraction(3, 2))

    def test_deterministic(self):
        g = gen_two_cliques_bridge(3, seed=5)
        a = decompose(g, frozenset(range(g.m)), PHI, seed=9)
        b = decompose(g, frozenset(range(g.m)), PHI, seed=9)
        assert a == b

    @given(digraphs(max_n=8, max_m=20, max_cap=3))
    @settings(max_examples=30)
    def test_halving_contract_always(self, g):
        res = decompose(g, frozenset(range(g.m)), PHI, seed=3)
        assert 2 * g.edge_capacity(res.cut_edges) <= g.total_capacity()


def assert_hierarchy_invariants(g, h):
    union = set()
    for level in h.levels:
        union |= level
    assert union == set(range(g.m))
    caps = [g.edge_capacity(level) for level in h.levels]
    for i in range(len(caps) - 1):
        assert 2 * caps[i + 1] <= caps[i]
    top = caps[0] if caps else 0
    assert h.L <= (math.ceil(math.log2(top)) if top > 1 else 0) + 1
    for i in range(h.L + 1):
        assert h.partition(i).component(g.source) == frozenset({g.source})
        if i:
            assert refines(h.partition(i - 1), h.partition(i))
    assert all(len(c) == 1 for c in h.partition(0).components)


class TestBuildHierarchy:
    def test_edgeless_graph(self):
        g = normalize([], 3, 0)
        h = build_hierarchy(g)
        assert h.L == 1
        assert h.levels == (frozenset(),)
        assert all(len(c) == 1 for c in h.partition(1).components)

    def test_clique_single_level(self):
        g = bidirected_clique(5)
        h = build_hierarchy(g, PHI, seed=2)
        assert h.L == 1
        nontrivial = [c for c in h.partition(1).components if len(c) > 1]
        assert nontrivial == [frozenset({1, 2, 3, 4})]

    def test_path_single_level_all_singletons(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        h = build_hierarchy(g, PHI, seed=2)
        assert h.L == 1
        assert h.levels == (frozenset({0, 1}),)
        assert all(len(c) == 1 for c in h.partition(1).components)

    def test_two_cliques_two_levels(self):
        g = gen_two_cliques_bridge(4, seed=0)
        h = build_hierarchy(g, PHI, seed=1)
        assert h.L == 2
        comps = set(h.partition(1).components)
        assert frozenset(range(1, 5)) in comps
        assert frozenset(range(5, 9)) in comps

    def test_json_round_trip(self):
        g = gen_two_cliques_bridge(3, seed=4)
        h = build_hierarchy(g, PHI, seed=1)
        data = hierarchy_to_json(h)
        restored = hierarchy_from_json(data, g)
        assert restored == h
        assert restored.graph is g

    @pytest.mark.parametrize("g, L", [
        (normalize([(0, 1, 1), (1, 2, 1)], 3, 0), 1),
        (gen_two_cliques_bridge(4, seed=0), 2),
    ], ids=["path", "two-cliques"])
    def test_build_makes_L_scc_passes(self, monkeypatch, g, L):
        # One per partition, levels 1..L; level 0 is all singletons. The
        # top level's is the graph's own partition, which every
        # `decompose` call reads first.
        calls, passes = [], []
        monkeypatch.setattr(decomp, "scc", lambda *a: calls.append(a) or scc(*a))
        partition = graphcore._scc_partition
        monkeypatch.setattr(graphcore, "_scc_partition",
                            lambda *a: passes.append(a) or partition(*a))
        h = build_hierarchy(g, PHI, seed=1)
        assert h.L == L
        assert len(calls) == len(passes) == L
        assert passes[0] == (g, frozenset())

    def test_levels_are_checked_before_any_scc_pass(self, monkeypatch):
        g = gen_two_cliques_bridge(4, seed=0)
        calls = []
        monkeypatch.setattr(decomp, "scc", lambda *a: calls.append(a) or scc(*a))
        with pytest.raises(InternalError, match="do not cover"):
            Hierarchy(g, PHI, (frozenset(range(1, g.m)),), (PHI,))
        assert calls == []

    def test_source_singleton_is_checked(self):
        # A graph built without `normalize` may put the source on a cycle.
        g = DirectedGraph(n=2, edges=((0, 1, 1), (1, 0, 1)), source=0)
        with pytest.raises(InternalError, match="source is not a singleton at level 1"):
            Hierarchy(g, PHI, (frozenset({0, 1}),), (PHI,))

    def test_partitions_are_derived(self):
        g = gen_two_cliques_bridge(4, seed=0)
        h = build_hierarchy(g, PHI, seed=1)
        above = [frozenset().union(*h.levels[i:]) for i in range(h.L + 1)]
        assert h.partitions == tuple(scc(g, up) for up in above)
        assert h.graph is g

    def test_hierarchies_on_different_graphs_differ(self):
        # Reversing the edge tuple keeps n, m, the source and every
        # partition, so only the graph itself tells the two apart.
        g = gen_two_cliques_bridge(3, seed=0)
        flipped = DirectedGraph(n=g.n, edges=g.edges[::-1], source=g.source)
        assert flipped != g
        levels = (frozenset(range(g.m)),)
        a = Hierarchy(g, PHI, levels, (PHI,))
        b = Hierarchy(flipped, PHI, levels, (PHI,))
        assert a.partitions == b.partitions
        assert a != b
        assert a == Hierarchy(g, PHI, levels, (PHI,))

    @given(digraphs(max_n=8, max_m=20, max_cap=3))
    @settings(max_examples=30)
    def test_invariants_on_random_graphs(self, g):
        h = build_hierarchy(g, PHI, seed=7)
        assert_hierarchy_invariants(g, h)
        h.validate()
        assert h.partition(0) == scc(g, frozenset(range(g.m)))


@st.composite
def chain_rich(draw):
    """A small graph whose edges are subdivided into chains, plus chains
    that return to their start, cycles of fresh vertices and parallel
    edges, with capacities 1..5 and a sparse terminal set, so that many
    vertices are terminal-free with one edge in and one out."""
    cap = st.integers(1, 5)
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    raw = []
    fresh = n

    def chain(first, last, inner):
        nonlocal fresh
        path = [first, *range(fresh, fresh + inner), last]
        fresh += inner
        raw.extend((u, v, draw(cap)) for u, v in zip(path, path[1:]))

    for u, v in draw(st.lists(st.tuples(vertex, vertex), min_size=2, max_size=12)):
        chain(u, v, draw(st.integers(0, 3)))
    for u in draw(st.lists(vertex, max_size=2)):
        chain(u, u, draw(st.integers(1, 3)))
    for size in draw(st.lists(st.integers(2, 3), max_size=1)):
        ring = range(fresh, fresh + size)
        fresh += size
        raw.extend((v, ring[(i + 1) % size], draw(cap)) for i, v in enumerate(ring))
    raw += [raw[i] for i in draw(st.lists(st.integers(0, len(raw) - 1), max_size=3))]
    g = normalize(raw, fresh, 0)
    terminals = frozenset(
        draw(st.sets(st.integers(0, g.m - 1), min_size=1, max_size=6)) if g.m else ()
    )
    return g, terminals


def reference_certify(g, comp, deg, phi, rng, trials, routed):
    """The trial loop with every ball grown on the contracted graph, every
    flow on g itself and every demand routed however often it repeats:
    the reference for `_certify_component`. Appends the `(supplies,
    sinks)` of each flow to `routed`."""
    h, new_id, _sides = _contract_inner_paths(g, deg)
    h_comp = frozenset(new_id[v] for v in comp if new_id[v] >= 0)
    h_deg = [deg[v] for v in range(g.n) if new_id[v] >= 0]
    active = [v for v in sorted(comp) if deg[v] > 0]
    if len(active) < 2:
        return None
    sigma = max(1, int(Fraction(1) / phi))
    total = sum(deg[v] for v in active)

    def pick_pivot():
        x = rng.randrange(total)
        for v in active:
            x -= deg[v]
            if x < 0:
                return v
        return active[-1]

    for t in range(trials):
        supplies, sinks = {}, {}
        style = t % 3
        if style == 0:
            for v in active:
                if rng.random() < 0.5:
                    supplies[v] = deg[v]
                else:
                    sinks[v] = deg[v]
        else:
            threshold = rng.uniform(0.7, 1.0)
            ball = _grow_half(
                h, h_comp, h_deg, total, new_id[pick_pivot()], style == 1, threshold
            )
            for v in active:
                if (new_id[v] in ball) == (style == 1):
                    supplies[v] = deg[v]
                else:
                    sinks[v] = deg[v]
        target = min(sum(supplies.values()), sum(sinks.values()))
        if target == 0:
            continue
        routed.append((supplies, sinks))
        res = max_flow(
            FlowProblem(g, supplies, sinks, flow_bound=target, capacity_scale=sigma)
        )
        if res.value < target:
            return frozenset(res.min_cut_side & comp)
    return None


def reference_decompose(g, terminals, phi, seed, routed):
    """`decompose` with `reference_certify` and each split read off an
    SCC pass over the whole graph. Appends to `routed` one list per
    certified component, of the demands its flows route."""
    if not terminals:
        return DecompResult(frozenset(), phi, 0)
    estar_cap = g.edge_capacity(terminals)
    deg = restricted_degrees(g, terminals)
    trials = certification_trials(g.n)
    halvings = rounds = counter = 0
    cut = set()
    pending = deque(sorted(scc(g).components, key=min))
    while pending:
        comp = pending.popleft()
        if len(comp) < 2:
            continue
        rounds += 1
        rng = derive_rng(seed, "certify", halvings, counter)
        counter += 1
        routed.append([])
        viol = reference_certify(g, comp, deg, phi, rng, trials, routed[-1])
        if viol is None:
            continue
        rest = comp - viol
        outgoing = [e for u in viol for e in g.out_edges(u) if g.head(e) in rest and e not in cut]
        incoming = [e for v in viol for e in g.in_edges(v) if g.tail(e) in rest and e not in cut]
        chosen = outgoing if g.edge_capacity(outgoing) <= g.edge_capacity(incoming) else incoming
        if 2 * (g.edge_capacity(cut) + g.edge_capacity(chosen)) > estar_cap:
            halvings += 1
            phi = phi / 2
            pending.appendleft(comp)
            continue
        cut.update(chosen)
        parts = scc(g, frozenset(cut)).components
        for side in (viol, rest):
            pending.extend(c for c in parts if c <= side)
    return DecompResult(frozenset(cut), phi, rounds)


def traced_decompose(g, terminals, phi, seed):
    """`decompose`, and one list per certified component of the demands
    its trials route, in g's ids. Every flow runs on the contracted graph;
    one on g itself, unless nothing contracts, fails the test."""
    h, new_id, _sides = _contract_inner_paths(g, restricted_degrees(g, terminals))
    old_id = [v for v in range(g.n) if new_id[v] >= 0]
    routed = []
    certify, flow = decomp._certify_component, decomp.max_flow

    def certify_spy(*args):
        routed.append([])
        return certify(*args)

    def flow_spy(problem):
        assert problem.graph == h
        routed[-1].append(tuple(
            {old_id[v]: amount for v, amount in side.items()}
            for side in (problem.source_supply, problem.sink_capacity)
        ))
        return flow(problem)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(decomp, "_certify_component", certify_spy)
        patch.setattr(decomp, "max_flow", flow_spy)
        result = decompose(g, terminals, phi, seed)
    return result, routed


def without_repeats(demands):
    """`demands` with each repeat of an earlier one dropped. The reference
    stops at the first demand that fails, so every earlier one passed."""
    kept = []
    for demand in demands:
        if demand not in kept:
            kept.append(demand)
    return kept


class TestContraction:
    @given(chain_rich(), st.sampled_from([Fraction(1, 16), Fraction(1)]),
           st.integers(0, 3))
    @settings(max_examples=150)
    def test_decompose_matches_flows_on_the_whole_graph(self, case, phi, seed):
        # The same cut, and in each component the same demands in the
        # same order, save the repeats of passed ones that `decompose`
        # does not route again.
        g, terminals = case
        expected = []
        result, routed = traced_decompose(g, terminals, phi, seed)
        assert result == reference_decompose(g, terminals, phi, seed, expected)
        assert routed == [without_repeats(demands) for demands in expected]

    @given(chain_rich(), st.sampled_from([1, 16]), st.data())
    @settings(max_examples=150)
    def test_contracted_graph_keeps_every_flow_value(self, case, scale, data):
        g, terminals = case
        h, new_id, _sides = _contract_inner_paths(g, restricted_degrees(g, terminals))
        kept = [v for v in range(g.n) if new_id[v] >= 0]
        assert [new_id[v] for v in kept] == list(range(h.n))
        assert (h is g) == (h.n == g.n)
        amounts = st.dictionaries(st.sampled_from(kept), st.integers(1, 6), max_size=3)
        supplies, sinks = data.draw(amounts), data.draw(amounts)
        on_g = max_flow(FlowProblem(g, supplies, sinks, capacity_scale=scale))
        on_h = max_flow(FlowProblem(
            h,
            {new_id[v]: a for v, a in supplies.items()},
            {new_id[v]: a for v, a in sinks.items()},
            capacity_scale=scale,
        ))
        assert on_h.value == on_g.value

    def test_ring_contracts_to_its_terminals(self):
        # 0 -> 1, a ring 1 -> 2 -> ... -> 8 -> 1 with terminals at 1 and
        # 5, a chain 5 -> 9 -> 5 back to its start and a cycle 10 <-> 11.
        ring = [3, 2, 4, 5, 4, 3, 5, 4]
        raw = [(0, 1, 1)] + [(v, v % 8 + 1, c) for v, c in enumerate(ring, 1)]
        raw += [(5, 9, 1), (9, 5, 1), (10, 11, 1), (11, 10, 1)]
        g = normalize(raw, 12, 0)
        deg = [1 if v in (1, 5) else 0 for v in range(12)]
        h, new_id, sides = _contract_inner_paths(g, deg)
        assert [v for v in range(12) if new_id[v] >= 0] == [0, 1, 5]
        assert h.edges == ((0, 1, 1), (1, 2, 2), (2, 1, 3))
        assert h.source == 0
        # In h's ids 1 and 5 are 1 and 2. Each kept vertex follows its
        # own id. Before the first least edge of its path (2 -> 3 and
        # 6 -> 7) an inner vertex follows the path's start; after it, it
        # needs both ends. 9 follows 5, and the cycle is never reached.
        assert sides == [
            (0,), (1,), (1,), (1, 2), (1, 2), (2,), (2,), (2, 1), (2, 1), (2,), (), (),
        ]
        # With a terminal on every vertex nothing is inner.
        assert _contract_inner_paths(g, [1] * 12)[0] is g

    @given(chain_rich(), st.sampled_from([1, 16]), st.data())
    @settings(max_examples=200)
    def test_lifted_side_is_the_side_a_flow_on_g_leaves(self, case, scale, data):
        # The reference is the flow that `decompose` once ran again on g
        # to read a short trial's side.
        g, terminals = case
        h, new_id, sides = _contract_inner_paths(g, restricted_degrees(g, terminals))
        assume(h is not g)
        kept = [v for v in range(g.n) if new_id[v] >= 0]
        amounts = st.dictionaries(st.sampled_from(kept), st.integers(1, 6), max_size=3)
        supplies, sinks = data.draw(amounts), data.draw(amounts)
        bound = data.draw(st.integers(1, 1 + sum(supplies.values())))
        on_h = max_flow(FlowProblem(
            h,
            {new_id[v]: a for v, a in supplies.items()},
            {new_id[v]: a for v, a in sinks.items()},
            flow_bound=bound,
            capacity_scale=scale,
        ))
        if on_h.value == bound:
            return
        on_g = max_flow(FlowProblem(g, supplies, sinks, flow_bound=bound, capacity_scale=scale))
        assert on_g.value == on_h.value
        assert _lift_side(on_h.min_cut_side, sides, range(g.n)) == on_g.min_cut_side

    def test_every_trial_flow_runs_on_the_contracted_graph(self, monkeypatch):
        # Two bidirected 4-cliques joined both ways by two-edge chains,
        # with the clique edges as terminals. Trials fall short, and each
        # reads its side off its one flow on the contracted graph.
        raw = [(0, 1, 1), (4, 9, 1), (9, 5, 1), (8, 10, 1), (10, 1, 1)]
        for first in (1, 5):
            raw += [(u, v, 1) for u in range(first, first + 4)
                    for v in range(first, first + 4) if u != v]
        g = normalize(raw, 11, 0)
        terminals = frozenset(
            e for e, (u, v, _c) in enumerate(g.edges) if 0 < u < 9 and v < 9
        )
        runs = []

        def spy(problem):
            res = max_flow(problem)
            runs.append((problem.graph, res.value < problem.flow_bound))
            return res

        monkeypatch.setattr(decomp, "max_flow", spy)
        assert decompose(g, terminals, PHI, seed=1).cut_edges
        assert all(graph is not g and graph.n == 9 for graph, _short in runs)
        assert any(short for _graph, short in runs)


def grow_both(g, comp, deg, pivot, forward, threshold):
    """The ball `_grow_half` grows on the graph `_contract_inner_paths`
    makes, in g's vertex ids, and the one it grows on g."""
    total = sum(deg[v] for v in comp)
    h, new_id, _sides = _contract_inner_paths(g, deg)
    old_id = [v for v in range(g.n) if new_id[v] >= 0]
    h_comp = frozenset(new_id[v] for v in comp if new_id[v] >= 0)
    h_deg = [deg[v] for v in old_id]
    ball = _grow_half(h, h_comp, h_deg, total, new_id[pivot], forward, threshold)
    return (
        {old_id[v] for v in ball},
        _grow_half(g, comp, deg, total, pivot, forward, threshold),
    )


class TestGrowHalf:
    @pytest.mark.parametrize(
        "walk_a, walk_b, g_ball",
        [
            # Equal lengths: on g the exit vertex 3 < 7 is scanned first
            # at level 2 and reaches the far end 5.
            ([2, 7, 4], [6, 3, 5], {1, 2, 3, 5, 6, 7}),
            # On g the walk through 7 is one edge shorter, so its far end
            # 5 is reached first.
            ([2, 3, 4], [7, 5], {1, 2, 3, 5, 7}),
        ],
        ids=["equal-walks", "shorter-walk"],
    )
    def test_each_walk_is_one_step(self, walk_a, walk_b, g_ball):
        # 0 -> 1, and two walks from the pivot 1 that return to it
        # through their far ends; only the pivot and the ends are active.
        # Contracted, each walk is one edge, and the first in edge order,
        # to the far end 4, ends the ball.
        raw = [(0, 1, 1)]
        for walk in (walk_a, walk_b):
            path = [1, *walk]
            raw += [(u, v, 1) for u, v in zip(path, path[1:])]
            raw.append((walk[-1], 1, 1))
        n = 1 + max(walk_a + walk_b)
        g = normalize(raw, n, 0)
        deg = [0] * n
        for v in (1, walk_a[-1], walk_b[-1]):
            deg[v] = 1
        comp = frozenset([1, *walk_a, *walk_b])
        assert scc(g).component(1) == comp
        for threshold in (0.7, 1.0):
            ball, ref = grow_both(g, comp, deg, 1, True, threshold)
            assert ball == {1, 4}
            assert ref == g_ball

    def test_ball_on_a_long_ring_costs_its_kept_vertices(self):
        # 0 -> 1 and a ring 1 -> 2 -> ... -> n - 1 -> 1 with terminal
        # degree at four ring vertices: on g the ball grows to about half
        # the ring vertex by vertex; contracted, the ring keeps only its
        # terminals and 1, and the ball takes one step.
        n = 100_000
        raw = [(0, 1, 1)] + [(v, v % (n - 1) + 1, 1) for v in range(1, n)]
        g = normalize(raw, n, 0)
        deg = [0] * n
        for v in (10, 25_000, 50_000, 75_000):
            deg[v] = 1
        comp = frozenset(range(1, n))
        assert _contract_inner_paths(g, deg)[0].n == 6
        ball, ref = grow_both(g, comp, deg, 25_000, True, 1.0)
        assert ball == {25_000, 50_000}
        assert len(ref) == 25_001

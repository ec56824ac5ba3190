"""Arborescence packing: base case, the three level steps, extraction."""
import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack.decomp import DEFAULT_PHI, Hierarchy, build_hierarchy
from arborpack import packing
from arborpack.errors import (
    InternalError,
    InvariantError,
    ParameterError,
    UnsupportedGraphError,
)
from arborpack.generators import (
    gen_known_packing,
    gen_random_gnm,
    gen_two_cliques_bridge,
    instance_stream,
)
from arborpack.graphcore import cut_values, normalize
from arborpack.oracle import (
    bruteforce_rooted_mincut,
    exact_rooted_mincut,
    verify_arborescence,
    verify_packing,
)
from arborpack.packing import (
    ColorState,
    CutFound,
    check_invariants,
    component_flow,
    critical_edges,
    exchange_pass,
    extract_arborescences,
    finalize_coloring,
    init_base_colors,
    pack,
    partition_critical,
    run_level,
    split_colors,
)

from .conftest import digraphs


def _random_arborescence(g, rng):
    """A spanning arborescence of g grown from the source by adding a
    random frontier edge at a time, or None if g has none."""
    seen = {g.source}
    tree = []
    frontier = list(g.out_edges(g.source))
    while frontier:
        e = frontier.pop(rng.randrange(len(frontier)))
        v = g.edges[e][1]
        if v not in seen:
            seen.add(v)
            tree.append(e)
            frontier += g.out_edges(v)
    return tuple(sorted(tree)) if len(seen) == g.n else None


def path3():
    return normalize([(0, 1, 1), (1, 2, 1)], 3, 0)


def rooted_triangle():
    # Source feeding a directed 3-cycle.
    return normalize([(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1)], 4, 0)


def manual_hierarchy(g, levels, phi=DEFAULT_PHI):
    return Hierarchy(
        g,
        phi_target=Fraction(phi),
        levels=tuple(frozenset(l) for l in levels),
        level_phis=tuple(Fraction(phi) for _ in levels),
    )


def reference_critical(hierarchy, i, v):
    """v's level-i critical in-edges by definition: those from another
    level-i component, and those in some E_j with j > i."""
    g = hierarchy.graph
    comp = hierarchy.partition(i).component(v)
    above = frozenset().union(*hierarchy.levels[i:])
    return frozenset(e for e in g.in_edges(v) if g.tail(e) not in comp or e in above)


def reference_partition_critical(g, hierarchy, i, v):
    """The split derived again from partition lookups and in-edge scans,
    and checked to partition v's level-(i-1) critical set: the reference
    for `partition_critical`."""
    comp_i = hierarchy.partition(i).component(v)
    comp_prev = hierarchy.partition(i - 1).component(v)
    above_prev = frozenset().union(*hierarchy.levels[i - 1 :])
    level_i = hierarchy.level_edges(i)

    ex = reference_critical(hierarchy, i, v)
    ey = frozenset(
        e
        for e in g.in_edges(v)
        if g.tail(e) in comp_i and g.tail(e) not in comp_prev and e not in above_prev
    )
    ez = frozenset(e for e in g.in_edges(v) if e in level_i) - ex - ey
    union = ex | ey | ez
    if union != reference_critical(hierarchy, i - 1, v) or len(union) != len(ex) + len(ey) + len(ez):
        raise InternalError(
            f"(E_X, E_Y, E_Z) do not partition the critical set of vertex {v}"
        )
    return tuple(sorted(ex)), tuple(sorted(ey)), tuple(sorted(ez))


def assert_splits_match_reference(g, h) -> list:
    """Compare the split read off `critical_edges(h)` with the reference
    on every level and non-source vertex of h, and check that entry
    L + 1 marks exactly the level-L critical edges; returns the splits
    compared."""
    splits = []
    crit = critical_edges(h)
    for i in range(1, h.L + 1):
        for v in range(g.n):
            if v == g.source:
                continue
            got = partition_critical(h, i, v, crit)
            assert got == reference_partition_critical(g, h, i, v), (i, v)
            splits.append(got)
    top = frozenset().union(*(reference_critical(h, h.L, v) for v in range(g.n)))
    assert top == {e for e in range(g.m) if crit[e] == h.L + 1}
    return splits


def nonnested_hierarchies():
    """L = 3 hierarchies on random unit graphs in which E_3 holds an edge
    outside E_2, with the edges of E_3 - E_2 that each one holds. No
    built hierarchy of `instance_stream` gives one: there L <= 2."""
    for seed in range(30):
        g = gen_random_gnm(8, 24, seed=seed)
        rng = random.Random(seed)
        e2 = frozenset(rng.sample(range(g.m), g.m // 2))
        outside = rng.choice(sorted(frozenset(range(g.m)) - e2))
        e3 = frozenset(rng.sample(sorted(e2), g.m // 4 - 1)) | {outside}
        yield manual_hierarchy(g, [range(g.m), e2, e3]), e3 - e2


class TestInitBaseColors:
    def test_low_in_degree_vertex_yields_cut(self):
        outcome = init_base_colors(path3(), 3)
        assert isinstance(outcome, CutFound)
        assert outcome.source_side == frozenset({0, 2})
        assert cut_values(path3(), outcome.source_side).delta == 1

    def test_k1_gives_every_vertex_the_color(self):
        state = init_base_colors(path3(), 1)
        assert state.vertex_colors == {1: {1}, 2: {1}}
        assert all(cols == set() for cols in state.edge_colors.values())

    def test_parallel_edges_support_k2(self):
        g = normalize([(0, 1, 1), (0, 1, 1)], 2, 0)
        state = init_base_colors(g, 2)
        assert state.vertex_colors[1] == {1, 2}


class TestPartitionCritical:
    def test_two_cliques_merge_fixture(self):
        g = gen_two_cliques_bridge(4, seed=0)
        h = build_hierarchy(g, seed=1)
        assert h.L == 2
        cut_edge = next(iter(h.level_edges(2)))
        a, b, _c = g.edges[cut_edge]  # the promoted bridge, a -> b
        assert {a, b} == {4, 5}
        other = next(
            e for e, (u, v, _) in enumerate(g.edges) if (u, v) == (b, a)
        )
        crit = critical_edges(h)
        # Head of the promoted bridge: its old critical edge is now a
        # level-2 in-edge from inside the merged component (E_Z).
        assert partition_critical(h, 2, b, crit) == ((), (), (cut_edge,))
        # Head of the surviving bridge: its old critical edge arrives from
        # the newly merged region at a lower level (E_Y).
        assert partition_critical(h, 2, a, crit) == ((), (other,), ())
        # A vertex whose critical edges all come from outside the merged
        # component keeps them in E_X.
        source_edge = next(e for e, (u, v, _) in enumerate(g.edges) if u == 0)
        head = g.head(source_edge)
        assert partition_critical(h, 2, head, crit) == ((source_edge,), (), ())

    def test_degenerate_when_nothing_merges(self):
        g = rooted_triangle()
        h = build_hierarchy(g, seed=1)
        assert h.L == 1
        ex, ey, ez = partition_critical(h, 1, 1, critical_edges(h))
        assert ex == tuple(sorted(reference_critical(h, 1, 1)))
        assert ey == ()

    @given(digraphs(min_n=2, max_n=9, max_m=30, max_cap=3), st.integers(0, 2**16))
    @settings(max_examples=60)
    def test_matches_reference_on_random_hierarchies(self, g, seed):
        assert_splits_match_reference(g, build_hierarchy(g, seed=seed))

    def test_matches_reference_on_instance_stream(self):
        splits = []
        for seed in (1, 2, 3):
            for _name, g in instance_stream(100, seed=seed, n_max=40, m_max=200, max_cap=4):
                splits += assert_splits_match_reference(g, build_hierarchy(g, seed=seed))
        # Every part of the split occurs, so each was compared nonempty.
        assert len(splits) > 3000
        assert all(any(split[part] for split in splits) for part in range(3))

    def test_matches_reference_where_a_level_set_does_not_nest(self):
        # An edge of E_3 - E_2 lies above level 2, so it is critical there
        # even where its ends share a level-2 component.
        in_ez = shared = 0
        for h, outside in nonnested_hierarchies():
            g = h.graph
            assert h.L == 3
            splits = assert_splits_match_reference(g, h)
            in_ez += sum(e in split[2] for split in splits for e in outside)
            part = h.partition(2)
            shared += sum(part.comp_of[g.tail(e)] == part.comp_of[g.head(e)] for e in outside)
        assert in_ez and shared, (in_ez, shared)


class TestCriticalTable:
    def test_pack_builds_one_table_and_every_step_reads_it(self, monkeypatch):
        built, read = [], []
        build, run, finalize = packing.critical_edges, packing.run_level, packing.finalize_coloring

        def counting(hierarchy):
            built.append(build(hierarchy))
            return built[-1]

        def run_level_reading(hierarchy, i, state, crit):
            read.append(crit)
            return run(hierarchy, i, state, crit)

        def finalize_reading(hierarchy, state, crit):
            read.append(crit)
            return finalize(hierarchy, state, crit)

        monkeypatch.setattr(packing, "critical_edges", counting)
        monkeypatch.setattr(packing, "run_level", run_level_reading)
        monkeypatch.setattr(packing, "finalize_coloring", finalize_reading)
        result = pack(gen_two_cliques_bridge(4, seed=0), 1, seed=7)
        assert result.kind == "arborescences"
        assert result.levels == 2
        assert len(built) == 1
        assert len(read) == 3 and all(crit is built[0] for crit in read)


class TestSplitColors:
    def test_empty(self):
        assert split_colors(set(), (2, 2, 2)) == (set(), set(), set())

    def test_forced_into_x(self):
        assert split_colors({1, 2}, (2, 0, 0)) == ({1, 2}, set(), set())

    def test_fill_order_ascending(self):
        assert split_colors({3, 1, 2}, (1, 1, 1)) == ({1}, {2}, {3})

    def test_overflow_rejected(self):
        with pytest.raises(InvariantError):
            split_colors({1, 2, 3}, (1, 1, 0))


def flow_inputs(g, level_edges, deltas):
    """The level-edge in-degree list and a critical-edge table in which
    the first deltas.get(v, 0) in-edges of vertex v, and no others, are
    critical at level 1, as `run_level` hands them to `component_flow`."""
    indeg = [sum(1 for e in g.in_edges(v) if e in level_edges) for v in range(g.n)]
    crit = [1] * g.m
    for v, delta in deltas.items():
        assert len(g.in_edges(v)) >= delta
        for e in g.in_edges(v)[:delta]:
            crit[e] = 2
    return indeg, tuple(crit)


class TestComponentFlow:
    def test_no_z_colors_no_state_change(self):
        g = rooted_triangle()
        indeg, crit = flow_inputs(g, frozenset(range(g.m)), {1: 1})
        outcome = component_flow(
            g, indeg, 1, frozenset({1, 2, 3}), crit, set(), 2
        )
        assert outcome == {}

    def test_thin_component_cut_case(self):
        # Bidirected triangle fed by a single edge cannot support k = 2.
        raw = [(0, 1, 1)] + [
            (u, v, 1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v
        ]
        g = normalize(raw, 4, 0)
        indeg, crit = flow_inputs(g, frozenset(range(g.m)), {1: 1})
        outcome = component_flow(
            g, indeg, 1, frozenset({1, 2, 3}), crit, {1, 2}, 2
        )
        assert isinstance(outcome, CutFound)
        cstar = frozenset(range(g.n)) - outcome.source_side
        assert cstar <= frozenset({1, 2, 3})
        assert cut_values(g, cstar).rho < 2

    def test_two_disjoint_paths_and_leaders(self):
        # Vertex 1 has two critical in-edges, one from the source.
        g = normalize(
            [(1, 2, 1), (1, 3, 1), (2, 4, 1), (3, 4, 1), (4, 1, 1), (0, 1, 1)], 5, 0
        )
        level = frozenset({2, 3})  # the two edges into vertex 4
        indeg, crit = flow_inputs(g, level, {1: 2})
        outcome = component_flow(
            g, indeg, 1, frozenset({1, 2, 3, 4}), crit, {1, 2}, 2
        )
        assert sorted(p.vertices for p in outcome.values()) == [
            (1, 2, 4),
            (1, 3, 4),
        ]
        assert {gamma: p.vertices[-1] for gamma, p in outcome.items()} == {1: 4, 2: 4}
        used = [e for p in outcome.values() for e in p.edges]
        assert len(used) == len(set(used))


class TestRunLevel:
    def test_identical_partitions_are_a_no_op(self):
        # E_2 holds only the source edge, so level-1 and level-2 SCCs agree
        # and every vertex keeps its colors in X; no flow, no routing.
        g = rooted_triangle()
        h = manual_hierarchy(g, [frozenset({1, 2, 3}), frozenset({0})])
        crit = critical_edges(h)
        state = init_base_colors(g, 1)
        s1 = run_level(h, 1, state, crit)
        assert isinstance(s1, ColorState)
        s2 = run_level(h, 2, s1, crit)
        assert isinstance(s2, ColorState)
        assert s2.vertex_colors == s1.vertex_colors
        assert s2.edge_colors == s1.edge_colors
        assert s2.level_log[-1]["demand_pairs"] == 0

    def test_single_color_threads_flow_and_chain(self):
        g = rooted_triangle()
        h = build_hierarchy(g, seed=1)
        assert h.L == 1
        state = init_base_colors(g, 1)
        out = run_level(h, 1, state, critical_edges(h))
        assert isinstance(out, ColorState)
        assert check_invariants(h, 1, out, critical_edges(h)) == []
        # The color's demand tree colors edges inside the cycle.
        colored = {e for e, cols in out.edge_colors.items() if cols}
        assert colored

    def test_cut_case_propagates(self):
        raw = [(0, 1, 1)] + [
            (u, v, 1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v
        ]
        g = normalize(raw, 4, 0)
        h = build_hierarchy(g, seed=1)
        state = init_base_colors(g, 2)
        assert isinstance(state, ColorState)  # in-degrees are all >= 2
        out = run_level(h, 1, state, critical_edges(h))
        assert isinstance(out, CutFound)
        assert 0 in out.source_side

    def test_corrupted_state_fails_invariant_check(self):
        g = rooted_triangle()
        h = build_hierarchy(g, seed=1)
        state = init_base_colors(g, 1)
        out = run_level(h, 1, state, critical_edges(h))
        out.vertex_colors[1] = set()
        out.edge_colors[0] = set()
        assert check_invariants(h, 1, out, critical_edges(h))


class TestCheckInvariants:
    def test_a_color_reaches_its_component_only_through_its_own_edges(self):
        # Level 1 splits {1, 2} from {3}: the edges 1 -> 3 and 3 -> 2 lie
        # above it (the doubled edges between 1 and 2 keep the halving).
        # Color 1 reaches 2 from 1 only by way of 3, which is not
        # Invariant 1; the edge 1 -> 2 inside the component is.
        g = normalize(
            [(0, 1, 1), (1, 2, 1), (2, 1, 1), (1, 3, 1), (3, 2, 1), (1, 2, 1), (2, 1, 1)],
            4,
            0,
        )
        h = manual_hierarchy(g, [{0, 1, 2, 5, 6}, {3, 4}])
        assert h.partition(1).components == (frozenset({0}), frozenset({1, 2}), frozenset({3}))
        edge_colors = {e: set() for e in range(g.m)}
        edge_colors[3] = {1}
        edge_colors[4] = {1}
        state = ColorState(1, 1, edge_colors, {1: {1}, 2: set(), 3: {1}}, Fraction(1))
        assert check_invariants(h, 1, state, critical_edges(h)) == [
            "color 1: vertex 2 unreachable from a colored vertex of its component (invariant 1)"
        ]
        edge_colors[1] = {1}
        assert check_invariants(h, 1, state, critical_edges(h)) == []

    def test_overfull_vertex_and_edge_break_invariants_2_and_3(self, monkeypatch):
        # Vertex 1 has one in-edge critical at level 1, so it may hold
        # 2 colors, and an edge may hold 5 * 1^2 * 1. Colors above k = 1
        # count toward both bounds and leave Invariant 1 alone.
        g = rooted_triangle()
        h = build_hierarchy(g, seed=1)
        crit = critical_edges(h)
        state = run_level(h, 1, init_base_colors(g, 1), crit)
        assert check_invariants(h, 1, state, crit) == []
        state.vertex_colors[1] |= {2, 3}
        state.edge_colors[1] |= set(range(2, 7))
        messages = [
            "vertex 1 holds 3 colors, bound is 2 (invariant 2)",
            "edge 1 holds 6 colors, bound is 5 (invariant 3)",
        ]
        assert check_invariants(h, 1, state, crit) == messages
        # A step 1 that keeps every color in X hands the same coloring on
        # from level 0, and run_level's own check rejects it.
        monkeypatch.setattr(packing, "split_colors", lambda colors, _caps: (set(colors), set(), set()))
        with pytest.raises(InvariantError) as err:
            run_level(h, 1, replace(state, level=0), crit)
        assert str(err.value) == "; ".join(messages)


class TestFinalizeColoring:
    def test_no_vertex_colors_keeps_edge_colors(self):
        g = rooted_triangle()
        h = build_hierarchy(g, seed=1)
        state = ColorState(
            level=h.L,
            k=1,
            edge_colors={e: ({1} if e == 0 else set()) for e in range(g.m)},
            vertex_colors={v: set() for v in range(1, g.n)},
            route_factor=Fraction(1),
        )
        final = finalize_coloring(h, state, critical_edges(h))
        assert final[0] == frozenset({1})
        assert all(not final[e] for e in range(1, g.m))

    def test_forced_onto_single_critical_edge(self):
        g = normalize([(0, 1, 1)], 2, 0)
        h = build_hierarchy(g, seed=1)
        state = ColorState(
            level=h.L,
            k=2,
            edge_colors={0: set()},
            vertex_colors={1: {1, 2}},
            route_factor=Fraction(1),
        )
        final = finalize_coloring(h, state, critical_edges(h))
        assert final[0] == frozenset({1, 2})

    def test_round_robin_quota(self):
        g = normalize([(0, 1, 1), (0, 1, 1)], 2, 0)
        h = build_hierarchy(g, seed=1)
        assert h.L == 1
        state = ColorState(
            level=1,
            k=4,
            edge_colors={0: set(), 1: set()},
            vertex_colors={1: {1, 2, 3, 4}},
            route_factor=Fraction(1),
        )
        final = finalize_coloring(h, state, critical_edges(h))
        assert final[0] == frozenset({1, 3})
        assert final[1] == frozenset({2, 4})


class TestExtractArborescences:
    # Bound 1 passes and bound 0 fails: the trees have congestion 1.
    def test_single_colored_path(self):
        g = path3()
        coloring = {0: frozenset({1}), 1: frozenset({1})}
        assert extract_arborescences(g, coloring, 1, 1) == ((0, 1),)
        with pytest.raises(InvariantError, match="tree congestion 1"):
            extract_arborescences(g, coloring, 1, 0)

    def test_two_parallel_trees(self):
        g = normalize([(0, 1, 1), (0, 1, 1)], 2, 0)
        coloring = {0: frozenset({1}), 1: frozenset({2})}
        assert extract_arborescences(g, coloring, 2, 1) == ((0,), (1,))
        with pytest.raises(InvariantError, match="tree congestion 1"):
            extract_arborescences(g, coloring, 2, 0)

    def test_uncolored_vertex_fails_loudly(self):
        from arborpack.errors import PropertyOneError

        g = path3()
        with pytest.raises(PropertyOneError):
            extract_arborescences(g, {0: frozenset({1}), 1: frozenset()}, 1, 1)


class TestPack:
    def test_k1_on_strongly_connected(self):
        g = rooted_triangle()
        result = pack(g, 1, seed=3)
        assert result.kind == "arborescences"
        assert result.congestion == 1
        assert verify_packing(g, result)["ok"]

    def test_glued_arborescences_pack_fully(self):
        g = gen_known_packing(8, 2, seed=11)
        result = pack(g, 2, seed=4)
        assert result.kind == "arborescences"
        assert verify_packing(g, result)["ok"]

    def test_infeasible_k_returns_certifying_cut(self):
        g = path3()
        result = pack(g, 2, seed=0)
        assert result.kind == "cut"
        assert 0 in result.cut_vertices
        assert result.cut_delta < 2
        exact, _ = exact_rooted_mincut(g)
        assert exact < 2

    def test_unreachable_vertex_is_a_zero_cut(self):
        g = normalize([(0, 1, 1), (2, 1, 1)], 3, 0)
        result = pack(g, 1, seed=0)
        assert result.kind == "cut"
        assert result.cut_vertices == frozenset({0, 1})
        assert result.cut_delta == 0

    def test_weighted_input_rejected(self):
        g = normalize([(0, 1, 2)], 2, 0)
        with pytest.raises(UnsupportedGraphError):
            pack(g, 1)

    def test_bad_k_rejected(self):
        with pytest.raises(ParameterError):
            pack(path3(), 0)

    def test_single_vertex_graph(self):
        g = normalize([], 1, 0)
        result = pack(g, 3, seed=0)
        assert result.kind == "arborescences"
        assert result.trees == ((), (), ())
        assert result.congestion == 0

    def test_deterministic(self):
        g = gen_known_packing(7, 2, seed=5)
        assert pack(g, 2, seed=9) == pack(g, 2, seed=9)

    @given(
        st.sampled_from(["known_packing", "random_gnm"]),
        st.integers(3, 14),
        st.integers(1, 3),
        st.integers(0, 10**6),
    )
    @settings(max_examples=25)
    def test_exchange_pass_keeps_trees_and_congestion(self, kind, n, k, seed):
        if kind == "known_packing":
            g = gen_known_packing(n, k, seed=seed)
        else:
            g = gen_random_gnm(n, 3 * n, seed=seed)
        extracted = []

        def spy(*args):
            extracted.append(extract_arborescences(*args))
            return extracted[-1]

        with mock.patch("arborpack.packing.extract_arborescences", spy):
            result = pack(g, k, seed=seed)
            assert pack(g, k, seed=seed) == result
        assert verify_packing(g, result)["ok"]
        if result.kind == "arborescences":
            load = Counter(e for tree in extracted[0] for e in tree)
            assert result.congestion <= max(load.values(), default=0)
            assert exchange_pass(g, extracted[0]) == (result.trees, result.congestion)
            # A second pass moves nothing, and no pass beats ceil(k / lambda).
            assert exchange_pass(g, result.trees) == (result.trees, result.congestion)
            assert result.congestion >= -(-k // bruteforce_rooted_mincut(g)[0])

    def test_exchange_pass_moves_off_a_shared_edge(self):
        # Both trees use 0 -> 1; vertex 1's other in-edge comes from 2,
        # which is in 1's subtree in tree 1 only, so tree 2 moves there.
        g = normalize([(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 1, 1)], 3, 0)
        trees, congestion = exchange_pass(g, [(0, 1), (0, 2)])
        assert trees == ((0, 1), (2, 3))
        assert congestion == 1

    def test_exchange_pass_needs_a_load_gap_of_two(self):
        # Moving a tree from edge 0 (load 2) to edge 1 (load 1) would only
        # swap the two loads, so nothing moves.
        g = normalize([(0, 1, 1), (0, 1, 1)], 2, 0)
        assert exchange_pass(g, [(0,), (0,), (1,)]) == (((0,), (0,), (1,)), 2)

    def test_exchange_pass_rehangs_a_subtree(self):
        # Both trees enter {1, 2} over edge 0. Vertex 1's other in-edge
        # comes from 2, below it in both trees, and vertex 2's parent edge
        # has load 1, so no swap applies. Tree 1's subtree {1, 2} can hang
        # from 3 -> 2 instead, with 2 -> 1 inside it.
        g = normalize(
            [(0, 1, 1), (1, 2, 1), (2, 1, 1), (3, 2, 1), (0, 3, 1), (0, 3, 1), (1, 2, 1)],
            4,
            0,
        )
        trees, congestion = exchange_pass(g, [(0, 1, 4), (0, 5, 6)])
        assert trees == ((2, 3, 4), (0, 5, 6))
        assert congestion == 1
        assert all(verify_arborescence(g, tree) == (True, None) for tree in trees)

    def test_exchange_pass_rehangs_only_over_lighter_edges(self):
        # As above, but a third tree holds 2 -> 1 (edge 2), so rewiring
        # tree 1 over it would only move load 2 from edge 0 to edge 2:
        # nothing moves. Three trees need congestion 2 here anyway.
        g = normalize(
            [(0, 1, 1), (1, 2, 1), (2, 1, 1), (3, 2, 1), (0, 3, 1), (0, 3, 1), (1, 2, 1),
             (0, 3, 1), (3, 2, 1)],
            4,
            0,
        )
        trees = ((0, 1, 4), (0, 5, 6), (2, 7, 8))
        assert exchange_pass(g, trees) == (trees, 2)

    @given(st.integers(2, 10), st.integers(2, 4), st.integers(0, 10**6))
    @settings(max_examples=100)
    def test_exchange_pass_on_copies_of_one_tree(self, n, k, seed):
        # k copies of one random arborescence of a random unit graph load
        # every edge they use k times, so re-hangs apply far more often
        # than on the trees `pack` extracts.
        g = gen_random_gnm(n, 3 * n, seed=seed)
        tree = _random_arborescence(g, random.Random(seed))
        if tree is None:
            return
        moved, congestion = exchange_pass(g, [tree] * k)
        assert all(verify_arborescence(g, t) == (True, None) for t in moved)
        assert congestion <= k
        assert exchange_pass(g, moved) == (moved, congestion)
        assert congestion >= -(-k // bruteforce_rooted_mincut(g)[0])

    @given(digraphs(min_n=2, max_n=7, max_m=18))
    @settings(max_examples=20)
    def test_dichotomy_on_random_graphs(self, g):
        exact, _ = exact_rooted_mincut(g)
        for k in (1, 2):
            result = pack(g, k, seed=6)
            report = verify_packing(g, result)
            assert report["ok"], report
            if result.kind == "cut":
                assert exact < k

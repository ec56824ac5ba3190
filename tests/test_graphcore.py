"""Graph core: normalization, SCCs, cuts, degrees."""
import itertools
from collections import deque

import pytest
from hypothesis import given
from hypothesis import strategies as st

from arborpack.errors import InputError
from arborpack.graphcore import (
    MAX_EDGES,
    DirectedGraph,
    _tarjan,
    cut_values,
    edges_within,
    induced_sccs,
    normalize,
    restricted_degrees,
    scc,
)

from .conftest import digraphs, refines


class TestNormalize:
    def test_drops_loops_and_source_incoming(self):
        g = normalize([(0, 1, 1), (1, 0, 1), (1, 1, 1)], 2, 0)
        assert g.edges == ((0, 1, 1),)

    def test_empty_edge_set(self):
        g = normalize([], 3, 0)
        assert g.m == 0

    def test_already_normalized_preserved(self):
        g = normalize([(0, 1, 5), (1, 2, 3)], 3, 0)
        assert g.edges == ((0, 1, 5), (1, 2, 3))

    def test_rejects_bad_vertex(self):
        with pytest.raises(InputError):
            normalize([(0, 5, 1)], 3, 0)

    def test_rejects_bad_source(self):
        with pytest.raises(InputError):
            normalize([], 3, 7)

    def test_rejects_zero_capacity(self):
        with pytest.raises(InputError):
            normalize([(0, 1, 0)], 2, 0)

    def test_rejects_huge_capacity(self):
        with pytest.raises(InputError):
            normalize([(0, 1, 1 << 41)], 2, 0)

    def test_rejects_too_many_edges_before_reading_one(self):
        class TooMany:
            """A sequence one edge past the bound that fails when read."""

            def __len__(self):
                return MAX_EDGES + 1

            def __iter__(self):
                raise AssertionError("an edge was read")

        with pytest.raises(InputError, match=r"edge count 16777217 exceeds bound 2\^24"):
            normalize(TooMany(), 2, 0)


def cycle3():
    # a -> b -> c -> a over vertices 1..3, source 0 kept isolated
    return normalize([(1, 2, 1), (2, 3, 1), (3, 1, 1)], 4, 0)


class TestScc:
    def test_cycle_is_one_component(self):
        g = cycle3()
        part = scc(g)
        assert frozenset({1, 2, 3}) in part.components

    def test_removed_edge_splits_cycle(self):
        g = cycle3()
        closing = next(e for e, (u, v, _) in enumerate(g.edges) if (u, v) == (3, 1))
        part = scc(g, frozenset({closing}))
        assert all(len(c) == 1 for c in part.components)

    def test_two_disjoint_cycles(self):
        g = normalize([(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1)], 5, 0)
        part = scc(g)
        assert frozenset({1, 2}) in part.components
        assert frozenset({3, 4}) in part.components

    def test_deterministic_numbering_by_min_member(self):
        g = normalize([(2, 1, 1), (1, 2, 1)], 3, 0)
        part = scc(g)
        assert part.components[0] == frozenset({0})
        assert part.components[1] == frozenset({1, 2})

    @given(digraphs(max_n=7, max_m=16), st.data())
    def test_refinement_monotone_under_removal(self, g, data):
        small = frozenset(
            data.draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=g.m))
        ) & frozenset(range(g.m))
        extra = frozenset(
            data.draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=g.m))
        ) & frozenset(range(g.m))
        coarse = scc(g, small)
        fine = scc(g, small | extra)
        assert refines(fine, coarse)

    @given(digraphs(max_n=7, max_m=16))
    def test_deterministic(self, g):
        assert scc(g) == scc(g)


def reachability_classes(g, vertices, removed):
    """The classes of mutual reachability among `vertices` in the
    subgraph they induce in g minus `removed`, by a BFS from each vertex,
    ordered by smallest member."""
    out = {v: [] for v in vertices}
    for eid, (u, v, _c) in enumerate(g.edges):
        if eid not in removed and u in out and v in out:
            out[u].append(v)
    reach = {}
    for start in vertices:
        seen, queue = {start}, deque([start])
        while queue:
            for w in out[queue.popleft()]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        reach[start] = seen
    classes = {frozenset(w for w in reach[v] if v in reach[w]) for v in vertices}
    return sorted(classes, key=min)


def reference_tarjan(n, adj, roots):
    """Tarjan's SCCs with a work stack that re-pushes `(v, ptr + 1)` for
    each edge it descends: the reference for `_tarjan`'s groups and their
    order."""
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    stack = []
    groups = []
    counter = 1
    for root in roots:
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, ptr = work.pop()
            if ptr == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            recurse = False
            while ptr < len(adj[v]):
                w = adj[v][ptr]
                if not visited[w]:
                    work.append((v, ptr + 1))
                    work.append((w, 0))
                    recurse = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
                ptr += 1
            if recurse:
                continue
            if low[v] == index[v]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp.append(w)
                    if w == v:
                        break
                groups.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return groups


class TestSccPasses:
    @given(digraphs(max_n=9, max_m=30), st.data())
    def test_components_are_the_mutual_reachability_classes(self, g, data):
        ids = st.sets(st.integers(0, max(g.m - 1, 0)), max_size=g.m)
        removed = frozenset(data.draw(ids)) & frozenset(range(g.m))
        vertices = frozenset(data.draw(st.sets(st.integers(0, g.n - 1))))
        everything = reachability_classes(g, range(g.n), removed)
        assert list(scc(g, removed).components) == everything
        if not removed:
            assert g.sccs.components == scc(g).components
        assert induced_sccs(g, vertices, removed) == reachability_classes(g, vertices, removed)

    @given(st.integers(1, 10).flatmap(lambda n: st.tuples(
        st.lists(st.lists(st.integers(0, n - 1), max_size=5), min_size=n, max_size=n),
        st.permutations(range(n)),
        st.integers(0, n),
    )))
    def test_tarjan_gives_the_reference_groups_in_order(self, case):
        adj, order, count = case
        roots = order[:count]
        assert _tarjan(len(adj), adj, roots) == reference_tarjan(len(adj), adj, roots)
        as_dict = dict(enumerate(adj))
        assert _tarjan(len(adj), as_dict, roots) == reference_tarjan(len(adj), adj, roots)

    def test_long_path_and_long_cycle(self):
        # Searches 100,000 vertices deep without recursion.
        n = 100_000
        path = normalize([(v, v + 1, 1) for v in range(n - 1)], n, 0)
        assert scc(path).components == tuple(frozenset((v,)) for v in range(n))
        ring = DirectedGraph(n=n, edges=tuple((v, (v + 1) % n, 1) for v in range(n)), source=0)
        assert scc(ring).components == (frozenset(range(n)),)
        assert induced_sccs(ring, frozenset(range(n)), frozenset()) == [frozenset(range(n))]


class TestCutValues:
    def test_path_middle(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        assert cut_values(g, {1}) == (1, 1)

    def test_whole_vertex_set(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        assert cut_values(g, {0, 1, 2}) == (0, 0)

    def test_bidirected_triangle_singleton(self):
        # Six unit edges; either direction of the two incident pairs crosses.
        raw = [(u, v, 1) for u in (1, 2, 3) for v in (1, 2, 3) if u != v]
        g = normalize(raw, 4, 0)
        assert cut_values(g, {2}) == (2, 2)

    @given(digraphs(max_n=6, max_m=14, max_cap=3))
    def test_delta_equals_rho_of_reversal(self, g):
        reversed_g = DirectedGraph(
            n=g.n,
            edges=tuple((v, u, c) for u, v, c in g.edges),
            source=g.source,
        )
        for r in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), r):
                s = set(combo)
                assert cut_values(g, s).delta == cut_values(reversed_g, s).rho


    @given(digraphs(max_n=6, max_m=14, max_cap=3), st.booleans())
    def test_matches_a_scan_of_every_edge(self, g, loops):
        # Every subset, with ids outside 0..n-1 that add nothing, on
        # graphs that may keep self-loops (built without `normalize`).
        if loops:
            g = DirectedGraph(n=g.n, edges=g.edges + ((1, 1, 2),), source=g.source)
        for r in range(g.n + 1):
            for combo in itertools.combinations(range(g.n), r):
                s = set(combo)
                delta = sum(c for u, v, c in g.edges if u in s and v not in s)
                rho = sum(c for u, v, c in g.edges if v in s and u not in s)
                assert cut_values(g, s) == (delta, rho)
                assert cut_values(g, s | {-1, g.n, g.n + 3}) == (delta, rho)


@given(digraphs(max_n=7, max_m=20, max_cap=3), st.data())
def test_edges_within_matches_a_scan_of_every_edge(g, data):
    # Ids outside 0..n-1 name no vertex and add nothing.
    ids = data.draw(st.sets(st.integers(-1, g.n)))
    inside = {eid for eid, (u, v, _c) in enumerate(g.edges) if u in ids and v in ids}
    assert edges_within(g, ids) == frozenset(inside)
    assert edges_within(g, list(ids) + [-1, g.n]) == frozenset(inside)


class TestRestrictedDegrees:
    def test_empty_filter(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        assert restricted_degrees(g, ()) == [0, 0, 0]

    def test_full_path(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        assert restricted_degrees(g, range(g.m))[1] == 2

    def test_weighted_single_edge(self):
        g = normalize([(1, 2, 3), (2, 1, 1)], 3, 0)
        eid = next(e for e, (u, v, _) in enumerate(g.edges) if (u, v) == (1, 2))
        assert restricted_degrees(g, (eid,)) == [0, 3, 3]

    @given(digraphs(max_n=6, max_m=14, max_cap=4), st.data())
    def test_degree_sums_match_filter_capacity(self, g, data):
        chosen = frozenset(
            data.draw(st.sets(st.integers(0, max(g.m - 1, 0)), max_size=g.m))
        ) & frozenset(range(g.m))
        deg = restricted_degrees(g, chosen)
        assert sum(deg) == 2 * g.edge_capacity(chosen)

"""Decomposition contract and hierarchy invariants."""
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arborpack.decomp import build_hierarchy, decompose, hierarchy_from_json
from arborpack.errors import ParameterError
from arborpack.generators import gen_two_cliques_bridge
from arborpack.graphcore import normalize, scc
from arborpack.oracle import bruteforce_cut_expansion

from .conftest import digraphs

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
        ) & g.edge_set()
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
        parts = scc(g, frozenset(cut)).components
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
        res = decompose(g, g.edge_set(), PHI, seed=1)
        assert [sorted(c) for c in scc(g, res.cut_edges).components] == [
            [0], list(range(1, 6)), list(range(6, 11)), list(range(11, 16))
        ]
        assert res.rounds == 5

    def test_clique_needs_no_cut(self):
        g = bidirected_clique(5)
        res = decompose(g, g.edge_set(), PHI, seed=1)
        assert res.cut_edges == frozenset()
        # Exhaustive check: the SCC partition already satisfies cut
        # expansion at the target.
        phi_hat = bruteforce_cut_expansion(g, scc(g), g.edge_set())
        assert phi_hat >= PHI

    def test_two_cliques_cut_at_the_bridge(self):
        g = gen_two_cliques_bridge(4, seed=0)
        bridges = {
            e for e, (u, v, _c) in enumerate(g.edges)
            if {u, v} == {4, 5}
        }
        res = decompose(g, g.edge_set(), PHI, seed=1)
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
        phi_hat = bruteforce_cut_expansion(g, part, g.edge_set())
        assert phi_hat >= PHI

    def test_empty_terminals(self):
        g = bidirected_clique(4)
        res = decompose(g, frozenset(), PHI, seed=0)
        assert res.cut_edges == frozenset()

    def test_rejects_bad_phi(self):
        g = bidirected_clique(3)
        with pytest.raises(ParameterError):
            decompose(g, g.edge_set(), Fraction(3, 2))

    def test_deterministic(self):
        g = gen_two_cliques_bridge(3, seed=5)
        a = decompose(g, g.edge_set(), PHI, seed=9)
        b = decompose(g, g.edge_set(), PHI, seed=9)
        assert a == b

    @given(digraphs(max_n=8, max_m=20, max_cap=3))
    @settings(max_examples=30)
    def test_halving_contract_always(self, g):
        res = decompose(g, g.edge_set(), PHI, seed=3)
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
            assert h.partition(i - 1).refines(h.partition(i))
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
        data = h.to_json_dict()
        restored = hierarchy_from_json(data)
        restored.validate(g)
        assert restored.levels == h.levels
        assert restored.partitions == h.partitions

    @given(digraphs(max_n=8, max_m=20, max_cap=3))
    @settings(max_examples=30)
    def test_invariants_on_random_graphs(self, g):
        h = build_hierarchy(g, PHI, seed=7)
        assert_hierarchy_invariants(g, h)
        h.validate(g)

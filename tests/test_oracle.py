"""Exact oracles and verifiers."""
import itertools
import math
import subprocess
import sys
import textwrap
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack.errors import ParameterError, ScaleError
from arborpack.graphcore import cut_values, normalize, restricted_degrees, scc
from arborpack.oracle import (
    bruteforce_cut_expansion,
    bruteforce_rooted_mincut,
    exact_rooted_mincut,
    verify_arborescence,
    verify_packing,
)
from arborpack.packing import PackingResult

from .conftest import digraphs


class TestExactRootedMincut:
    def test_path(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        value, side = exact_rooted_mincut(g)
        assert value == 1
        assert 0 not in side

    def test_bidirected_k4(self):
        raw = [(u, v, 1) for u in range(4) for v in range(4) if u != v]
        g = normalize(raw, 4, 0)
        value, _ = exact_rooted_mincut(g)
        assert value == 3

    def test_isolated_vertex(self):
        g = normalize([(0, 1, 1)], 3, 0)
        value, side = exact_rooted_mincut(g)
        assert value == 0
        assert 2 in side

    def test_single_vertex_rejected(self):
        g = normalize([], 1, 0)
        with pytest.raises(ParameterError):
            exact_rooted_mincut(g)

    @given(digraphs(min_n=2, max_n=8, max_m=18, max_cap=3))
    @settings(max_examples=40)
    def test_matches_enumeration(self, g):
        value, _ = exact_rooted_mincut(g)
        brute, side = bruteforce_rooted_mincut(g)
        assert value == brute
        assert g.source not in side
        assert cut_values(g, side).rho == brute


class TestBruteforceCutExpansion:
    def test_single_bidirected_edge(self):
        # Component {1, 2} with both unit edges as terminals: the only
        # constrained sets are the two singletons, each with degree 2 and
        # min(delta, rho) = 1, so the certified value is 1/2.
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        part = scc(g)
        phi = bruteforce_cut_expansion(g, part, g.edge_set())
        assert phi == Fraction(1, 2)

    def test_empty_terminals_unconstrained(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        phi = bruteforce_cut_expansion(g, scc(g), frozenset())
        assert phi == math.inf

    def test_components_evaluated_independently(self):
        g = normalize([(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1)], 5, 0)
        phi = bruteforce_cut_expansion(g, scc(g), g.edge_set())
        assert phi == Fraction(1, 2)

    def test_scale_limit(self):
        g = normalize([], 17, 0)
        with pytest.raises(ScaleError):
            bruteforce_cut_expansion(g, scc(g), frozenset())

    @given(data=st.data())
    def test_matches_naive_enumeration(self, data):
        # Partitions are the SCCs of g minus a drawn edge subset.
        g = data.draw(digraphs(max_n=7, max_cap=3))
        edge_subsets = st.frozensets(st.integers(0, g.m - 1)) if g.m else st.just(frozenset())
        part = scc(g, data.draw(edge_subsets))
        estar = data.draw(edge_subsets)
        table = restricted_degrees(g, estar)
        best = math.inf
        for comp in part.components:
            total = sum(table.deg(v) for v in comp)
            for r in range(1, g.n + 1):
                for combo in itertools.combinations(range(g.n), r):
                    deg_t = sum(table.deg(v) for v in comp.intersection(combo))
                    if deg_t == 0 or 2 * deg_t > total:
                        continue
                    dv = cut_values(g, combo)
                    best = min(best, Fraction(min(dv.delta, dv.rho), deg_t))
        assert bruteforce_cut_expansion(g, part, estar) == best


def test_oracles_run_without_numpy(tmp_path):
    graph = tmp_path / "p.dmc"
    graph.write_text("p dmc 3 2 1\na 1 2\na 2 3\n")
    script = textwrap.dedent(f"""
        import sys
        from fractions import Fraction
        sys.modules["numpy"] = None  # any import of numpy now fails
        from arborpack import bruteforce_cut_expansion, normalize, scc
        from arborpack.cli import main
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        assert bruteforce_cut_expansion(g, scc(g), g.edge_set()) == Fraction(1, 2)
        sys.exit(main(["mincut", {str(graph)!r}, "--exact"]))
    """)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr


class TestVerifyArborescence:
    def test_path_tree(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        ok, why = verify_arborescence(g, [0, 1])
        assert ok, why

    def test_missing_edge(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        ok, why = verify_arborescence(g, [0])
        assert not ok
        assert "expected 2" in why

    def test_extra_edge(self):
        g = normalize([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3, 0)
        ok, why = verify_arborescence(g, [0, 1, 2])
        assert not ok

    def test_wrong_direction_unreachable(self):
        g = normalize([(0, 1, 1), (2, 1, 1)], 3, 0)
        ok, why = verify_arborescence(g, [0, 1])
        assert not ok


class TestVerifyPacking:
    def test_valid_single_tree(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        result = PackingResult(
            kind="arborescences", k=1, trees=((0, 1),), congestion=1
        )
        report = verify_packing(g, result)
        assert report["ok"]

    def test_cut_with_delta_equal_k_fails(self):
        g = normalize([(0, 1, 1)], 2, 0)
        result = PackingResult(
            kind="cut", k=1, cut_vertices=frozenset({0}), cut_delta=1
        )
        report = verify_packing(g, result)
        assert not report["ok"]

    def test_shared_edge_congestion_two(self):
        g = normalize([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3, 0)
        trees = ((0, 1), (0, 2))
        result = PackingResult(
            kind="arborescences", k=2, trees=trees, congestion=2
        )
        report = verify_packing(g, result)
        # Certificate: connectivity >= k / congestion = 1, and the exact
        # rooted connectivity here is 1.
        assert report["ok"]

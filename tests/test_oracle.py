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

import arborpack.oracle
from arborpack.errors import ParameterError, ScaleError
from arborpack.generators import (
    gen_cycle_plus_chords,
    gen_known_packing,
    gen_random_gnm,
    gen_two_cliques_bridge,
)
from arborpack.graphcore import cut_values, normalize, restricted_degrees, scc
from arborpack.maxflow import FlowProblem, max_flow
from arborpack.oracle import (
    bruteforce_cut_expansion,
    bruteforce_rooted_mincut,
    exact_rooted_mincut,
    verify_arborescence,
    verify_packing,
)
from arborpack.packing import PackingResult

from .conftest import digraphs


def reference_exact_rooted_mincut(g):
    """The earlier oracle: one max-flow s -> t per sink t, by ascending
    in-capacity, each capped at the best value so far; the first sink
    that improves on it gives the witness."""
    s = g.source
    big = g.total_capacity() + 1
    best = witness = None
    for t in sorted((v for v in range(g.n) if v != s), key=lambda v: (g.in_capacity(v), v)):
        if best == 0:
            break
        res = max_flow(FlowProblem(g, {s: big}, {t: big}, flow_bound=best))
        if best is None or res.value < best:
            best, witness = res.value, res.min_cut_side
    return best, witness


@st.composite
def sweep_graphs(draw):
    """Weighted multigraphs with n from 2 to 12, some with vertices the
    source cannot reach (value 0). A bidirected copy or an added cycle
    through every vertex makes several sinks tie at the minimum."""
    n = draw(st.integers(2, 12))
    edges = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, 5)),
            min_size=n,
            max_size=4 * n,
        )
    )
    shape = draw(st.sampled_from(["random", "bidirected", "cycle"]))
    if shape == "bidirected":
        edges += [(v, u, c) for u, v, c in edges]
    elif shape == "cycle":
        edges += [(v, (v + 1) % n, 1) for v in range(n)]
    return normalize(edges, n, 0)


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

    @given(st.one_of(digraphs(min_n=2, max_n=8, max_m=18, max_cap=3), sweep_graphs()))
    @settings(max_examples=140)
    def test_matches_enumeration(self, g):
        value, _ = exact_rooted_mincut(g)
        brute, side = bruteforce_rooted_mincut(g)
        assert value == brute
        assert g.source not in side
        assert cut_values(g, side).rho == brute

    @given(sweep_graphs())
    @settings(max_examples=200)
    def test_matches_one_flow_per_sink(self, g):
        # Same value and the same witness: the first minimising sink in
        # in-capacity order, and its minimal source side.
        assert exact_rooted_mincut(g) == reference_exact_rooted_mincut(g)

    @pytest.mark.parametrize(
        "g",
        [
            gen_known_packing(120, 6, seed=1),
            gen_cycle_plus_chords(200, 5, seed=1, max_cap=3),
            gen_random_gnm(100, 600, seed=8, max_cap=4),  # seed 1 leaves a vertex unreached
            gen_two_cliques_bridge(30, seed=1, max_cap=3),
        ],
        ids=["known_packing", "cycle_plus_chords", "random_gnm", "two_cliques_bridge"],
    )
    def test_matches_one_flow_per_sink_on_generated_graphs(self, g):
        # Past the n <= 12 of the drawn graphs: sinks whose flows take
        # many augmenting paths, some of them long.
        assert exact_rooted_mincut(g) == reference_exact_rooted_mincut(g)

    @pytest.mark.parametrize(
        "edges, n, expected",
        [
            # Parallel edges; the first sink, 1, holds the minimum.
            ([(0, 1, 3), (0, 2, 1), (0, 2, 1), (1, 2, 4)], 3, (3, frozenset({1}))),
            # Every sink of a directed cycle ties at 1; vertex 1 comes first.
            ([(v, (v + 1) % 5, 1) for v in range(5)], 5, (1, frozenset({1, 2, 3, 4}))),
            # Vertex 3 is unreachable.
            ([(0, 1, 2), (1, 2, 2), (3, 2, 1)], 4, (0, frozenset({3}))),
            # n = 2.
            ([(0, 1, 4), (1, 0, 1)], 2, (4, frozenset({1}))),
        ],
    )
    def test_known_witnesses(self, edges, n, expected):
        g = normalize(edges, n, 0)
        assert exact_rooted_mincut(g) == expected == reference_exact_rooted_mincut(g)

    def test_one_max_flow_per_call(self, monkeypatch):
        calls = []

        def counted(problem):
            calls.append(problem)
            return max_flow(problem)

        monkeypatch.setattr(arborpack.oracle, "max_flow", counted)
        graphs = [
            normalize([(v, (v + 1) % 8, 1) for v in range(8)], 8, 0),
            normalize([(u, v, 1) for u in range(5) for v in range(5) if u != v], 5, 0),
            normalize([(0, 1, 1)], 2, 0),
        ]
        for g in graphs:
            exact_rooted_mincut(g)
        assert len(calls) == len(graphs)


class TestBruteforceCutExpansion:
    def test_single_bidirected_edge(self):
        # Component {1, 2} with both unit edges as terminals: the only
        # constrained sets are the two singletons, each with degree 2 and
        # min(delta, rho) = 1, so the certified value is 1/2.
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        part = scc(g)
        phi = bruteforce_cut_expansion(g, part, frozenset(range(g.m)))
        assert phi == Fraction(1, 2)

    def test_empty_terminals_unconstrained(self):
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        phi = bruteforce_cut_expansion(g, scc(g), frozenset())
        assert phi == math.inf

    def test_components_evaluated_independently(self):
        g = normalize([(1, 2, 1), (2, 1, 1), (3, 4, 1), (4, 3, 1)], 5, 0)
        phi = bruteforce_cut_expansion(g, scc(g), frozenset(range(g.m)))
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
        deg = restricted_degrees(g, estar)
        best = math.inf
        for comp in part.components:
            total = sum(deg[v] for v in comp)
            for r in range(1, g.n + 1):
                for combo in itertools.combinations(range(g.n), r):
                    deg_t = sum(deg[v] for v in comp.intersection(combo))
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
        assert bruteforce_cut_expansion(g, scc(g), frozenset(range(g.m))) == Fraction(1, 2)
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

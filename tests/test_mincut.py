"""Approximate rooted min-cut: sampling, component cuts, soundness."""
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arborpack import maxflow
from arborpack.decomp import build_hierarchy
from arborpack.errors import EmptySampleError, ParameterError
from arborpack.generators import instance_stream
from arborpack.graphcore import cut_values, normalize
from arborpack.maxflow import FlowProblem, first_min_sink
from arborpack.mincut import (
    _TRIALS_PER_LOG2_N,
    CutCandidate,
    approx_rooted_mincut,
    mincut_into_component,
    probe_inputs,
    sample_endpoints,
)
from arborpack.oracle import exact_rooted_mincut
from arborpack.seeds import derive_rng

from .conftest import digraphs


class TestSampleEndpoints:
    def test_single_edge_endpoints_only(self):
        g = normalize([(1, 2, 1)], 3, 0)
        out = sample_endpoints(g, [0], 50, random.Random(0))
        assert set(out) <= {1, 2}

    def test_capacity_weighted_frequency(self):
        # Edge (3,4) has three quarters of the capacity; binomial bounds
        # give a +-3 sigma window of about 0.013 at 10^4 trials.
        g = normalize([(1, 2, 1), (3, 4, 3)], 5, 0)
        out = sample_endpoints(g, [0, 1], 10_000, random.Random(7))
        heavy = sum(1 for v in out if v in (3, 4)) / len(out)
        assert abs(heavy - 0.75) < 0.013

    def test_seeded_reproducible(self):
        g = normalize([(1, 2, 1), (2, 3, 2)], 4, 0)
        a = sample_endpoints(g, [0, 1], 1, random.Random(123))
        b = sample_endpoints(g, [0, 1], 1, random.Random(123))
        assert a == b

    def test_empty_edge_set_raises(self):
        g = normalize([], 3, 0)
        with pytest.raises(EmptySampleError):
            sample_endpoints(g, [], 1, random.Random(0))


class TestMincutIntoComponent:
    def test_singleton_component(self):
        g = normalize([(0, 1, 2), (0, 1, 1)], 2, 0)
        cand = mincut_into_component(g, frozenset({1}), 1, probe_inputs(g, frozenset({1})))
        assert cand.vertex_set == frozenset({1})
        assert cand.rho == 3

    def test_tie_between_nested_sets(self):
        # x -> a -> v and x -> v, unit capacities: both {v} and {a, v}
        # have two incoming edges.
        g = normalize([(0, 1, 1), (1, 2, 1), (0, 2, 1)], 3, 0)
        comp = frozenset({1, 2})
        cand = mincut_into_component(g, comp, 2, probe_inputs(g, comp))
        assert cand.rho == 2
        assert cand.vertex_set in (frozenset({2}), frozenset({1, 2}))
        assert cut_values(g, cand.vertex_set).rho == 2

    def test_inner_bottleneck(self):
        # x -> a with capacity 5, a -> v with capacity 1.
        g = normalize([(0, 1, 5), (1, 2, 1)], 3, 0)
        comp = frozenset({1, 2})
        cand = mincut_into_component(g, comp, 2, probe_inputs(g, comp))
        assert cand.vertex_set == frozenset({2})
        assert cand.rho == 1

    def test_requires_membership(self):
        g = normalize([(0, 1, 1)], 3, 0)
        with pytest.raises(ParameterError):
            mincut_into_component(g, frozenset({1}), 2, probe_inputs(g, frozenset({1})))


class TestApproxRootedMincut:
    def test_path_found_at_level_zero(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        h = build_hierarchy(g, seed=1)
        report = approx_rooted_mincut(h, seed=0)
        assert report.best.rho == 1
        assert report.best.level == 0

    def test_isolated_vertex_gives_zero(self):
        g = normalize([(0, 1, 1)], 3, 0)
        h = build_hierarchy(g, seed=1)
        report = approx_rooted_mincut(h, seed=0)
        assert report.best.rho == 0
        assert report.best.vertex_set == frozenset({2})

    def test_candidates_are_valid_cuts(self):
        g = normalize([(0, 1, 2), (1, 2, 1), (2, 1, 1), (2, 3, 2), (3, 2, 1)], 4, 0)
        h = build_hierarchy(g, seed=3)
        report = approx_rooted_mincut(h, seed=5)
        for cand in report.candidates:
            assert 0 not in cand.vertex_set
            assert cand.vertex_set
            assert cut_values(g, cand.vertex_set).rho == cand.rho

    def test_deterministic_under_seed(self):
        g = normalize(
            [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 1, 1), (1, 3, 1), (0, 2, 1)], 4, 0
        )
        h = build_hierarchy(g, seed=2)
        a = approx_rooted_mincut(h, seed=11)
        b = approx_rooted_mincut(h, seed=11)
        assert a == b

    @given(digraphs(min_n=2, max_n=8, max_m=20, max_cap=3))
    @settings(max_examples=30)
    def test_sound_upper_bound_and_reevaluation(self, g):
        h = build_hierarchy(g, seed=2)
        report = approx_rooted_mincut(h, seed=4)
        exact, _ = exact_rooted_mincut(g)
        assert report.best.rho >= exact
        assert cut_values(g, report.best.vertex_set).rho == report.best.rho

    @given(digraphs(min_n=2, max_n=8, max_m=16, max_cap=3))
    @settings(max_examples=30)
    def test_exact_when_minimum_is_a_singleton(self, g):
        exact, _ = exact_rooted_mincut(g)
        singleton_best = min(
            g.in_capacity(v) for v in range(g.n) if v != g.source
        )
        if singleton_best == exact:
            h = build_hierarchy(g, seed=2)
            report = approx_rooted_mincut(h, seed=4)
            assert report.best.rho == exact


def hidden_clique(seed: int, n: int, d: int, t: int, c: int):
    """A unit-capacity clique on t vertices hidden in a random graph on n.

    The source is 0. Each background vertex v in 1..n-1 gets d in-edges
    from uniform tails in 0..n-1 (a self-loop is dropped). The clique T
    on n..n+t-1 has all t(t - 1) arcs among its vertices; c arcs enter T
    from uniform background tails, and d leave T for uniform non-source
    background heads.
    """
    rng = random.Random(seed)
    edges = [(rng.randrange(n), v, 1) for v in range(1, n) for _ in range(d)]
    clique = range(n, n + t)
    edges += [(u, w, 1) for u in clique for w in clique if u != w]
    edges += [(rng.randrange(n), rng.choice(clique), 1) for _ in range(c)]
    edges += [(rng.choice(clique), rng.randrange(1, n), 1) for _ in range(d)]
    return normalize(edges, n + t, 0)


def test_misses_on_hidden_cliques_are_pinned():
    # Every benchmark graph gives the exact cut, so this stream is what
    # shows a miss: the least cut is the one arc into T, and a probe
    # finds it only from a sample that the arc separates from the source.
    # Each cut stays within (L / phi_hat + 1) times the exact one, with
    # phi_hat the least phi a level ended at. A change that moves the
    # miss count says why.
    misses = 0
    for seed in range(40):
        g = hidden_clique(seed, n=120, d=6, t=4, c=1)
        h = build_hierarchy(g, seed=1)
        approx = approx_rooted_mincut(h, seed=1).best.rho
        exact, _ = exact_rooted_mincut(g)
        assert exact <= approx <= (h.L / min(h.level_phis) + 1) * exact
        misses += approx > exact
    assert misses == 7


class TestStructuralEdgeCases:
    def test_unreachable_scc_found_by_component_probe(self):
        # The cycle {1, 2} has no incoming edges: no singleton shows the
        # zero cut, but the component probe contracts an empty outside
        # boundary and reports it exactly.
        g = normalize([(1, 2, 1), (2, 1, 1)], 3, 0)
        h = build_hierarchy(g, seed=1)
        report = approx_rooted_mincut(h, seed=2)
        assert report.best.rho == 0
        assert report.best.vertex_set == frozenset({1, 2})
        assert report.best.level >= 1

    def test_large_capacities(self):
        w = 1 << 20
        g = normalize(
            [(0, 1, w), (1, 2, w // 2), (2, 1, w // 3), (0, 2, 7),
             (2, 3, w // 5), (3, 2, 1), (1, 3, 123456)],
            4,
            0,
        )
        h = build_hierarchy(g, seed=3)
        h.validate()
        report = approx_rooted_mincut(h, seed=4)
        exact, _ = exact_rooted_mincut(g)
        assert exact == (w // 5) + 123456  # rho({3})
        assert report.best.rho >= exact
        assert cut_values(g, report.best.vertex_set).rho == report.best.rho


def per_sample_best(h, seed: int) -> CutCandidate:
    """The search probing every sample with its own max-flow, in turn,
    and keeping a cut only when it is strictly smaller: the reference
    for the one-sweep-per-component search."""
    g = h.graph
    best = min(
        (CutCandidate(frozenset({v}), g.in_capacity(v), 0, v) for v in range(g.n) if v != g.source),
        key=lambda c: c.rho,
    )
    trials = max(1, math.ceil(_TRIALS_PER_LOG2_N * math.log2(max(g.n, 2))))
    for i in range(1, h.L + 1):
        part = h.partition(i)
        inside: dict[int, list[int]] = {}
        for e in h.level_edges(i):
            comp_id = part.comp_of[g.tail(e)]
            if comp_id == part.comp_of[g.head(e)]:
                inside.setdefault(comp_id, []).append(e)
        for comp_id in sorted(inside):
            comp = part.components[comp_id]
            inputs = probe_inputs(g, comp)
            rng = derive_rng(seed, "mincut", i, comp_id)
            for v in sample_endpoints(g, inside[comp_id], trials, rng):
                cand = mincut_into_component(g, comp, v, inputs, i)
                if cand.rho < best.rho:
                    best = cand
    return best


@pytest.fixture
def dinic_calls(monkeypatch):
    """The sink of each Dinic run that `first_min_sink` makes."""
    calls = []
    real = maxflow._dinic

    def counting(*args):
        calls.append(args[4])
        return real(*args)

    monkeypatch.setattr(maxflow, "_dinic", counting)
    return calls


class TestFirstMinSink:
    @given(digraphs(min_n=2, max_n=8, max_m=20, max_cap=3), st.data())
    @settings(max_examples=60)
    def test_matches_per_sample_probes(self, g, data):
        h = build_hierarchy(g, seed=2)
        level = data.draw(st.integers(0, h.L), label="level")
        comps = [c for c in h.partition(level).components if g.source not in c]
        comp = data.draw(st.sampled_from(comps), label="component")
        # Repeats included, so a label left over from one sink's run would
        # change a later sink's answer.
        samples = data.draw(
            st.lists(st.sampled_from(sorted(comp)), min_size=1, max_size=3 * len(comp)),
            label="samples",
        )
        bound = data.draw(st.integers(0, g.total_capacity() + 2), label="bound")
        supplies, intra, _big = inputs = probe_inputs(g, comp)
        expected = (bound, -1)
        for v in samples:
            rho = mincut_into_component(g, comp, v, inputs).rho
            if rho < expected[0]:
                expected = (rho, v)
        problem = FlowProblem(g, supplies, {}, edge_filter=intra)
        assert first_min_sink(problem, samples, bound) == expected

    def test_sweep_reuses_one_clean_label_array(self, monkeypatch):
        # Every sink's run gets the sweep's own `dist` and `it` lists,
        # all -1 and all 0 on entry and again on return.
        seen = []
        real = maxflow._dinic

        def checking(*args):
            dist, it = args[6], args[7]
            assert dist == [-1] * len(dist) and it == [0] * len(it)
            flow = real(*args)
            assert dist == [-1] * len(dist) and it == [0] * len(it)
            seen.append((dist, it))
            return flow

        monkeypatch.setattr(maxflow, "_dinic", checking)
        g = normalize([(0, 1, 2), (1, 2, 1), (2, 3, 2), (3, 1, 1), (0, 3, 1), (1, 4, 1),
                       (4, 2, 1), (3, 4, 1)], 5, 0)
        assert first_min_sink(FlowProblem(g, {0: 9}, {}), [4, 2, 3, 1], 9) == (2, 4)
        assert len(seen) == 4
        assert all(dist is seen[0][0] and it is seen[0][1] for dist, it in seen)

    def test_best_equals_per_sample_search_on_instance_stream(self):
        for _name, g in instance_stream(60, seed=25, n_max=24, m_max=100, max_cap=4):
            h = build_hierarchy(g, seed=1)
            for seed in (0, 7):
                assert approx_rooted_mincut(h, seed).best == per_sample_best(h, seed)

    def test_out_of_range_sink_raises(self):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        for t in (-1, 3):
            with pytest.raises(ParameterError):
                first_min_sink(FlowProblem(g, {0: 5}, {}), [1, t], 5)

    def test_sink_capacities_raise(self):
        g = normalize([(0, 1, 1)], 2, 0)
        with pytest.raises(ParameterError):
            first_min_sink(FlowProblem(g, {0: 5}, {1: 5}), [1], 5)

    def test_repeated_sink_is_swept_once(self, dinic_calls):
        # 0 -> 1 -> 2 and 0 -> 2: sink 2 takes 2 units, then sink 1,
        # entered by one unit edge, takes 1; the repeats run no flow.
        g = normalize([(0, 1, 1), (1, 2, 2), (0, 2, 1)], 3, 0)
        problem = FlowProblem(g, {0: 9}, {})
        assert first_min_sink(problem, [2, 1, 2, 1, 1], 9) == (1, 1)
        assert dinic_calls == [2, 1]

    def test_zero_bound_runs_no_flow(self, dinic_calls):
        g = normalize([(0, 1, 1), (1, 2, 1)], 3, 0)
        assert first_min_sink(FlowProblem(g, {0: 5}, {}), [1, 2], 0) == (0, -1)
        assert dinic_calls == []

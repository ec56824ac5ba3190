"""Seeded graph generators for fixtures, corpora, and benchmarks.

Every `gen_*` function is a pure function of its parameters and seed;
the same call always yields the same graph. Each one rejects a vertex
count above `MAX_VERTICES`, and then a count of the edges it would build
above `MAX_EDGES`, before it builds anything.
"""
from __future__ import annotations

import random

from .errors import ParameterError
from .graphcore import DirectedGraph, check_edge_count, check_vertex_count, normalize
from .seeds import derive_rng, derive_seed

__all__ = [
    "gen_random_gnm", "gen_dag_layered", "gen_two_cliques_bridge",
    "gen_cycle_plus_chords", "gen_known_packing", "instance_stream", "GENERATOR_KINDS",
]


def _caps(rng: random.Random, count: int, max_cap: int) -> list[int]:
    if max_cap <= 1:
        return [1] * count
    return [rng.randint(1, max_cap) for _ in range(count)]


def gen_random_gnm(n: int, m: int, seed: int = 0, max_cap: int = 1) -> DirectedGraph:
    """Uniform random multigraph: m edges (u, v) with u != v and v != s."""
    if n < 2:
        raise ParameterError("random_gnm needs n >= 2")
    if m < 0:
        raise ParameterError("random_gnm needs m >= 0")
    check_vertex_count(n)
    check_edge_count(m)
    rng = derive_rng(seed, "gnm", n, m, max_cap)
    edges = []
    caps = _caps(rng, m, max_cap)
    for idx in range(m):
        while True:
            u = rng.randrange(n)
            v = rng.randrange(n)
            if u != v and v != 0:
                break
        edges.append((u, v, caps[idx]))
    return normalize(edges, n, 0)


def gen_dag_layered(n: int, m: int, seed: int = 0, max_cap: int = 1) -> DirectedGraph:
    """Layered DAG: the source alone on layer 0, every other vertex gets at
    least one incoming edge from the previous layer, plus random forward
    edges up to roughly m total."""
    if n < 2:
        raise ParameterError("dag_layered needs n >= 2")
    check_vertex_count(n)
    check_edge_count(max(m, n - 1))
    # The None is part of the seed tag; dropping it would change every graph.
    rng = derive_rng(seed, "dag", n, m, None, max_cap)
    nlayers = min(max(2, n // 3), 5)
    layer_of = [0] + sorted(rng.randint(1, nlayers) for _ in range(n - 1))
    by_layer: dict[int, list[int]] = {}
    for v, lay in enumerate(layer_of):
        by_layer.setdefault(lay, []).append(v)
    present = sorted(by_layer)
    edges: list[tuple[int, int, int]] = []
    for li in range(1, len(present)):
        prev = by_layer[present[li - 1]]
        for v in by_layer[present[li]]:
            u = rng.choice(prev)
            edges.append((u, v, 1))
    while len(edges) < m:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if v == 0 or layer_of[u] >= layer_of[v]:
            continue
        edges.append((u, v, 1))
    edges = [(u, v, c) for (u, v, _), c in zip(edges, _caps(rng, len(edges), max_cap))]
    return normalize(edges, n, 0)


def gen_two_cliques_bridge(half: int, seed: int = 0, max_cap: int = 1) -> DirectedGraph:
    """Two bidirected cliques joined by one edge in each direction, with a
    separate source attached to the first clique by a single edge."""
    if half < 2:
        raise ParameterError("two_cliques_bridge needs half >= 2")
    n = 2 * half + 1
    check_vertex_count(n)
    check_edge_count(2 * half * (half - 1) + 3)
    rng = derive_rng(seed, "cliques", half, max_cap)
    a = list(range(1, half + 1))
    b = list(range(half + 1, 2 * half + 1))
    edges: list[tuple[int, int, int]] = [(0, a[0], 1)]
    for group in (a, b):
        for u in group:
            for v in group:
                if u != v:
                    edges.append((u, v, 1))
    edges.append((a[-1], b[0], 1))
    edges.append((b[0], a[-1], 1))
    edges = [(u, v, c) for (u, v, _), c in zip(edges, _caps(rng, len(edges), max_cap))]
    return normalize(edges, n, 0)


def gen_cycle_plus_chords(
    n: int, chords: int, seed: int = 0, max_cap: int = 1
) -> DirectedGraph:
    """Source feeding a directed cycle over the other vertices, plus random
    chord edges."""
    if n < 3:
        raise ParameterError("cycle_plus_chords needs n >= 3")
    check_vertex_count(n)
    check_edge_count(n + chords)
    rng = derive_rng(seed, "cycle", n, chords, max_cap)
    edges: list[tuple[int, int, int]] = [(0, 1, 1)]
    for v in range(1, n - 1):
        edges.append((v, v + 1, 1))
    edges.append((n - 1, 1, 1))
    for _ in range(chords):
        while True:
            u = rng.randrange(n)
            v = rng.randrange(1, n)
            if u != v:
                break
        edges.append((u, v, 1))
    edges = [(u, v, c) for (u, v, _), c in zip(edges, _caps(rng, len(edges), max_cap))]
    return normalize(edges, n, 0)


def gen_known_packing(n: int, k: int, seed: int = 0) -> DirectedGraph:
    """Union of k random arborescences rooted at the source, so the rooted
    connectivity is at least k by construction. Always unit capacity."""
    if n < 2:
        raise ParameterError("known_packing needs n >= 2")
    if k < 1:
        raise ParameterError("known_packing needs k >= 1")
    check_vertex_count(n)
    check_edge_count(k * (n - 1))
    rng = derive_rng(seed, "known", n, k)
    edges: list[tuple[int, int, int]] = []
    for _tree in range(k):
        order = list(range(1, n))
        rng.shuffle(order)
        attached = [0]
        for v in order:
            parent = rng.choice(attached)
            edges.append((parent, v, 1))
            attached.append(v)
    return normalize(edges, n, 0)


GENERATOR_KINDS = (
    "random_gnm",
    "dag_layered",
    "two_cliques_bridge",
    "cycle_plus_chords",
    "known_packing",
)


def instance_stream(
    count: int,
    seed: int = 0,
    n_max: int = 40,
    m_max: int = 200,
    max_cap: int = 1,
    unit_only: bool = False,
    n_mean: float = 6.0,
):
    """Yield (name, graph) pairs mixing all generator kinds with sizes
    skewed toward small instances. Deterministic under the seed."""
    produced = 0
    idx = 0
    while produced < count:
        rng = derive_rng(seed, "stream", idx)
        kind = GENERATOR_KINDS[idx % len(GENERATOR_KINDS)]
        cap = 1 if (unit_only or rng.random() < 0.5) else max_cap
        # Mostly small graphs, a tail of larger ones up to the caps.
        n = min(n_max, 4 + int(rng.expovariate(1 / n_mean)))
        if kind == "random_gnm":
            m = min(m_max, rng.randint(n, 5 * n))
            g = gen_random_gnm(n, m, derive_seed(seed, idx), cap)
        elif kind == "dag_layered":
            m = min(m_max, rng.randint(n, 3 * n))
            g = gen_dag_layered(n, m, derive_seed(seed, idx), cap)
        elif kind == "two_cliques_bridge":
            half = max(2, min((n_max - 1) // 2, n // 2, 6))
            g = gen_two_cliques_bridge(half, derive_seed(seed, idx), cap)
        elif kind == "cycle_plus_chords":
            n = max(3, n)
            chords = min(m_max - n, rng.randint(0, 2 * n))
            g = gen_cycle_plus_chords(n, chords, derive_seed(seed, idx), cap)
        else:
            k = rng.randint(1, 4)
            n = max(2, min(n, (m_max // k) if k else n))
            g = gen_known_packing(n, k, derive_seed(seed, idx))
        idx += 1
        if g.m > m_max:
            continue
        produced += 1
        yield f"{kind}-{idx - 1:04d}", g

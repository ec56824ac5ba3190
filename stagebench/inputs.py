"""Seeded input graphs for the stage benchmark.

The generators here are the benchmark's own: they share no code with
`arborpack.generators`, so a change to the program cannot change what is
measured. Every instance is a pure function of (workload, seed, index);
sizes follow a fixed schedule per workload and only the structure is
drawn from the seed, so the work per run barely depends on the seed.

Run as a script, this module is one benchmark set-up: it imports the
program, as a user's first call would, and writes the workload's inputs:

    python3 stagebench/inputs.py --workload trees --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

WORKLOADS = ("trees", "clusters", "long_cycles")

# Every instance runs `hierarchy` and `mincut`; a "full" one also runs
# `mincut --exact`, `pack` and `verify`. Hierarchy and mincut times swing
# with the random structure (whether decomposition finds a cut), so they
# also run on extra "light" instances whose time varies least.
#
# (n, k, full) per instance: k glued random arborescences, so lambda = k.
# Light trees instances are dense (k = 8): their hierarchy time varies a
# third as much between seeds as at k = 3.
TREES_SCHEDULE = ((200, 3, True), (225, 4, True), (250, 5, True), (275, 8, True)) + tuple(
    (205 + 5 * i, 8, False) for i in range(12)
)
# (clusters, cluster size, max capacity) per instance, all full; max
# capacity 1 means a unit instance, which also gets packed.
CLUSTERS_SCHEDULE = tuple(
    (count, size, cap) for count, size in ((5, 16), (6, 16), (7, 14), (8, 14)) for cap in (1, 8)
)
# (n, chords, full) per instance. n stays below 960: from there on a pure
# cycle overflows the recursion limit of the blocking-flow search.
LONG_CYCLES_SCHEDULE = (
    (700, 3, True), (730, 4, False), (770, 4, True), (800, 5, False),
    (840, 3, True), (870, 3, False), (900, 5, True), (900, 4, False),
)


@dataclass(frozen=True)
class Instance:
    """One input graph: 0-based edges (tail, head, capacity), source 0.

    `k` is the lambda the construction guarantees (None when only the
    reference computation knows it); `pack_ks` are the k values `pack`
    runs at, "lambda" and "lambda+1" taken relative to lambda (see
    `pack_k`).
    """

    name: str
    n: int
    edges: tuple
    k: int | None
    pack_ks: tuple = ()
    verify_mincut: bool = False
    full: bool = True


def pack_k(want, lam: int) -> int:
    """The k that a `pack_ks` entry names, given lambda."""
    return want if isinstance(want, int) else lam + (want == "lambda+1")


def _rng(workload: str, seed: int, idx: int) -> random.Random:
    return random.Random(f"stagebench:{workload}:{seed}:{idx}")


def trees_instance(seed: int, idx: int) -> Instance:
    """k random arborescences rooted at 0 over the same n vertices.

    Every non-source vertex gets exactly one parent per tree, so its
    in-degree is k, and the k trees are edge-disjoint: lambda = k.
    """
    n, k, full = TREES_SCHEDULE[idx]
    rng = _rng("trees", seed, idx)
    edges = []
    for _tree in range(k):
        order = list(range(1, n))
        rng.shuffle(order)
        placed = [0]
        for v in order:
            edges.append((rng.choice(placed), v, 1))
            placed.append(v)
    rng.shuffle(edges)
    return Instance(f"trees-{idx}", n, tuple(edges), k, (k,), full=full)


def clusters_instance(seed: int, idx: int) -> Instance:
    """A ring of dense clusters joined by 1-2 edges each way between
    neighbours, with the source feeding cluster 0 by 2-3 edges.

    Each cluster is a directed Hamiltonian cycle plus every other ordered
    pair with probability 0.85, so a vertex's in-degree is far above the
    few edges that enter a cluster: the min-cut is a set of clusters and
    the level-0 singleton sweep does not find it.
    """
    count, size, max_cap = CLUSTERS_SCHEDULE[idx]
    rng = _rng("clusters", seed, idx)
    members = [list(range(1 + c * size, 1 + (c + 1) * size)) for c in range(count)]
    raw = []
    for group in members:
        order = group[:]
        rng.shuffle(order)
        ring = set(zip(order, order[1:] + order[:1]))
        for u in group:
            for v in group:
                if u != v and ((u, v) in ring or rng.random() < 0.85):
                    raw.append((u, v))
    for c in range(count):
        a, b = members[c], members[(c + 1) % count]
        for _ in range(rng.randint(1, 2)):
            raw.append((rng.choice(a), rng.choice(b)))
        for _ in range(rng.randint(1, 2)):
            raw.append((rng.choice(b), rng.choice(a)))
    for _ in range(rng.randint(2, 3)):
        raw.append((0, rng.choice(members[0])))
    rng.shuffle(raw)
    edges = tuple((u, v, rng.randint(1, max_cap)) for u, v in raw)
    pack_ks = ("lambda", "lambda+1") if max_cap == 1 else ()
    return Instance(f"clusters-{idx}", 1 + count * size, edges, None, pack_ks, True)


def long_cycles_instance(seed: int, idx: int) -> Instance:
    """The source feeds vertex 1 of the cycle 1 -> 2 -> ... -> n-1 -> 1,
    plus a few forward chords that never enter the source: lambda = 1.

    Chord j starts near position j/chords of the cycle and skips about a
    third of it; only the exact positions are random, so every instance
    of a given n has the same shape.
    """
    n, chords, full = LONG_CYCLES_SCHEDULE[idx]
    rng = _rng("long_cycles", seed, idx)
    ring = n - 1
    edges = [(0, 1, 1)] + [(v, v + 1, 1) for v in range(1, n - 1)] + [(n - 1, 1, 1)]
    for j in range(chords):
        tail = j * ring // chords + rng.randrange(ring // 50)
        head = (tail + ring // 3 + rng.randrange(ring // 50)) % ring
        edges.append((1 + tail, 1 + head, 1))
    return Instance(f"long_cycles-{idx}", n, tuple(edges), 1, (1,), full=full)


_SCHEDULES = {
    "trees": (TREES_SCHEDULE, trees_instance),
    "clusters": (CLUSTERS_SCHEDULE, clusters_instance),
    "long_cycles": (LONG_CYCLES_SCHEDULE, long_cycles_instance),
}


def instances(workload: str, seed: int) -> list[Instance]:
    schedule, make = _SCHEDULES[workload]
    return [make(seed, idx) for idx in range(len(schedule))]


def graph_text(inst: Instance) -> str:
    """The program's text format: 1-based ids, capacity always written."""
    lines = [f"c {inst.name}", f"p dmc {inst.n} {len(inst.edges)} 1"]
    lines += [f"a {u + 1} {v + 1} {c}" for u, v, c in inst.edges]
    return "\n".join(lines) + "\n"


def write_inputs(workload: str, seed: int, out: Path) -> None:
    """Write each instance to `out/<name>.dmc`."""
    out.mkdir(parents=True, exist_ok=True)
    for inst in instances(workload, seed):
        (out / f"{inst.name}.dmc").write_text(graph_text(inst))


def import_program() -> None:
    """Import the program from this checkout's `src`, never an installed copy."""
    src = ROOT / "src"
    if not (src / "arborpack" / "cli.py").is_file():
        raise SystemExit(f"stagebench: no program source under {src}")
    sys.path.insert(0, str(src))
    import arborpack.cli  # noqa: F401


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    import_program()
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

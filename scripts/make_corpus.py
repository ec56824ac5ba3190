#!/usr/bin/env python3
"""Write a seeded corpus of .dmc graph files for benchmarking.

Example:
    python scripts/make_corpus.py --out corpus/ --count 50 --seed 1 --max-cap 4
"""
import argparse
from pathlib import Path

from arborpack.cli import format_graph
from arborpack.generators import instance_stream


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-n", type=int, default=40)
    parser.add_argument("--max-m", type=int, default=200)
    parser.add_argument("--max-cap", type=int, default=1)
    parser.add_argument("--unit-only", action="store_true",
                        help="force unit capacities (packable corpus)")
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, g in instance_stream(
        args.count,
        seed=args.seed,
        n_max=args.max_n,
        m_max=args.max_m,
        max_cap=args.max_cap,
        unit_only=args.unit_only,
    ):
        path = out / f"{name}.dmc"
        path.write_text(format_graph(g, comment=f"{name} seed={args.seed}"))
        w = max((c for _u, _v, c in g.edges), default=1)
        print(f"{path}  n={g.n} m={g.m} W={w}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

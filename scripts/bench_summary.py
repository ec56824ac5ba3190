#!/usr/bin/env python3
"""Summarize bench JSON-lines output: approximation ratios and congestion.

A packing of k arborescences has congestion at least ceil(k / exact),
where exact is the rooted min-cut, and by Edmonds' theorem that floor
can be reached; the summary counts the packs at it, one above it, and
two or more above it.

Example:
    arborpack bench corpus/ --seed 1 > bench.jsonl
    python scripts/bench_summary.py bench.jsonl
"""
import argparse
import json
import sys
from collections import Counter


def fail(message: str) -> int:
    print(f"bench_summary.py: error: {message}", file=sys.stderr)
    return 2


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("records", help="bench .jsonl file, or - for stdin")
    args = parser.parse_args()

    ratios = []
    congestions = []
    above_floor = Counter()
    outcomes = Counter()
    count = 0
    try:
        stream = sys.stdin if args.records == "-" else open(args.records)
        with stream:
            for lineno, line in enumerate(stream, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    ratio, result, congestion = (
                        rec["ratio"], rec["pack_result"], rec["congestion"]
                    )
                    if congestion is not None:
                        floor = -(-rec["k"] // rec["exact"])
                except ValueError:
                    return fail(f"line {lineno} is not JSON")
                except KeyError as exc:
                    return fail(f"line {lineno}: bench record lacks key {exc}")
                except TypeError:
                    return fail(f"line {lineno} is not a JSON object")
                except ZeroDivisionError:
                    return fail(f"line {lineno}: a packing into trees has exact 0")
                count += 1
                ratios.append(ratio)
                outcomes[result or "skipped"] += 1
                if congestion is not None:
                    congestions.append(congestion)
                    above_floor[min(congestion - floor, 2)] += 1
    except (OSError, UnicodeDecodeError) as exc:
        return fail(f"cannot read {args.records}: {exc}")
    if not count:
        print("no records")
        return 1
    ratios.sort()
    print(f"instances:        {count}")
    print(f"mincut ratio:     mean {sum(ratios) / count:.3f}  "
          f"median {ratios[count // 2]:.3f}  max {ratios[-1]:.3f}")
    exact_hits = sum(1 for r in ratios if r <= 1.0)
    print(f"exact matches:    {exact_hits}/{count}")
    print(f"pack outcomes:    {dict(outcomes)}")
    if congestions:
        print(f"tree congestion:  mean {sum(congestions) / len(congestions):.2f}  "
              f"max {max(congestions)}")
        print(f"vs ceil(k/exact): at the floor {above_floor[0]}, "
              f"one above {above_floor[1]}, two or more above {above_floor[2]}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

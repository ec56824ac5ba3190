"""Run the stage benchmark over several seeds, summarise the spread, and
check that the traced counts repeat.

    python3 stagebench/spread.py --workload trees --seeds 1-10

The runs are sequential and last `run_seconds` of `BENCHMARK.json`. For
every end-to-end metric, and for the wall-clock seconds of every stage
(summed from the per-instance rows), this prints the median, the first
and third quartiles (`statistics.quantiles(values, n=4)`) and the spread:
the distance between the quartiles as a share of the median.

Then the first seed runs twice with `--trace 1`. Every count metric must
be the same in both traced runs, and none may be missing; the traced
minus untraced stage CPU seconds of that seed are printed as the tracing
overhead. The summary also goes to `stagebench/out/spread-<workload>.json`.
Exits 1 if a run is not correct or the traced counts differ.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
STAGES = ("hierarchy", "mincut", "exact", "pack", "verify")


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[dict]]:
    """One benchmark run: its result line and its per-instance rows."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"seed {seed}, trace {trace}: outputs failed their checks")
    tag = f"{workload}-seed{seed}-trace{trace}"
    rows = [json.loads(line) for line in open(OUT / f"rows-{tag}.jsonl")]
    return result, rows


def stage_cpu(rows: list[dict]) -> dict:
    return {stage: sum(r["stages"][stage]["cpu_s"] for r in rows if stage in r["stages"])
            for stage in STAGES}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args()
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    metrics: dict[str, list] = {}
    walls: dict[str, list] = {}
    shares = set()
    untraced_cpu = None
    for seed in args.seeds:
        result, rows = run(args.workload, seed, seconds, 0)
        untraced_cpu = untraced_cpu or stage_cpu(rows)
        shares.add((result["failed"], result["attempted"]))
        for name, metric in result["metrics"].items():
            metrics.setdefault(name, []).append(metric["value"])
        for stage in STAGES:
            walls.setdefault(f"{stage}_wall_s", []).append(
                sum(r["stages"][stage]["wall_s"] for r in rows if stage in r["stages"]))
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), file=sys.stderr)

    table: dict = {name: summary(values) for name, values in {**metrics, **walls}.items()
                   if len(values) >= 2}
    print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8}")
    for name, row in table.items():
        print(f"{name:32} {row['median']:12.5g} {row['q1']:12.5g} "
              f"{row['q3']:12.5g} {row['spread']:8.2%}")
    print(f"failed/attempted: {sorted(shares)}")
    table["failed/attempted"] = sorted(shares)

    seed = args.seeds[0]
    traced = [run(args.workload, seed, seconds, 1) for _ in range(2)]
    counts = [{name: m["value"] for name, m in result["metrics"].items() if m["unit"] != "s"}
              for result, _rows in traced]
    missing = sorted(name for name, m in traced[0][0]["metrics"].items() if "missing" in m)
    differ = sorted(name for name in counts[0] if counts[0][name] != counts[1].get(name))
    overhead = {stage: cpu - untraced_cpu[stage]
                for stage, cpu in stage_cpu(traced[0][1]).items()}
    print(f"traced seed {seed}: {len(counts[0])} count metrics, differ: {differ}, "
          f"missing: {missing}")
    print("tracing overhead, traced minus untraced CPU s: " + " ".join(
        f"{stage}={delta:+.3f} ({delta / untraced_cpu[stage]:+.1%})"
        for stage, delta in overhead.items()))
    table["traced"] = {"seed": seed, "counts": counts[0], "differ": differ,
                       "missing": missing, "overhead_s": overhead}
    (OUT / f"spread-{args.workload}.json").write_text(json.dumps(table, indent=1) + "\n")
    return 1 if differ or missing else 0


if __name__ == "__main__":
    sys.exit(main())

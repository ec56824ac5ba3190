"""Stage benchmark: the arborpack CLI subcommands, timed in CPU seconds.

    python3 stagebench/run.py --workload trees --seed 1 --seconds 25 --trace 0

Run from the root of a checkout. The benchmark writes its seeded inputs
(see `inputs.py`), then makes one round of calls, in-process through
`arborpack.cli.main`: `hierarchy` and `mincut` on every instance and, on
the full instances, `mincut --exact`, `pack --k` (at the k the workload
names) and `verify` on the results. The round's work is fixed; the
workload sizes make it last about `run_seconds` of `BENCHMARK.json`, and
a round that overruns `--seconds` is reported on standard error.
Each call is timed as the CPU time of this process, children included,
with parsing the graph and emitting the JSON. A stage metric is the CPU
seconds of all its calls.

After the round, every output is checked against references computed
apart from the program (`check.py`), and `verify` must reject one
corrupted packing and one corrupted mincut result.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of `tracing.py` with `--trace 1`.
Per-instance rows, and with tracing every span, go to `stagebench/out/`.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import tracing

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
STAGES = ("hierarchy", "mincut", "exact", "pack", "verify")
SETUPS = 5


def cpu_s() -> float:
    """User plus system CPU seconds of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


@dataclass
class Call:
    stage: str
    key: str  # the operation within its instance, e.g. "pack-lambda+1"
    rc: int | None
    text: str
    cpu: float
    wall: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and self.rc == 0


def invoke(cli, tracer, argv: list[str]) -> tuple[int | None, str, str | None]:
    buf = io.StringIO()
    span = tracer.begin(tracing.CLI_SPAN) if tracer else None
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        error = None
    except Exception as exc:  # a crash is a failed operation, not the end of the run
        rc, error = None, f"{type(exc).__name__}: {str(exc)[:200]}"
    finally:
        if tracer:
            tracer.end(span)
    return rc, buf.getvalue(), error


def run_instance(cli, tracer, inst, graph: Path, seed: int, work: Path) -> list[Call]:
    """The operations on `inst`; `seed` is the program's --seed."""
    calls: list[Call] = []

    def call(stage: str, key: str, argv: list[str]) -> Call:
        wall0, cpu0 = time.perf_counter(), cpu_s()
        rc, text, error = invoke(cli, tracer, argv)
        res = Call(stage, key, rc, text, cpu_s() - cpu0, time.perf_counter() - wall0, error)
        calls.append(res)
        return res

    def skipped(stage: str, key: str) -> None:
        calls.append(Call(stage, key, None, "", 0.0, 0.0, "skipped: lambda unknown"))

    g, s = str(graph), str(seed)
    call("hierarchy", "hierarchy", ["hierarchy", g, "--seed", s])
    approx = call("mincut", "mincut", ["mincut", g, "--seed", s])
    if not inst.full:
        return calls
    exact = call("exact", "exact", ["mincut", g, "--exact"])
    try:
        lam = json.loads(exact.text)["value"] if exact.ok else None
    except (ValueError, KeyError):
        lam = None  # check_outputs reports the malformed output
    for want in inst.pack_ks:
        if isinstance(want, str) and lam is None:
            skipped("pack", f"pack-{want}")
            skipped("verify", f"verify-pack-{want}")
            continue
        k = inputs.pack_k(want, lam)
        packed = call("pack", f"pack-{want}", ["pack", g, "--k", str(k), "--seed", s])
        result = work / f"{inst.name}-pack-{want}.json"
        result.write_text(packed.text)
        call("verify", f"verify-pack-{want}", ["verify", str(result), g])
    if inst.verify_mincut:
        result = work / f"{inst.name}-mincut.json"
        result.write_text(approx.text)
        call("verify", "verify-mincut", ["verify", str(result), g])
    return calls


def check_outputs(inst, lam: int, calls: list[Call], errors: list) -> dict:
    """Check the output of every completed call; returns the parsed
    outputs by operation."""
    import check

    parsed = {}
    for c in calls:
        if not c.ok:
            continue
        try:
            out = json.loads(c.text)
            if c.key == "hierarchy":
                errs = check.check_hierarchy(inst.n, inst.edges, out)
            elif c.key in ("mincut", "exact"):
                errs = check.check_mincut(inst.n, inst.edges, lam, out, c.key == "exact")
            elif c.key.startswith("pack-"):
                want = next(w for w in inst.pack_ks if c.key == f"pack-{w}")
                errs = check.check_packing(
                    inst.n, inst.edges, lam, inputs.pack_k(want, lam), out)
            else:
                errs = check.check_verify(out, 0, True)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            errs = [f"malformed output ({type(exc).__name__}: {exc})"]
        else:
            parsed[c.key] = out
        errors += [f"{inst.name} {c.key}: {e}" for e in errs]
    return parsed


def corrupted_verifies(cli, inst, graph: Path, parsed: dict, work: Path) -> list:
    """`verify` on a broken packing and a broken mincut result of `inst`:
    both must report not ok and exit 1. Returns (what, errors or None
    when verify crashed) per result."""
    import check

    pack = next(out for key, out in parsed.items()
                if key.startswith("pack-") and out["result"] == "arborescences")
    bad_pack = dict(pack, trees=[pack["trees"][0][:-1]] + pack["trees"][1:])
    bad_cut = dict(parsed["mincut"], value=parsed["mincut"]["value"] + 1)
    results = []
    for what, payload in (("pack", bad_pack), ("mincut", bad_cut)):
        path = work / f"{inst.name}-broken-{what}.json"
        path.write_text(json.dumps(payload))
        rc, text, error = invoke(cli, None, ["verify", str(path), str(graph)])
        errs = None if error else check.check_verify(json.loads(text), rc, False)
        results.append((what, errs))
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    inputs.import_program()  # fails fast when the checkout has no program
    import arborpack.cli as cli

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        return run(args, cli, tag, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, cli, tag: str, work: Path) -> int:
    # Set-up: a fresh interpreter imports the program and writes the
    # inputs; the median of several such set-ups is setup_s.
    setups = []
    for _ in range(SETUPS):
        before = cpu_s()
        subprocess.run(
            [sys.executable, str(HERE / "inputs.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--out", str(work)],
            check=True, stdout=subprocess.DEVNULL,
        )
        setups.append(cpu_s() - before)
    insts = inputs.instances(args.workload, args.seed)
    graphs = {inst.name: work / f"{inst.name}.dmc" for inst in insts}

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    started = time.perf_counter()
    # Each instance gets its own program seed: with one seed for all, the
    # randomized stages draw the same trials on every instance and their
    # times move together instead of averaging out.
    done = [(inst, run_instance(cli, tracer, inst, graphs[inst.name],
                                1000 * args.seed + idx, work))
            for idx, inst in enumerate(insts)]
    elapsed = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.uninstall()
    if elapsed > args.seconds:
        print(f"stagebench: the round took {elapsed:.1f} s, more than --seconds "
              f"{args.seconds:g}", file=sys.stderr)

    # Everything below runs outside the timed stages.
    import check

    errors: list[str] = []  # wrong outputs: the run is not correct
    failures: list[str] = []  # operations that did not complete
    attempted = 0
    rows, ratios, congestions, parsed_all = [], [], [], []
    for inst, calls in done:
        attempted += len(calls)
        failures += [f"{inst.name} {c.key}: {c.error or f'exit {c.rc}'}"
                     for c in calls if not c.ok]
        lam = check.rooted_connectivity(inst.n, inst.edges)
        if inst.k is not None and inst.k != lam:
            errors.append(f"{inst.name}: reference lambda {lam} != {inst.k} by construction")
        parsed = check_outputs(inst, lam, calls, errors)
        parsed_all.append(parsed)
        if "mincut" in parsed:
            ratios.append(parsed["mincut"]["value"] / lam)
        congestions += [out["congestion"] for key, out in parsed.items()
                        if key.startswith("pack-") and out.get("result") == "arborescences"]
        stages: dict = {}
        for c in calls:
            stage = stages.setdefault(c.stage, {"cpu_s": 0.0, "wall_s": 0.0})
            stage["cpu_s"] += c.cpu
            stage["wall_s"] += c.wall
        ks = [out["k"] for key, out in parsed.items() if key.startswith("pack-")]
        rows.append({"instance": inst.name, "n": inst.n, "m": len(inst.edges), "k": ks,
                     "lambda": lam, "stages": stages})

    # One broken result of each kind, from the first instance packed into
    # trees; these two verify calls count as operations, untimed.
    for inst, parsed in zip(insts, parsed_all):
        if any(k.startswith("pack-") and out["result"] == "arborescences"
               for k, out in parsed.items()) and "mincut" in parsed:
            for what, errs in corrupted_verifies(cli, inst, graphs[inst.name], parsed, work):
                attempted += 1
                if errs is None:
                    failures.append(f"{inst.name} corrupted {what}: verify crashed")
                else:
                    errors += [f"{inst.name} corrupted {what}: {e}" for e in errs]
            break
    else:
        errors.append("no packing result into trees to corrupt")

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"rows-{tag}.jsonl", "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")

    if tracer:
        metrics = tracer.metrics()
        with open(OUT / f"spans-{tag}.jsonl", "w") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
        for name, metric in metrics.items():
            if "missing" in metric:
                print(f"stagebench: {name} is missing: {metric['missing']}", file=sys.stderr)
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}}
        for stage in STAGES:
            total = sum(c.cpu for _inst, calls in done for c in calls if c.stage == stage)
            metrics[f"{stage}_s"] = {"value": total, "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        for name, unit, values in (("cut_ratio", "ratio", ratios),
                                   ("congestion", "count", congestions)):
            metrics[name] = {"value": statistics.fmean(values) if values else None,
                             "unit": unit}

    for line in failures:
        print(f"stagebench: failed: {line}", file=sys.stderr)
    for line in errors:
        print(f"stagebench: wrong: {line}", file=sys.stderr)
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

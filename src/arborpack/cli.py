"""Command-line surface: graph I/O, generators, pipeline subcommands.

Text format (DIMACS-flavored, 1-based vertex ids):

    c <comment>
    p dmc <n> <m> <source>
    a <tail> <head> [capacity]      (capacity omitted means 1)

All JSON written to stdout uses 0-based vertex and edge ids and sorted
keys; diagnostics go to stderr. Exit codes: 0 success, 1 operation
error (including a failed verification), 2 parse or parameter error
(including a malformed command line).
The ARBOR_SEED environment variable supplies the default seed.

Every document is one line of `json.dumps(data, sort_keys=True)`;
`bench` writes one such line per instance. `python -m json.tool`
pretty-prints a document.

Only this module writes and reads the result documents and parses phi
text. `verify` checks a result file against the shipped schema of its
kind before it reads a field; a file the schema rejects, or one with an
integer written as a float such as 9.0, is a parameter error naming the
JSON path (exit 2).
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import generators
from .decomp import DEFAULT_PHI, Hierarchy, build_hierarchy
from .errors import ArborError, InputError, InternalError, ParameterError, UnsupportedGraphError
from .graphcore import (
    MAX_CAPACITY,
    DirectedGraph,
    check_edge_count,
    check_vertex_count,
    cut_values,
    normalize,
)
from .mincut import approx_rooted_mincut
from .oracle import exact_rooted_mincut, verify_packing
from .packing import PackingResult, pack

__all__ = ["parse_graph", "format_graph", "main"]


@dataclass(frozen=True)
class ParseDiagnostics:
    dropped_self_loops: int
    dropped_source_incoming: int


def parse_graph(text: str) -> tuple[DirectedGraph, ParseDiagnostics]:
    """Parse the text format into a normalized graph plus drop counts."""
    n = m = s = None
    raw: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if n is not None:
                raise InputError(f"line {lineno}: duplicate problem line")
            if len(fields) != 5 or fields[1] != "dmc":
                raise InputError(f"line {lineno}: expected 'p dmc <n> <m> <s>'")
            try:
                n, m, s = int(fields[2]), int(fields[3]), int(fields[4])
            except ValueError as exc:
                raise InputError(f"line {lineno}: non-integer problem field") from exc
            if n < 1 or m < 0 or not 1 <= s <= n:
                raise InputError(f"line {lineno}: problem line out of range")
            check_vertex_count(n)
            check_edge_count(m)
        elif fields[0] == "a":
            if n is None:
                raise InputError(f"line {lineno}: arc before problem line")
            if len(raw) == m:
                raise InputError(f"line {lineno}: problem line declares {m} arcs, found more")
            if len(fields) not in (3, 4):
                raise InputError(f"line {lineno}: expected 'a <tail> <head> [cap]'")
            try:
                tail, head = int(fields[1]), int(fields[2])
                cap = int(fields[3]) if len(fields) == 4 else 1
            except ValueError as exc:
                raise InputError(f"line {lineno}: non-integer arc field") from exc
            if not (1 <= tail <= n and 1 <= head <= n):
                raise InputError(f"line {lineno}: arc endpoint out of range")
            if cap < 1:
                raise InputError(f"line {lineno}: capacity must be >= 1")
            if cap > MAX_CAPACITY:
                raise InputError(f"line {lineno}: capacity {cap} exceeds bound 2^40")
            raw.append((tail - 1, head - 1, cap))
        else:
            raise InputError(f"line {lineno}: unknown line type {fields[0]!r}")
    if n is None:
        raise InputError("missing problem line 'p dmc <n> <m> <s>'")
    if len(raw) != m:
        raise InputError(f"problem line declares {m} arcs, found {len(raw)}")
    loops = sum(1 for u, v, _c in raw if u == v)
    into_source = sum(1 for u, v, _c in raw if v == s - 1 and u != v)
    g = normalize(raw, n, s - 1)
    return g, ParseDiagnostics(loops, into_source)


def format_graph(g: DirectedGraph, comment: str | None = None) -> str:
    """Serialize a graph to the text format (1-based ids)."""
    lines = []
    if comment:
        for part in comment.splitlines():
            lines.append(f"c {part}")
    lines.append(f"p dmc {g.n} {g.m} {g.source + 1}")
    for u, v, c in g.edges:
        lines.append(f"a {u + 1} {v + 1} {c}")
    return "\n".join(lines) + "\n"


def hierarchy_to_json(hier: Hierarchy) -> dict:
    """The `hierarchy` result document of `hier`."""
    g = hier.graph
    return {
        "kind": "hierarchy", "n": g.n, "m": g.m, "source": g.source,
        "phi_target": str(hier.phi_target),
        "levels": [sorted(level) for level in hier.levels],
        "partitions": [[sorted(comp) for comp in part.components] for part in hier.partitions],
        "level_phis": [str(phi) for phi in hier.level_phis],
    }


def packing_to_json(result: PackingResult) -> dict:
    """The `packing` result document of `result`, without the seed."""
    data: dict = {"kind": "packing", "k": result.k, "result": result.kind}
    if result.kind == "arborescences":
        data.update(trees=[sorted(t) for t in result.trees], congestion=result.congestion)
    else:
        data.update(cut=sorted(result.cut_vertices), delta=result.cut_delta)
    if result.levels is not None:
        data["levels"] = result.levels
    data["routing"] = list(result.level_log)
    return data


def _emit(data: dict) -> None:
    sys.stdout.write(json.dumps(data, sort_keys=True) + "\n")


def _load_graph(path: str) -> DirectedGraph:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read graph file: {exc}") from exc
    g, diag = parse_graph(text)
    if diag.dropped_self_loops or diag.dropped_source_incoming:
        print(
            f"note: {Path(path).name}: dropped {diag.dropped_self_loops} self-loops and "
            f"{diag.dropped_source_incoming} source-incoming arcs",
            file=sys.stderr,
        )
    return g


def _default_seed() -> int:
    raw = os.environ.get("ARBOR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ParameterError(f"ARBOR_SEED must be an integer, got {raw!r}")


_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def _phi_text(text: str) -> Fraction | None:
    """`Fraction(text)`, or None when `text` has a decimal exponent no phi
    can need, which `Fraction` would first raise 10 to. A phi in (0, 1]
    with a denominator of at most 2^192 < 10^58 (a command-line phi
    halved 64 times) has one of magnitude at most len(text) + 58: the
    mantissa cancels at most as many powers of ten as it has digits."""
    match = _EXPONENT.search(text)
    if match:
        digits = match.group(1).replace("_", "").lstrip("0")
        limit = len(text) + 58
        if len(digits) > len(str(limit)) or int(digits or "0") > limit:
            return None
    return Fraction(text)


def _phi(text: str) -> Fraction:
    try:
        value = _phi_text(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParameterError(f"invalid phi value {text!r}") from exc
    # sigma = floor(1/phi) stops mattering past the total terminal degree,
    # at most 2^65 under MAX_CAPACITY and MAX_EDGES; the bound also keeps
    # the hierarchy's phi strings under Python's int-to-str digit limit.
    if value is None or not 0 < value <= 1 or value.denominator > 1 << 128:
        raise ParameterError(
            f"phi must lie in (0, 1] with a denominator of at most 2^128, got {text!r}"
        )
    return value


def _cmd_gen(args) -> int:
    kind, seed, cap = args.kind, args.seed, args.max_cap
    if kind in ("random_gnm", "dag_layered", "cycle_plus_chords") and args.n is None:
        raise ParameterError(f"{kind} requires --n")
    if kind in ("random_gnm", "dag_layered") and args.m is None:
        raise ParameterError(f"{kind} requires --m")
    if kind == "random_gnm":
        g = generators.gen_random_gnm(args.n, args.m, seed, cap)
    elif kind == "dag_layered":
        g = generators.gen_dag_layered(args.n, args.m, seed, cap)
    elif kind == "cycle_plus_chords":
        g = generators.gen_cycle_plus_chords(args.n, args.chords, seed, cap)
    elif kind == "two_cliques_bridge":
        g = generators.gen_two_cliques_bridge(args.half, seed, cap)
    else:
        if args.n is None or args.k is None:
            raise ParameterError("known_packing requires --n and --k")
        if cap != 1:
            raise ParameterError("known_packing has unit capacities, so --max-cap must be 1")
        g = generators.gen_known_packing(args.n, args.k, seed)
    text = format_graph(g, comment=f"kind={kind} seed={seed}")
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as exc:
            raise ParameterError(f"cannot write graph file: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


def _cmd_hierarchy(args) -> int:
    g = _load_graph(args.graph)
    hier = build_hierarchy(g, _phi(args.phi), args.seed)
    _emit(hierarchy_to_json(hier))
    return 0


def _cmd_mincut(args) -> int:
    g = _load_graph(args.graph)
    data: dict = {"kind": "mincut"}
    if args.exact:
        value, side = exact_rooted_mincut(g)
        data.update(method="exact", value=value, cut=sorted(side))
    else:
        hier = build_hierarchy(g, _phi(args.phi), args.seed)
        report = approx_rooted_mincut(hier, args.seed)
        best = report.best
        data.update(
            method="approx",
            value=best.rho,
            cut=sorted(best.vertex_set),
            level=best.level,
            sampled_vertex=best.sampled_vertex,
            seed=args.seed,
        )
        if args.verbose:
            data["candidates"] = [
                {"cut": sorted(c.vertex_set), "value": c.rho, "level": c.level}
                for c in report.candidates
            ]
        if args.ratio:
            exact, _ = exact_rooted_mincut(g)
            data["exact"] = exact
            data["ratio_vs_exact"] = (best.rho / exact) if exact else 1.0
    _emit(data)
    return 0


def _cmd_pack(args) -> int:
    g = _load_graph(args.graph)
    result = pack(g, args.k, _phi(args.phi), args.seed)
    _emit({**packing_to_json(result), "seed": args.seed})
    return 0


_JSON_TYPES = {"integer": (int,), "number": (int, float), "string": (str,),
               "boolean": (bool,), "array": (list,), "object": (dict,)}
_KEYWORDS = set("$schema $id title type const enum minimum pattern minItems items uniqueItems "
                "required properties additionalProperties allOf if then".split())
_SCHEMAS: dict[str, dict] = {}


def schema_violations(value, schema: dict, path: str):
    """Yield, lazily, each way in which the JSON `value` at `path` breaks
    `schema`; a keyword not in `_KEYWORDS` raises `InternalError`. Unlike
    JSON Schema, an integer is never a float such as 9.0, and `const`,
    `enum` and `uniqueItems` compare types too."""
    kind = type(value)
    for key, want in schema.items():
        if key not in _KEYWORDS or (key == "additionalProperties" and want is not False):
            raise InternalError(f"schema keyword {key!r}: {want!r} is not supported")
        if key == "type" and kind not in _JSON_TYPES[want]:
            yield f"{path} must be of type {want}"
        elif key in ("const", "enum"):
            options = [want] if key == "const" else want
            if not any(kind is type(o) and value == o for o in options):
                yield f"{path} must be {' or '.join(map(json.dumps, options))}"
        elif key == "minimum" and kind in (int, float) and value < want:
            yield f"{path} must be at least {want}"
        elif key == "pattern" and kind is str and not re.search(want, value):
            yield f"{path} must match {want}"
        elif key == "minItems" and kind is list and len(value) < want:
            yield f"{path} must have at least {want} items"
        elif key == "items" and kind is list and not (  # lists of ids take one flat pass
            want == {"type": "integer", "minimum": 0}
            and all(type(x) is int for x in value) and min(value, default=0) >= 0
        ):
            for i, item in enumerate(value):
                yield from schema_violations(item, want, f"{path}[{i}]")
        elif key == "uniqueItems" and want and kind is list:
            seen: set = set()
            for i, item in enumerate(value):
                mark = item if type(item) is int else json.dumps(item, sort_keys=True)
                if mark in seen:
                    yield f"{path}[{i}] repeats an earlier item"
                    break
                seen.add(mark)
        elif key == "required" and kind is dict:
            yield from (f"{path} lacks {name!r}" for name in want if name not in value)
        elif key == "properties" and kind is dict:
            for name, sub in want.items():
                if name in value:
                    yield from schema_violations(value[name], sub, f"{path}.{name}")
        elif key == "additionalProperties" and kind is dict:
            known = schema.get("properties", {})
            yield from (f"{path} has no field {name!r}" for name in value if name not in known)
        elif key == "allOf":
            for sub in want:
                yield from schema_violations(value, sub, path)
        elif key == "if" and next(schema_violations(value, want, path), None) is None:
            yield from schema_violations(value, schema.get("then", {}), path)


def hierarchy_from_json(data: dict, g: DirectedGraph) -> Hierarchy:
    """The hierarchy a schema-valid `hierarchy` result describes, built
    on g from its levels and phis once its n, m and source match g's; the
    partitions it lists must be the derived ones. Raises an `ArborError`
    for a wrong result, and a `ValueError`, `ZeroDivisionError` or
    `IndexError` for phi text that names no number or an id past n."""
    if [data["n"], data["m"], data["source"]] != [g.n, g.m, g.source]:
        raise ParameterError("hierarchy was not built on this graph")
    levels = tuple(map(frozenset, data["levels"]))
    partitions = data["partitions"]
    phi_target = Fraction(data["phi_target"])
    level_phis = tuple(map(Fraction, data["level_phis"]))
    if len(partitions) != len(levels) + 1:
        raise InternalError("level/partition counts are inconsistent")
    hier = Hierarchy(g, phi_target, levels, level_phis)
    for i, (groups, part) in enumerate(zip(partitions, hier.partitions)):
        claimed = sorted(map(frozenset, groups), key=min)
        # Looking each id up first makes one outside the vertex table a
        # malformed field rather than a wrong partition.
        named = {part.comp_of[v] for comp in claimed for v in comp}
        if len(named) != len(part.components) or tuple(claimed) != part.components:
            raise InternalError(f"level-{i} partition does not match its SCCs")
    return hier


def _read_result(path: str) -> dict:
    """The result document in a file, checked against the schema of its
    kind; `ParameterError` if there is none or it breaks the schema, and
    `InternalError` if the installed schema file cannot be read."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read result file: {exc}") from exc
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
        raise ParameterError(f"result file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParameterError("result file nests JSON too deeply") from exc
    if not isinstance(payload, dict):
        raise ParameterError("result file must hold a JSON object")
    kind = payload.get("kind")
    if kind not in ("hierarchy", "mincut", "packing"):
        raise ParameterError(f"cannot verify result of kind {kind!r}")
    if kind not in _SCHEMAS:
        schema = Path(__file__).parent / "schemas" / f"{kind}.schema.json"
        try:
            _SCHEMAS[kind] = json.loads(schema.read_text())
        except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
            raise InternalError(f"cannot load schema file {schema}: {exc}") from exc
    error = next(schema_violations(payload, _SCHEMAS[kind], "$"), None)
    if error:
        raise ParameterError(f"malformed {kind} result: {error}")
    return payload


def _cmd_verify(args) -> int:
    g = _load_graph(args.graph)
    payload = _read_result(args.result)
    kind = payload["kind"]
    if kind == "packing":
        if payload["result"] == "arborescences":
            trees = tuple(map(tuple, payload["trees"]))
            result = PackingResult("arborescences", payload["k"], trees, payload["congestion"])
        else:
            side = frozenset(payload["cut"])
            delta = payload["delta"]
            result = PackingResult("cut", payload["k"], cut_vertices=side, cut_delta=delta)
        report = verify_packing(g, result)
    elif kind == "mincut":
        # The checks stay here, beside the `cut_values` call that the
        # stage benchmark traces as `cli.cut_values`.
        side = frozenset(payload["cut"])
        value = payload["value"]
        if g.n < 2:
            raise ParameterError("rooted min-cut needs at least one non-source vertex")
        rho = cut_values(g, side).rho
        # A sink side T (nonempty by the schema) of valid ids without the
        # source has rho(T) >= rooted connectivity, so value = rho(T) holds.
        checks = [
            {"name": "source_excluded", "ok": g.source not in side, "detail": ""},
            {"name": "value_reeval", "ok": rho == value, "detail": f"recomputed {rho}"},
            {
                "name": "ids_in_range",
                "ok": all(v < g.n for v in side),
                "detail": f"ids in 0..{g.n - 1}",
            },
        ]
        report = {"kind": "verify", "ok": all(c["ok"] for c in checks), "checks": checks}
    else:
        try:
            hierarchy_from_json(payload, g)
            ok, detail = True, ""
        except (ValueError, IndexError, ZeroDivisionError) as exc:
            raise ParameterError(f"malformed hierarchy result: {exc!r}") from exc
        except ArborError as exc:
            ok, detail = False, str(exc)
        check = {"name": "hierarchy_invariants", "ok": ok, "detail": detail}
        report = {"kind": "verify", "ok": ok, "checks": [check]}
    _emit(report)
    return 0 if report["ok"] else 1


def _bench_record(path: Path, phi: Fraction, args) -> dict:
    g = _load_graph(str(path))
    started = time.perf_counter()
    record: dict = {
        "kind": "bench",
        "file": path.name,
        "n": g.n,
        "m": g.m,
        "seed": args.seed,
    }
    hier = build_hierarchy(g, phi, args.seed)
    report = approx_rooted_mincut(hier, args.seed)
    exact, _ = exact_rooted_mincut(g)
    record["value"] = report.best.rho
    record["exact"] = exact
    record["ratio"] = (report.best.rho / exact) if exact else 1.0
    k = max(1, exact)
    record["k"] = k
    try:
        result = pack(g, k, phi, args.seed)
        record["pack_result"] = result.kind
        record["congestion"] = result.congestion
    except UnsupportedGraphError:
        record["pack_result"] = None
        record["congestion"] = None
    if args.timing:
        record["wall_time_s"] = round(time.perf_counter() - started, 6)
    return record


def _cmd_bench(args) -> int:
    corpus = sorted(Path(args.corpus).glob("*.dmc"))
    if not corpus:
        raise ParameterError(f"no .dmc files under {args.corpus}")
    phi = _phi(args.phi)
    for path in corpus:
        try:
            record = _bench_record(path, phi, args)
        except ArborError as exc:
            # Same class, so the exit code stays; the message names the file.
            raise type(exc)(f"{path.name}: {exc}") from exc
        _emit(record)
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a `ParameterError`, which `main` emits as
    a JSON error with exit code 2; `--help` still prints and exits 0."""

    def error(self, message: str):
        raise ParameterError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="arborpack",
        description="Rooted min-cut approximation and arborescence packing "
        "over directed expander hierarchies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p) -> None:
        p.add_argument("--seed", type=int, default=_default_seed(),
                       help="RNG seed (default: ARBOR_SEED or 0)")

    def add_phi(p) -> None:
        p.add_argument("--phi", default=str(DEFAULT_PHI),
                       help="expansion target as a fraction (default 1/16)")

    p = sub.add_parser("gen", help="generate a graph in the text format")
    p.add_argument("kind", choices=generators.GENERATOR_KINDS)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--half", type=int, default=4)
    p.add_argument("--chords", type=int, default=4)
    p.add_argument("--max-cap", type=int, default=1)
    p.add_argument("--out")
    add_seed(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("hierarchy", help="build and print the hierarchy")
    p.add_argument("graph")
    add_phi(p)
    add_seed(p)
    p.set_defaults(func=_cmd_hierarchy)

    p = sub.add_parser("mincut", help="approximate (or exact) rooted min-cut")
    p.add_argument("graph")
    p.add_argument("--exact", action="store_true", help="run the exact oracle")
    p.add_argument("--ratio", action="store_true",
                   help="also compute the exact value and the ratio")
    p.add_argument("--verbose", action="store_true",
                   help="include the candidate cuts: every level-0 singleton and, "
                        "per probed component, the first sample cut below the best so far")
    add_phi(p)
    add_seed(p)
    p.set_defaults(func=_cmd_mincut)

    p = sub.add_parser("pack", help="pack k arborescences or find a cut")
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True)
    add_phi(p)
    add_seed(p)
    p.set_defaults(func=_cmd_pack)

    p = sub.add_parser("verify", help="verify a result JSON against a graph")
    p.add_argument("result")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="run mincut+pack over a corpus directory")
    p.add_argument("corpus")
    p.add_argument("--timing", action="store_true",
                   help="include wall time (breaks byte-stability)")
    add_phi(p)
    add_seed(p)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        # Inside the try: each --seed default reads ARBOR_SEED.
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except (InputError, ParameterError) as exc:
        _emit({"kind": "error", "error_type": "parameter", "message": str(exc)})
        return 2
    except ArborError as exc:
        _emit({"kind": "error", "error_type": "operation", "message": str(exc)})
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing by wrapping the functions each module imports.

A wrapper is installed on the module global the caller looks up, for
example `arborpack.decomp.max_flow` apart from `arborpack.oracle.max_flow`,
so a call is attributed to the layer that makes it. Each call becomes a
span (name, start, end, parent) held in memory; times are process CPU
nanoseconds. Self time is a span's duration minus the time its direct
children cover. Counters are taken at the same boundaries.

A target that no longer exists is recorded as missing, and every metric
that depends on it is reported as missing rather than as zero.
"""
from __future__ import annotations

import importlib
import time
from collections import Counter
from fractions import Fraction

_clock = time.process_time_ns


def _maxflow_counts(args, _kwargs, res, counts: Counter) -> None:
    problem = args[0]
    filt = problem.edge_filter
    counts["maxflow.arcs"] += (
        (problem.graph.m if filt is None else len(filt))
        + sum(1 for a in problem.source_supply.values() if a > 0)
        + sum(1 for a in problem.sink_capacity.values() if a > 0)
    )
    counts["maxflow.flow_units"] += res.value


def _decomp_maxflow_counts(args, kwargs, res, counts: Counter) -> None:
    _maxflow_counts(args, kwargs, res, counts)
    bound = args[0].flow_bound
    if bound is not None and res.value < bound:
        counts["decomp.maxflow_short"] += 1


def _decompose_counts(args, _kwargs, res, counts: Counter) -> None:
    counts["decomp.rounds"] += res.rounds
    ratio = Fraction(args[2]) / res.achieved_phi
    counts["decomp.phi_halvings"] += ratio.numerator.bit_length() - 1


def _sample_counts(_args, _kwargs, res, counts: Counter) -> None:
    counts["mincut.samples"] += len(res)


def _approx_counts(_args, _kwargs, res, counts: Counter) -> None:
    counts["mincut.wins_above_level0"] += res.best.level >= 1


def _route_counts(args, _kwargs, res, counts: Counter) -> None:
    counts["routing.demand_pairs"] += len(args[1].pairs)
    counts["routing.congestion_max"] = max(counts["routing.congestion_max"], res.congestion)


# (caller module, attribute, span name, counter hook). The span name is
# "<callee layer>.<function>@<caller layer>".
TARGETS = (
    ("cli", "parse_graph", "cli.parse_graph@cli", None),
    ("cli", "build_hierarchy", "decomp.build_hierarchy@cli", None),
    ("cli", "approx_rooted_mincut", "mincut.approx@cli", _approx_counts),
    ("cli", "exact_rooted_mincut", "oracle.exact@cli", None),
    ("cli", "verify_packing", "oracle.verify_packing@cli", None),
    ("cli", "pack", "packing.pack@cli", None),
    ("cli", "cut_values", "graphcore.cut_values@cli", None),
    ("decomp", "decompose", "decomp.decompose@decomp", _decompose_counts),
    ("decomp", "Hierarchy.validate", "decomp.validate@decomp", None),
    ("decomp", "max_flow", "maxflow.max_flow@decomp", _decomp_maxflow_counts),
    ("decomp", "scc", "graphcore.scc@decomp", None),
    ("mincut", "sample_endpoints", "mincut.sample@mincut", _sample_counts),
    ("mincut", "mincut_into_component", "mincut.probe@mincut", None),
    ("mincut", "max_flow", "maxflow.max_flow@mincut", _maxflow_counts),
    ("mincut", "cut_values", "graphcore.cut_values@mincut", None),
    ("mincut", "edges_within", "graphcore.edges_within@mincut", None),
    ("oracle", "exact_rooted_mincut", "oracle.exact@oracle", None),
    ("oracle", "verify_arborescence", "oracle.verify_arborescence@oracle", None),
    ("oracle", "max_flow", "maxflow.max_flow@oracle", _maxflow_counts),
    ("oracle", "cut_values", "graphcore.cut_values@oracle", None),
    ("packing", "build_hierarchy", "decomp.build_hierarchy@packing", None),
    ("packing", "critical_edges", "packing.critical_edges@packing", None),
    ("packing", "run_level", "packing.run_level@packing", None),
    ("packing", "check_invariants", "packing.check_invariants@packing", None),
    ("packing", "component_flow", "packing.component_flow@packing", None),
    ("packing", "extract_arborescences", "packing.extract@packing", None),
    ("packing", "finalize_coloring", "packing.finalize@packing", None),
    ("packing", "max_flow", "maxflow.max_flow@packing", _maxflow_counts),
    ("packing", "decompose_paths", "maxflow.decompose_paths@packing", None),
    ("packing", "route", "routing.route@packing", _route_counts),
    ("packing", "cut_values", "graphcore.cut_values@packing", None),
    ("packing", "edges_within", "graphcore.edges_within@packing", None),
)

CLI_SPAN = "cli.main@bench"

def _spans(prefix: str) -> list[str]:
    """Span names whose callee is `prefix` or lies inside it."""
    names = [t[2] for t in TARGETS] + [CLI_SPAN]
    return [
        s for s in names
        if s.split("@")[0] == prefix or s.startswith(prefix + ".")
    ]


_ALL_MAXFLOW = _spans("maxflow.max_flow")

# Per-layer metrics: name -> (unit, kind, span names). Kinds: "calls"
# counts spans, "incl" sums their durations, "self" sums their self
# times, "count" reads the counter of that name, kept by a hook on the
# listed spans.
METRICS = {
    "maxflow.calls": ("count", "calls", _ALL_MAXFLOW),
    "maxflow.self_s": ("s", "self", _ALL_MAXFLOW),
    "maxflow.arcs": ("count", "count", _ALL_MAXFLOW),
    "maxflow.flow_units": ("count", "count", _ALL_MAXFLOW),
    "maxflow.decompose_paths_calls": ("count", "calls", ["maxflow.decompose_paths@packing"]),
    "maxflow.decompose_paths_s": ("s", "incl", ["maxflow.decompose_paths@packing"]),
    "decomp.build_hierarchy_calls": (
        "count", "calls", ["decomp.build_hierarchy@cli", "decomp.build_hierarchy@packing"]),
    "decomp.decompose_calls": ("count", "calls", ["decomp.decompose@decomp"]),
    "decomp.rounds": ("count", "count", ["decomp.decompose@decomp"]),
    "decomp.phi_halvings": ("count", "count", ["decomp.decompose@decomp"]),
    "decomp.maxflow_calls": ("count", "calls", ["maxflow.max_flow@decomp"]),
    "decomp.maxflow_short": ("count", "count", ["maxflow.max_flow@decomp"]),
    "decomp.maxflow_s": ("s", "incl", ["maxflow.max_flow@decomp"]),
    "decomp.validate_s": ("s", "incl", ["decomp.validate@decomp"]),
    "decomp.self_s": ("s", "self", _spans("decomp")),
    "mincut.approx_calls": ("count", "calls", ["mincut.approx@cli"]),
    "mincut.samples": ("count", "count", ["mincut.sample@mincut"]),
    "mincut.probe_calls": ("count", "calls", ["mincut.probe@mincut"]),
    "mincut.probe_s": ("s", "incl", ["mincut.probe@mincut"]),
    "mincut.maxflow_calls": ("count", "calls", ["maxflow.max_flow@mincut"]),
    "mincut.wins_above_level0": ("count", "count", ["mincut.approx@cli"]),
    "mincut.self_s": ("s", "self", _spans("mincut")),
    "oracle.exact_calls": ("count", "calls", ["oracle.exact@cli", "oracle.exact@oracle"]),
    "oracle.maxflow_calls": ("count", "calls", ["maxflow.max_flow@oracle"]),
    "oracle.exact_s": ("s", "incl", ["oracle.exact@cli", "oracle.exact@oracle"]),
    "oracle.verify_packing_s": ("s", "incl", ["oracle.verify_packing@cli"]),
    "oracle.verify_arborescence_s": ("s", "incl", ["oracle.verify_arborescence@oracle"]),
    "oracle.self_s": ("s", "self", _spans("oracle")),
    "packing.build_hierarchy_calls": ("count", "calls", ["decomp.build_hierarchy@packing"]),
    "packing.critical_edges_calls": ("count", "calls", ["packing.critical_edges@packing"]),
    "packing.run_level_calls": ("count", "calls", ["packing.run_level@packing"]),
    "packing.run_level_s": ("s", "incl", ["packing.run_level@packing"]),
    "packing.check_invariants_s": ("s", "incl", ["packing.check_invariants@packing"]),
    "packing.component_flow_calls": ("count", "calls", ["packing.component_flow@packing"]),
    "packing.component_flow_s": ("s", "incl", ["packing.component_flow@packing"]),
    "packing.maxflow_calls": ("count", "calls", ["maxflow.max_flow@packing"]),
    "packing.extract_s": ("s", "incl", ["packing.extract@packing"]),
    "packing.self_s": ("s", "self", _spans("packing")),
    "routing.route_calls": ("count", "calls", ["routing.route@packing"]),
    "routing.demand_pairs": ("count", "count", ["routing.route@packing"]),
    "routing.route_s": ("s", "incl", ["routing.route@packing"]),
    "routing.congestion_max": ("count", "count", ["routing.route@packing"]),
    "graphcore.scc_calls": ("count", "calls", ["graphcore.scc@decomp"]),
    "graphcore.scc_s": ("s", "incl", ["graphcore.scc@decomp"]),
    "graphcore.cut_values_calls": ("count", "calls", _spans("graphcore.cut_values")),
    "graphcore.cut_values_s": ("s", "incl", _spans("graphcore.cut_values")),
    "graphcore.edges_within_calls": ("count", "calls", _spans("graphcore.edges_within")),
    "graphcore.edges_within_s": ("s", "incl", _spans("graphcore.edges_within")),
    "cli.parse_graph_s": ("s", "incl", ["cli.parse_graph@cli"]),
    "cli.self_s": ("s", "self", _spans("cli")),
}



class Tracer:
    """The spans and counters of one run."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index]
        self.counts: Counter = Counter()
        self.missing: dict[str, str] = {}
        self._open: list[int] = []
        self._undo: list[tuple] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, _clock(), 0, parent])
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._open.pop()

    def _wrap(self, fn, name: str, hook):
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                res = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(args, kwargs, res, self.counts)
            return res

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            owner = importlib.import_module(f"arborpack.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if not callable(original):
                self.missing[name] = f"arborpack.{module_name}.{attr}"
                continue
            setattr(owner, leaf, self._wrap(original, name, hook))
            self._undo.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, leaf, original = self._undo.pop()
            setattr(owner, leaf, original)

    def metrics(self) -> dict:
        """Every per-layer metric; one that depends on a missing target
        has the value None and names what is missing."""
        child_ns = [0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        incl: Counter = Counter()
        self_ns: Counter = Counter()
        for idx, (name, start, end, _parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns[idx]
        out = {}
        for metric, (unit, kind, names) in METRICS.items():
            lost = sorted({self.missing[n] for n in names if n in self.missing})
            if lost:
                out[metric] = {"value": None, "unit": unit, "missing": lost}
                continue
            if kind == "calls":
                value = sum(calls[n] for n in names)
            elif kind == "incl":
                value = sum(incl[n] for n in names) / 1e9
            elif kind == "self":
                value = sum(self_ns[n] for n in names) / 1e9
            else:
                value = self.counts[metric]
            out[metric] = {"value": value, "unit": unit}
        return out

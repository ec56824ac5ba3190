"""Directed-graph toolkit: expander hierarchies, approximate rooted
min-cut, and low-congestion arborescence packing, with exact oracles."""

from .decomp import DEFAULT_PHI, DecompResult, Hierarchy, build_hierarchy, decompose
from .graphcore import (
    DirectedGraph,
    Partition,
    cut_values,
    normalize,
    restricted_degrees,
    scc,
)
from .maxflow import FlowProblem, FlowResult, decompose_paths, max_flow
from .mincut import (
    CutCandidate,
    approx_rooted_mincut,
    mincut_into_component,
    probe_inputs,
    sample_endpoints,
)
from .oracle import (
    bruteforce_cut_expansion,
    exact_rooted_mincut,
    verify_arborescence,
    verify_packing,
)
from .packing import PackingResult, pack
from .routing import Demand, RoutingOutcome, route

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_PHI",
    "CutCandidate",
    "DecompResult",
    "Demand",
    "DirectedGraph",
    "FlowProblem",
    "FlowResult",
    "Hierarchy",
    "PackingResult",
    "Partition",
    "RoutingOutcome",
    "approx_rooted_mincut",
    "bruteforce_cut_expansion",
    "build_hierarchy",
    "cut_values",
    "decompose",
    "decompose_paths",
    "exact_rooted_mincut",
    "max_flow",
    "mincut_into_component",
    "normalize",
    "pack",
    "probe_inputs",
    "restricted_degrees",
    "route",
    "sample_endpoints",
    "scc",
    "verify_arborescence",
    "verify_packing",
]

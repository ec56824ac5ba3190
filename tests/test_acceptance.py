"""Acceptance suite: eight release criteria, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
Every criterion states its corpus, its tolerance, and its runtime budget
up front; corpora are seeded streams so reruns are bit-identical.
"""
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from arborpack.decomp import DEFAULT_PHI, build_hierarchy
from arborpack.generators import gen_known_packing, instance_stream
from arborpack.graphcore import cut_values
from arborpack.maxflow import FlowProblem, max_flow
from arborpack.mincut import approx_rooted_mincut
from arborpack.oracle import (
    bruteforce_cut_expansion,
    bruteforce_rooted_mincut,
    exact_rooted_mincut,
    verify_arborescence,
)
from arborpack.packing import (
    ColorState,
    check_invariants,
    critical_edges,
    init_base_colors,
    pack,
    run_level,
)
from arborpack.seeds import derive_seed

from .conftest import refines

MASTER_SEED = 20260810


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


@pytest.fixture(scope="module")
def mincut_corpus():
    """500 mixed instances (n <= 40, m <= 200, caps <= 16) with hierarchy,
    approximate cut, and exact value; timed for criterion 1."""
    started = time.perf_counter()
    rows = []
    for idx, (name, g) in enumerate(
        instance_stream(
            500, seed=MASTER_SEED, n_max=40, m_max=200, max_cap=16, n_mean=9.0
        )
    ):
        hier = build_hierarchy(g, DEFAULT_PHI, derive_seed(MASTER_SEED, "h", idx))
        rep = approx_rooted_mincut(hier, derive_seed(MASTER_SEED, "a", idx))
        exact, _ = exact_rooted_mincut(g)
        rows.append((name, g, hier, rep, exact))
    return rows, time.perf_counter() - started


def test_criterion_1_oracle_validity(mincut_corpus):
    """Approximate min-cut is always a valid cut and never below exact."""
    rows, elapsed = mincut_corpus
    violations = []
    for name, g, _hier, rep, exact in rows:
        best = rep.best
        if g.source in best.vertex_set or not best.vertex_set:
            violations.append(f"{name}: invalid cut side")
        elif cut_values(g, best.vertex_set).rho != best.rho:
            violations.append(f"{name}: value does not re-evaluate")
        elif best.rho < exact:
            violations.append(f"{name}: value {best.rho} below exact {exact}")
    ok = not violations and len(rows) >= 500 and elapsed <= 60.0
    report(
        "criterion 1 (mincut validity)",
        ok,
        f"{len(rows)} instances, {len(violations)} violations, {elapsed:.1f}s <= 60s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_2_instrumented_approximation():
    """On exhaustively certified hierarchies, the returned value stays
    within (L/phi + 1) times exact for at least 95% of seeds."""
    budget = 120.0
    started = time.perf_counter()
    qualified = 0
    within = 0
    generated = 0
    for idx, (name, g) in enumerate(
        instance_stream(400, seed=MASTER_SEED + 1, n_max=12, m_max=80, max_cap=8)
    ):
        generated += 1
        hier = build_hierarchy(g, DEFAULT_PHI, derive_seed(MASTER_SEED, "h2", idx))
        phi_hat = min(
            (
                bruteforce_cut_expansion(g, hier.partition(i), hier.level_edges(i))
                for i in range(1, hier.L + 1)
            ),
            default=math.inf,
        )
        if phi_hat < DEFAULT_PHI:
            continue
        qualified += 1
        rep = approx_rooted_mincut(hier, derive_seed(MASTER_SEED, "a2", idx))
        exact, _ = exact_rooted_mincut(g)
        if phi_hat == math.inf:
            bound = exact  # no binding constraint, the level-0 scan is exact
        else:
            bound = (Fraction(hier.L) / phi_hat + 1) * exact
        if rep.best.rho <= bound:
            within += 1
        if qualified >= 200:
            break
    elapsed = time.perf_counter() - started
    rate = within / qualified if qualified else 0.0
    ok = qualified >= 200 and rate >= 0.95 and elapsed <= budget
    report(
        "criterion 2 (approximation bound)",
        ok,
        f"{within}/{qualified} within (L/phi+1)*exact "
        f"({rate:.1%}), {generated} generated, {elapsed:.1f}s <= {budget:.0f}s",
    )


def test_criterion_3_hierarchy_invariants(mincut_corpus):
    """Cover, halving, level bound, laminarity, singleton source.

    `validate` checks the first three; the partitions are derived when
    the hierarchy is built, so laminarity and the singleton source are
    checked here on what was derived."""
    rows, _ = mincut_corpus
    failures = []
    for name, g, hier, _rep, _exact in rows:
        try:
            hier.validate()
        except Exception as exc:  # noqa: BLE001 - collecting for the report
            failures.append(f"{name}: {exc}")
        for i in range(hier.L + 1):
            if hier.partition(i).component(g.source) != frozenset({g.source}):
                failures.append(f"{name}: source is not a singleton at level {i}")
            if i and not refines(hier.partition(i - 1), hier.partition(i)):
                failures.append(f"{name}: level {i - 1} does not refine level {i}")
    report(
        "criterion 3 (hierarchy invariants)",
        not failures,
        f"{len(rows)} hierarchies, {len(failures)} violations"
        + (f"; first: {failures[0]}" if failures else ""),
    )


@pytest.fixture(scope="module")
def packing_corpus():
    """Unit-capacity instances (n <= 30) packed at k in {1, 2, 3, exact,
    exact+1}; timed for criterion 4."""
    started = time.perf_counter()
    rows = []
    for idx, (name, g) in enumerate(
        instance_stream(
            100, seed=MASTER_SEED + 2, n_max=30, m_max=200, unit_only=True, n_mean=8.0
        )
    ):
        exact, _ = exact_rooted_mincut(g)
        ks = sorted({1, 2, 3, max(1, exact), exact + 1})
        for k in ks:
            result = pack(g, k, DEFAULT_PHI, derive_seed(MASTER_SEED, "p", idx, k))
            rows.append((name, g, k, exact, result))
    return rows, time.perf_counter() - started


def test_criterion_4_packing_dichotomy(packing_corpus):
    """Cuts certify infeasibility; trees are valid with a true
    k/congestion <= connectivity certificate."""
    rows, elapsed = packing_corpus
    budget = 300.0
    violations = []
    for name, g, k, exact, result in rows:
        if result.kind == "cut":
            if g.source not in result.cut_vertices:
                violations.append(f"{name} k={k}: source outside cut")
            elif cut_values(g, result.cut_vertices).delta != result.cut_delta:
                violations.append(f"{name} k={k}: delta mismatch")
            elif result.cut_delta >= k or exact >= k:
                violations.append(f"{name} k={k}: cut does not certify")
        else:
            for tree in result.trees:
                ok, why = verify_arborescence(g, tree)
                if not ok:
                    violations.append(f"{name} k={k}: {why}")
                    break
            else:
                usage = {}
                for tree in result.trees:
                    for e in tree:
                        usage[e] = usage.get(e, 0) + 1
                congestion = max(usage.values(), default=0)
                if congestion != result.congestion:
                    violations.append(f"{name} k={k}: congestion mismatch")
                elif g.n >= 2 and congestion and k > exact * congestion:
                    violations.append(f"{name} k={k}: certificate fails")
    ok = not violations and len(rows) >= 300 and elapsed <= budget
    report(
        "criterion 4 (packing dichotomy)",
        ok,
        f"{len(rows)} (instance, k) runs, {len(violations)} violations, "
        f"{elapsed:.1f}s <= {budget:.0f}s"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_5_completeness_on_feasible_instances():
    """known_packing instances (connectivity >= k by construction) always
    pack into trees, never a cut."""
    cuts = 0
    total = 0
    for seed in range(100):
        k = 1 + seed % 3
        n = 5 + seed % 10
        g = gen_known_packing(n, k, seed=derive_seed(MASTER_SEED, "kp", seed))
        result = pack(g, k, DEFAULT_PHI, derive_seed(MASTER_SEED, "p5", seed))
        total += 1
        if result.kind != "arborescences":
            cuts += 1
    report(
        "criterion 5 (completeness)",
        cuts == 0 and total >= 100,
        f"{total} feasible instances, {cuts} spurious cuts",
    )


def test_criterion_6_level_invariants():
    """Invariants 1-3 hold after every level step."""
    checked_levels = 0
    violations = []
    for idx, (name, g) in enumerate(
        instance_stream(
            80, seed=MASTER_SEED + 3, n_max=24, m_max=150, unit_only=True, n_mean=8.0
        )
    ):
        hier = build_hierarchy(g, DEFAULT_PHI, derive_seed(MASTER_SEED, "h6", idx))
        crit = critical_edges(hier)
        for k in (1, 1 + idx % 3):
            state = init_base_colors(g, k)
            if not isinstance(state, ColorState):
                continue
            for i in range(1, hier.L + 1):
                outcome = run_level(hier, i, state, crit)
                if not isinstance(outcome, ColorState):
                    break
                state = outcome
                checked_levels += 1
                found = check_invariants(hier, i, state, crit)
                if found:
                    violations.append(f"{name} level {i}: {found[0]}")
    report(
        "criterion 6 (level invariants)",
        not violations and checked_levels > 0,
        f"{checked_levels} level steps re-checked, {len(violations)} violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_7_flow_duality_oracle():
    """Exact flow value equals enumerated min cut; rooted min-cut equals
    the enumerated minimum over all vertex sets."""
    budget = 30.0
    started = time.perf_counter()
    bad = []
    for seed in range(100):
        name, g = next(
            iter(
                instance_stream(
                    1, seed=derive_seed(MASTER_SEED, "f7", seed), n_max=8,
                    m_max=24, max_cap=3,
                )
            )
        )
        if g.n < 2:
            continue
        t = max(v for v in range(g.n) if v != g.source)
        problem = FlowProblem(g, {g.source: 9}, {t: 9})
        res = max_flow(problem)
        best = None
        for mask in range(1 << g.n):
            t_side = {v for v in range(g.n) if mask >> v & 1}
            crossing = sum(
                c for u, v, c in g.edges if u not in t_side and v in t_side
            )
            value = (
                (9 if g.source in t_side else 0)
                + crossing
                + (9 if t not in t_side else 0)
            )
            best = value if best is None else min(best, value)
        if res.value != best:
            bad.append(f"seed {seed}: flow {res.value} vs cut {best}")
            continue
        exact, _ = exact_rooted_mincut(g)
        brute, _ = bruteforce_rooted_mincut(g)
        if exact != brute:
            bad.append(f"seed {seed}: exact {exact} vs brute {brute}")
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed <= budget
    report(
        "criterion 7 (flow duality)",
        ok,
        f"100 seeds, {len(bad)} mismatches, {elapsed:.1f}s <= {budget:.0f}s"
        + (f"; first: {bad[0]}" if bad else ""),
    )


def test_criterion_8_byte_determinism(tmp_path):
    """Every subcommand is byte-identical across repeated runs, including
    under different hash randomization."""
    graph = tmp_path / "g.dmc"
    corpus = tmp_path / "corpus"
    corpus.mkdir()

    def run(args, hash_seed, threads="1"):
        env = dict(
            os.environ,
            PYTHONHASHSEED=hash_seed,
            ARBOR_SEED="5",
            OMP_NUM_THREADS=threads,
        )
        proc = subprocess.run(
            [sys.executable, "-m", "arborpack", *args],
            capture_output=True,
            env=env,
            check=False,
        )
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        return proc.stdout

    gen_args = ["gen", "cycle_plus_chords", "--n", "7", "--chords", "8",
                "--seed", "3", "--out", str(graph)]
    run(gen_args, "1")
    first = graph.read_bytes()
    run(gen_args, "7")
    mismatches = [] if graph.read_bytes() == first else ["gen"]
    (corpus / "a.dmc").write_bytes(first)

    pack_json = tmp_path / "pack.json"
    commands = {
        "hierarchy": ["hierarchy", str(graph)],
        "mincut": ["mincut", str(graph), "--ratio", "--verbose"],
        "pack": ["pack", str(graph), "--k", "1"],
        "bench": ["bench", str(corpus)],
    }
    for name, args in commands.items():
        a = run(args, "1", threads="1")
        b = run(args, "42", threads="4")
        if a != b:
            mismatches.append(name)
        if name == "pack":
            pack_json.write_bytes(a)
    a = run(["verify", str(pack_json), str(graph)], "1")
    b = run(["verify", str(pack_json), str(graph)], "42")
    if a != b:
        mismatches.append("verify")
    report(
        "criterion 8 (determinism)",
        not mismatches,
        "all subcommands byte-identical across runs, hash seeds, thread counts"
        if not mismatches
        else f"mismatch in: {', '.join(mismatches)}",
    )

"""Export hygiene: every name a module lists in `__all__` exists, and so
does every name the stage benchmark wraps to trace a layer, whose hooks
give every per-layer metric a number; no module imports a name it never
uses."""
import ast
import contextlib
import importlib
import importlib.util
import io
import json
import pkgutil
from pathlib import Path

import pytest

import arborpack
from arborpack import cli
from arborpack.generators import gen_known_packing, gen_two_cliques_bridge

# `__main__` runs the CLI on import, so it is left out.
MODULES = ["arborpack"] + [
    f"arborpack.{info.name}"
    for info in pkgutil.iter_modules(arborpack.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def load_tracing():
    """`stagebench/tracing.py`, run from its source text: nothing is
    installed in `sys.modules` and no bytecode is written beside it."""
    path = Path(__file__).resolve().parents[1] / "stagebench" / "tracing.py"
    tracing = importlib.util.module_from_spec(
        importlib.util.spec_from_loader("stagebench_tracing", loader=None)
    )
    exec(compile(path.read_text(), str(path), "exec"), tracing.__dict__)
    return tracing


def test_every_traced_name_resolves():
    # The benchmark traces a layer by wrapping the global its caller looks
    # up; a refactor that drops one loses that layer's metrics.
    unresolved = []
    for module_name, attr, _span, _hook in load_tracing().TARGETS:
        owner = importlib.import_module(f"arborpack.{module_name}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            unresolved.append(f"arborpack.{module_name}.{attr}")
    assert not unresolved, f"traced names missing: {unresolved}"


def test_traced_pipeline_gives_every_metric_a_number(tmp_path):
    # A hook that reads a changed argument or result shape raises, or
    # leaves its metric without a number, although every name resolves.
    tracing = load_tracing()
    tracer = tracing.Tracer()

    def call(*argv) -> str:
        buf = io.StringIO()
        span = tracer.begin(tracing.CLI_SPAN)
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                assert cli.main([str(a) for a in argv]) == 0, argv
        finally:
            tracer.end(span)
        return buf.getvalue()

    tracer.install()
    try:
        for name, g in (("known", gen_known_packing(40, 3, seed=1)),
                        ("bridge", gen_two_cliques_bridge(5, seed=0))):
            graph = tmp_path / f"{name}.dmc"
            graph.write_text(cli.format_graph(g))
            call("hierarchy", graph, "--seed", 1)
            approx = call("mincut", graph, "--seed", 1)
            lam = json.loads(call("mincut", graph, "--exact"))["value"]
            packed = call("pack", graph, "--k", lam, "--seed", 1)
            for what, text in (("mincut", approx), ("pack", packed)):
                result = tmp_path / f"{name}-{what}.json"
                result.write_text(text)
                call("verify", result, graph)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    assert len(metrics) == 50
    bad = {name: metric for name, metric in metrics.items()
           if "missing" in metric or type(metric["value"]) not in (int, float)}
    assert not bad, f"metrics without a number: {bad}"
    # A traced name that is still imported but off the pipeline's path
    # reads 0 calls.
    idle = sorted(name for name, metric in metrics.items()
                  if name.endswith("_calls") and not metric["value"] > 0)
    assert not idle, f"traced calls that never happen: {idle}"


def unused_imports(source: str) -> list[str]:
    """Names that `source` imports (at any depth) but never reads, apart
    from those it lists in `__all__`."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


SOURCES = sorted(
    path for path in Path(arborpack.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_no_unused_imports(path):
    # No linter runs in the tier-1 suite; an import kept only because a
    # traced name used to live there would hide a layer's real calls.
    unused = unused_imports(path.read_text())
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_unused_import_check_flags_dead_names():
    source = "import os\nfrom x import a, b as c\nfrom .y import d\n__all__ = ['d']\nprint(a)\n"
    assert unused_imports(source) == ["os (line 1)", "c (line 2)"]

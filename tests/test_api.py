"""Export hygiene: every name a module lists in `__all__` exists, and so
does every name the stage benchmark wraps to trace a layer; no module
imports a name it never uses."""
import ast
import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import arborpack

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

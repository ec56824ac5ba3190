"""Export hygiene: every name a module lists in `__all__` exists, and so
does every name the stage benchmark wraps to trace a layer."""
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

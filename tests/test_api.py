"""Export hygiene: every name a module lists in `__all__` exists."""
import importlib
import pkgutil

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

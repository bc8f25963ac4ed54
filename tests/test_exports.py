"""Every module's star import works and its __all__ names only what exists."""

import importlib
import pkgutil

import pytest

import thetasing

# __main__ runs the command line on import
MODULES = ["thetasing"] + [f"thetasing.{m.name}" for m in pkgutil.iter_modules(thetasing.__path__)
                           if m.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_and_all_resolve(name):
    exec(f"from {name} import *", {})
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing

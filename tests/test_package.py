import importlib
import pkgutil

import pytest

import mbbox

MODULES = ["mbbox"] + [f"mbbox.{m.name}" for m in pkgutil.iter_modules(mbbox.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve(name):
    # a name left in __all__ after its definition is deleted breaks star imports
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, missing

import importlib
import pkgutil

import pytest

import holecert

MODULES = ["holecert"] + [f"holecert.{m.name}" for m in pkgutil.iter_modules(holecert.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    assert [name for name in mod.__all__ if not hasattr(mod, name)] == []

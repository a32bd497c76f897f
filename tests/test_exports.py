import importlib
import pkgutil

import pytest

import boostcav

MODULES = ["boostcav"] + [
    f"boostcav.{info.name}" for info in pkgutil.iter_modules(boostcav.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # A stale __all__ entry breaks `from boostcav import *` and any tool that
    # walks a module's exports with getattr.
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []

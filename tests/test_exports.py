import ast
import importlib
import pkgutil
from pathlib import Path

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


def _forwards(func: ast.FunctionDef) -> bool:
    """True when the body, past a docstring, is `return f(<the parameters, in order>)`."""
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    params = [a.arg for a in func.args.posonlyargs + func.args.args]
    return (isinstance(call, ast.Call) and not call.keywords
            and [getattr(a, "id", None) for a in call.args] == params)


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_function_only_forwards(name):
    # An exported function that passes its own parameters straight to another
    # callable is a second name for it; callers should call the target directly.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    forwards = [node.name for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name in exported and _forwards(node)]
    assert forwards == []

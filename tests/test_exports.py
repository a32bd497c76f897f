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


def _past_docstring(func: ast.FunctionDef) -> list[ast.stmt]:
    body = func.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        return body[1:]
    return body


def _forwards(func: ast.FunctionDef) -> bool:
    """True when the body, past a docstring, is `return f(<the parameters, in order>)`."""
    body = _past_docstring(func)
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


def _aliases(cls: ast.ClassDef) -> list[str]:
    """Class-body `name = other` of an earlier method or property, and pass-through properties.

    A pass-through property's body, past a docstring, is only `return self.<attr>`.
    """
    found, defined = [], set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            defined.add(node.name)
            body = _past_docstring(node)
            passes = (len(body) == 1 and isinstance(body[0], ast.Return)
                      and isinstance(body[0].value, ast.Attribute)
                      and isinstance(body[0].value.value, ast.Name)
                      and body[0].value.value.id == "self")
            if passes and any(getattr(d, "id", None) == "property" for d in node.decorator_list):
                found.append(f"{cls.name}.{node.name}")
        elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
              and node.value.id in defined):
            found += [f"{cls.name}.{target.id}" for target in node.targets]
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_class_aliases_a_member(name):
    # A second name for a method or attribute is a second spelling of one value;
    # callers should use the member itself.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    aliases = [alias for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name in exported
               for alias in _aliases(node)]
    assert aliases == []


def _member_forwards(cls: ast.ClassDef) -> list[str]:
    """Methods whose body, past a docstring, is `return self.<attr>.<method>(<the parameters>)`."""
    found = []
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = _past_docstring(node)
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        target = getattr(call, "func", None)
        params = [a.arg for a in node.args.posonlyargs + node.args.args][1:]
        if (isinstance(call, ast.Call) and not call.keywords
                and isinstance(target, ast.Attribute) and isinstance(target.value, ast.Attribute)
                and getattr(target.value.value, "id", None) == "self"
                and [getattr(a, "id", None) for a in call.args] == params):
            found.append(f"{cls.name}.{node.name}")
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_class_method_forwards(name):
    # A method that passes its parameters to a member's method is a second name for
    # that method; callers should call the member.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    forwards = [method for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name in exported
                for method in _member_forwards(node)]
    assert forwards == []

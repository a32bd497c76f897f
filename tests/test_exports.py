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
    """Methods whose body, past a docstring, is `return self.<attr>.<method>(...)` with no
    keywords, on arguments that are each a parameter or a field `self.<attr>`."""
    found = []
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = _past_docstring(node)
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        target = getattr(call, "func", None)
        params = {a.arg for a in node.args.posonlyargs + node.args.args} - {"self"}
        if (isinstance(call, ast.Call) and not call.keywords
                and isinstance(target, ast.Attribute) and isinstance(target.value, ast.Attribute)
                and getattr(target.value.value, "id", None) == "self"
                and all(getattr(a, "id", None) in params
                        or (isinstance(a, ast.Attribute) and getattr(a.value, "id", None) == "self")
                        for a in call.args)):
            found.append(f"{cls.name}.{node.name}")
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_class_method_forwards(name):
    # A method that passes its parameters, or the record's own fields, to a member's
    # method is a second name for that method; callers should call the member.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    forwards = [method for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name in exported
                for method in _member_forwards(node)]
    assert forwards == []


def _star_parameters(func: ast.FunctionDef) -> bool:
    return func.args.vararg is not None or func.args.kwarg is not None


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_callable_takes_star_arguments(name):
    # *args or **kwargs passed on to another callable make a second spelling of its
    # call; the signature should name what the function takes.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    found = [node.name for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in exported
             and _star_parameters(node)]
    found += [f"{node.name}.{method.name}" for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name in exported
              for method in node.body
              if isinstance(method, ast.FunctionDef) and _star_parameters(method)]
    assert found == []


def _field_applications(cls: ast.ClassDef) -> list[str]:
    """Methods whose body, past a docstring, is `return f(...)` of a plain name f, with no
    keywords, on arguments that are each a field `self.<attr>` or a parameter."""
    found = []
    for node in cls.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        body = _past_docstring(node)
        call = body[0].value if len(body) == 1 and isinstance(body[0], ast.Return) else None
        params = {a.arg for a in node.args.posonlyargs + node.args.args} - {"self"}
        if (isinstance(call, ast.Call) and not call.keywords and isinstance(call.func, ast.Name)
                and all(getattr(a, "id", None) in params
                        or (isinstance(a, ast.Attribute) and getattr(a.value, "id", None) == "self")
                        for a in call.args)):
            found.append(f"{cls.name}.{node.name}")
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_class_method_applies_a_function_to_its_fields(name):
    # A method that only applies a function to the record's fields is a second spelling
    # of that function's value; callers should call the function.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    found = [method for node in tree.body
             if isinstance(node, ast.ClassDef) and node.name in exported
             for method in _field_applications(node)]
    assert found == []

def _none_filled(func: ast.FunctionDef) -> list[str]:
    """Parameters that default to None and that `if p is None: p = <call>(...)` fills."""
    args = func.args
    positional = args.posonlyargs + args.args
    defaults = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
    defaults += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    nones = {a.arg for a, d in defaults if isinstance(d, ast.Constant) and d.value is None}
    found = []
    for node in ast.walk(func):
        test = getattr(node, "test", None)
        if not (isinstance(node, ast.If) and isinstance(test, ast.Compare)
                and isinstance(test.left, ast.Name) and test.left.id in nones
                and isinstance(test.ops[0], ast.Is)
                and isinstance(test.comparators[0], ast.Constant)
                and test.comparators[0].value is None):
            continue
        if any(isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call)
               and [getattr(t, "id", None) for t in stmt.targets] == [test.left.id]
               for stmt in node.body):
            found.append(test.left.id)
    return found


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_function_fills_a_none_keyword(name):
    # A None default that the body replaces by a computed value is a second way in:
    # the caller may pass the value instead, and nothing checks it against the other
    # arguments. Callers that need the value pass what it is computed from.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    found = {(name, node.name, param) for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in exported
             for param in _none_filled(node)}
    assert found == set()


def _bool_switches(func: ast.FunctionDef) -> list[str]:
    """Parameters annotated `bool` that have a default."""
    args = func.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return [a.arg for a in defaulted if getattr(a.annotation, "id", None) == "bool"]


@pytest.mark.parametrize("name", MODULES)
def test_no_exported_callable_takes_a_boolean_switch(name):
    # A defaulted bool parameter runs two functions under one name; the caller that
    # needs the other behaviour should call what it needs.
    module = importlib.import_module(name)
    tree = ast.parse(Path(module.__file__).read_text())
    exported = set(getattr(module, "__all__", ()))
    found = [f"{node.name}({param})" for node in tree.body
             if isinstance(node, ast.FunctionDef) and node.name in exported
             for param in _bool_switches(node)]
    found += [f"{node.name}.{method.name}({param})" for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name in exported
              for method in node.body if isinstance(method, ast.FunctionDef)
              for param in _bool_switches(method)]
    assert found == []

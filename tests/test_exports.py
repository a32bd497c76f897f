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


def _twelve_digit_specs(module_name: str) -> list[str]:
    """The dotted def, or the module, around each f-string field formatted `.12g`."""
    module = importlib.import_module(module_name)
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.FormattedValue) and child.format_spec is not None:
                if [getattr(v, "value", None) for v in child.format_spec.values] == [".12g"]:
                    found.append(where)
            visit(child, where)

    visit(ast.parse(Path(module.__file__).read_text()), module_name)
    return found


def test_one_formatter_for_printed_values():
    # The print rule (12 significant digits, negative zero as 0) is written once, in
    # cavity._fmt; a value formatted `.12g` elsewhere would skip the zero rule.
    found = [where for name in MODULES for where in _twelve_digit_specs(name)]
    assert found == ["boostcav.cavity._fmt"]


# What a boost coefficient (c_E, c_P) comes from, and the names the package gives one.
COEFFICIENT_CALLS = {"per_mode_coefficients", "closed_form_coefficients", "coefficient_fits"}
COEFFICIENT_NAMES = {"c_e", "c_p", "ce", "cp"}
BOOST_LAW = "boostcav.observables._boost"
# defs besides the law that build its result or multiply a coefficient, each with its reason
NOT_THE_LAW = {
    "boostcav.rect2d._boost_2d": "the rectangle's grouped route puts c_E and c_P/2 on the "
                                 "regrouped sums: it is not the law, and is reported beside it",
    "boostcav.stress.per_mode_em_2d_law": "the per-mode law on one mode's w^2 + k^2, which "
                                          "verify holds the closed form to; no static part",
}


def _callee(call: ast.Call) -> str | None:
    return getattr(call.func, "id", None) or getattr(call.func, "attr", None)


def _carries(node: ast.AST, names: set[str]) -> bool:
    """True when node holds a coefficient call or one of the names."""
    return any((isinstance(n, ast.Call) and _callee(n) in COEFFICIENT_CALLS)
               or (isinstance(n, ast.Name) and n.id in names) for n in ast.walk(node))


def _pairs(target: ast.AST, value: ast.AST, loop: bool) -> list[tuple[ast.AST, ast.AST]]:
    """(target, value) bindings, element by element where a tuple binds a tuple (or, looping,
    a zip of as many sequences)."""
    elts = getattr(target, "elts", None)
    if loop:  # a loop binds an item of the sequence: elementwise only over a zip's sequences
        values = value.args if isinstance(value, ast.Call) and _callee(value) == "zip" else None
    else:
        values = getattr(value, "elts", None)
    if elts is None or values is None or len(elts) != len(values):
        return [(target, value)]
    return [pair for t, v in zip(elts, values) for pair in _pairs(t, v, loop)]


def _coefficient_names(func: ast.FunctionDef) -> set[str]:
    """The names in func, nested defs included, bound to a value that carries a coefficient."""
    bindings = [pair for node in ast.walk(func) if isinstance(node, ast.Assign)
                for target in node.targets for pair in _pairs(target, node.value, False)]
    bindings += [pair for node in ast.walk(func) if isinstance(node, (ast.For, ast.comprehension))
                 for pair in _pairs(node.target, node.iter, True)]
    names = set(COEFFICIENT_NAMES)
    while True:
        bound = {n.id for target, value in bindings if _carries(value, names)
                 for n in ast.walk(target) if isinstance(n, ast.Name)}
        if bound <= names:
            return names
        names |= bound


def _boost_sites(module_name: str) -> dict[str, set[str]]:
    """{dotted def: what it does of "builds the result" and "multiplies a coefficient"}."""
    module = importlib.import_module(module_name)
    found: dict[str, set[str]] = {}

    def visit(node, where, names):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = names | _coefficient_names(child) if isinstance(child, ast.FunctionDef) \
                    else names
                visit(child, f"{where}.{child.name}", inner)
                continue
            if isinstance(child, ast.Call) and (
                    _callee(child) == "EnergyMomentum"
                    or (_callee(child) == "_make" and getattr(child.func.value, "id", None)
                        == "EnergyMomentum")):
                found.setdefault(where, set()).add("builds the result")
            product = (isinstance(child, ast.BinOp) and isinstance(child.op, ast.Mult)
                       and (_carries(child.left, names) or _carries(child.right, names)))
            product |= (isinstance(child, ast.AugAssign) and isinstance(child.op, ast.Mult)
                        and (_carries(child.target, names) or _carries(child.value, names)))
            if product:
                found.setdefault(where, set()).add("multiplies a coefficient")
            visit(child, where, names)

    visit(ast.parse(Path(module.__file__).read_text()), module_name, set())
    return found


def test_the_boost_law_is_written_once():
    # E = c_E U + W and P = c_P U on a cavity's static parts: a second def that builds
    # the result record or multiplies a boost coefficient into a value writes the law again.
    found = {where: what for name in MODULES for where, what in _boost_sites(name).items()}
    assert found.pop(BOOST_LAW) == {"builds the result", "multiplies a coefficient"}
    assert set(found) == set(NOT_THE_LAW)


def _starred_records(module_name: str) -> list[str]:
    """Each `FinitePart(*...)` call in the module, as `module:line`."""
    module = importlib.import_module(module_name)
    return [f"{module_name}:{node.lineno}"
            for node in ast.walk(ast.parse(Path(module.__file__).read_text()))
            if isinstance(node, ast.Call) and _callee(node) == "FinitePart"
            and any(isinstance(arg, ast.Starred) for arg in node.args)]


def test_no_finite_part_is_built_from_a_tuple():
    # A regularized value and its bound travel as one FinitePart; a record unpacked from
    # a (value, error) tuple means a second shape of the same value crossed a def.
    assert [where for name in MODULES for where in _starred_records(name)] == []

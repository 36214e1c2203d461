"""Static checks on the package source, using only the stdlib ast module.

- no assert statements: they vanish under python -O, so invariants raise;
- no raise of AssertionError: invariant checks raise RuntimeError;
- no imported name that the module never uses;
- imports only at module top, none inside a function or class;
- no module-level _private function that its own module never references;
- no read of a _private attribute of anything but self or cls: a module
  reaches another object's state only through its public names;
- no floating point outside cli.py (which times suites): no float literal,
  no use of the name float, and from math only integer functions;
- no import of fractions outside exact.py, whose lp_min returns Fractions
  and which accepts them as input: everything else works in ints;
- state is declared: outside __init__ and __post_init__ a method stores
  only the attributes that those or a dataclass field declare, and no code
  stores an attribute on anything but self or cls;
- no write-only state: each attribute that an __init__ or __post_init__
  stores on self is read outside that method, in the package, the bench or
  the tests.
"""

import ast
import os
from collections import Counter

import pytest

import arcones

SRC = os.path.dirname(os.path.abspath(arcones.__file__))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def _tree(name):
    with open(os.path.join(SRC, name)) as fh:
        return ast.parse(fh.read(), name)


def _used_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    found = [node.lineno for node in ast.walk(_tree(name))
             if isinstance(node, ast.Assert)]
    assert not found, "%s: assert on lines %s" % (name, found)


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


@pytest.mark.parametrize("name", MODULES)
def test_no_assertion_error_raised(name):
    found = [node.lineno for node in ast.walk(_tree(name))
             if isinstance(node, ast.Raise) and node.exc is not None
             and _raised_name(node) == "AssertionError"]
    assert not found, "%s: raise AssertionError on lines %s" % (name, found)


@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    tree = _tree(name)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    unused = sorted(imported - _used_names(tree))
    assert not unused, "%s: unused imports %s" % (name, unused)


@pytest.mark.parametrize("name", MODULES)
def test_imports_at_module_top(name):
    tree = _tree(name)
    top = {id(node) for node in tree.body}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and id(node) not in top]
    assert not found, "%s: imports below the module top on lines %s" % (
        name, found)


@pytest.mark.parametrize("name", MODULES)
def test_no_unreferenced_private_functions(name):
    tree = _tree(name)
    private = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")
               and not node.name.startswith("__")}
    dead = sorted(private - _used_names(tree))
    assert not dead, "%s: unreferenced %s" % (name, dead)


@pytest.mark.parametrize("name", MODULES)
def test_no_foreign_private_attributes(name):
    found = [(node.lineno, node.attr) for node in ast.walk(_tree(name))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)
             and node.attr.startswith("_") and not node.attr.startswith("__")
             and not (isinstance(node.value, ast.Name)
                      and node.value.id in ("self", "cls"))]
    assert not found, "%s: private attributes read %s" % (name, found)


# the integer functions of math; everything else in it works on floats
INTEGER_MATH = {"ceil", "floor", "gcd", "lcm", "comb", "prod", "isqrt"}


@pytest.mark.parametrize("name", [m for m in MODULES if m != "cli.py"])
def test_no_floats(name):
    tree = _tree(name)
    # the names `import math` binds, for the math.x attributes below
    math_names = {a.asname or a.name for node in ast.walk(tree)
                  if isinstance(node, ast.Import)
                  for a in node.names if a.name == "math"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, "float literal %r" % node.value))
        elif isinstance(node, ast.Name) and node.id == "float":
            found.append((node.lineno, "float"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, "math." + a.name) for a in node.names
                      if a.name not in INTEGER_MATH]
        elif isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in math_names and node.attr not in INTEGER_MATH:
            found.append((node.lineno, "math." + node.attr))
    assert not found, "%s: floating point %s" % (name, found)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "exact.py"])
def test_no_fractions_import(name):
    found = [node.lineno for node in ast.walk(_tree(name))
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "fractions" for a in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "fractions"]
    assert not found, "%s: fractions imported on lines %s" % (name, found)


def _setattr_target(node):
    """(object node, attribute name or None) for a call of setattr(obj,
    name, value) or object.__setattr__(obj, name, value), else None."""
    if not isinstance(node, ast.Call) or len(node.args) < 2:
        return None
    func = node.func
    if not (isinstance(func, ast.Name) and func.id == "setattr"
            or isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            and isinstance(func.value, ast.Name)
            and func.value.id == "object"):
        return None
    name = node.args[1]
    return node.args[0], (name.value if isinstance(name, ast.Constant)
                          else None)


def _stores(tree):
    """Every attribute store under tree: (line, object node, name), for
    assignment targets and setattr calls alike; name is None when a
    setattr call computes it."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            yield node.lineno, node.value, node.attr
        else:
            target = _setattr_target(node)
            if target is not None:
                yield (node.lineno,) + target


def _is_self(node):
    return isinstance(node, ast.Name) and node.id in ("self", "cls")


@pytest.mark.parametrize("name", MODULES)
def test_state_is_declared(name):
    # caches are declared fields: a method other than __init__ or
    # __post_init__ stores only attributes that __init__ or a dataclass
    # field declares, and nothing stores attributes on another object
    tree = _tree(name)
    found = [(line, ast.unparse(obj), attr)
             for line, obj, attr in _stores(tree) if not _is_self(obj)]
    for cls in (node for node in ast.walk(tree)
                if isinstance(node, ast.ClassDef)):
        methods = [node for node in cls.body
                   if isinstance(node, ast.FunctionDef)]
        declared = {node.target.id for node in cls.body
                    if isinstance(node, ast.AnnAssign)
                    and isinstance(node.target, ast.Name)}
        for method in methods:
            if method.name in ("__init__", "__post_init__"):
                declared |= {attr for _line, obj, attr in _stores(method)
                             if _is_self(obj) and attr}
        for method in methods:
            if method.name not in ("__init__", "__post_init__"):
                found += [(line, "self", attr)
                          for line, obj, attr in _stores(method)
                          if _is_self(obj) and attr not in declared]
    assert not found, "%s: undeclared attribute stores %s" % (name, found)



# where instance state may be read: the package, the bench and the tests
READERS = [SRC, os.path.join(os.path.dirname(os.path.dirname(SRC)),
                             "perfbench"), os.path.dirname(__file__)]


def _attribute_loads(tree):
    """The attribute names read anywhere under tree."""
    return [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)]


def test_no_write_only_state():
    # every attribute that an __init__ or __post_init__ in the package
    # stores on self is read somewhere outside that method: in the package,
    # the bench or the tests
    loads = Counter()
    for d in READERS:
        for f in sorted(os.listdir(d)):
            if f.endswith(".py"):
                with open(os.path.join(d, f)) as fh:
                    loads.update(_attribute_loads(ast.parse(fh.read(), f)))
    found = []
    for name in MODULES:
        for cls in (node for node in ast.walk(_tree(name))
                    if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if isinstance(method, ast.FunctionDef) and method.name in (
                        "__init__", "__post_init__"):
                    inside = _attribute_loads(method)
                    found += ["%s: %s.%s" % (name, cls.name, attr)
                              for attr in sorted({attr for _l, obj, attr
                                                  in _stores(method)
                                                  if _is_self(obj) and attr})
                              if loads[attr] == inside.count(attr)]
    assert not found, "write-only attributes %s" % found

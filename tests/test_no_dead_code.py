"""The package holds only code its commands run.

A public module-level function in ``src/ckq`` must be used somewhere else
in the package or be re-exported by ``ckq/__init__.py``.  Helpers that only
tests need live in ``tests/`` as oracles.  A public method must be named by
some attribute reference in the package, other than in its own body: a
method that only tests call is dead code too.  A private helper,
module-level or a method, must likewise be named somewhere in the package
outside its own body.  Nor does the package keep process-wide state: no
``functools.lru_cache`` or ``functools.cache`` decorator and no ``global``
statement.
"""

import ast
from collections import Counter
from pathlib import Path

import ckq

PACKAGE = Path(ckq.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _attribute_counts(node) -> Counter:
    return Counter(sub.attr for sub in ast.walk(node)
                   if isinstance(sub, ast.Attribute))


def _used_names(node) -> set:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
    return out


def unused_public_functions(trees: dict) -> list:
    """(module, name) of every public module-level function that no other
    code in the package uses and ``__init__`` does not re-export."""
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    out = []
    for module, tree in trees.items():
        for fn in tree.body:
            if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                    or fn.name in exported):
                continue
            used = any(fn.name in _used_names(node)
                       for mod, other in trees.items()
                       for node in other.body
                       if not (mod == module and node is fn))
            if not used:
                out.append((module, fn.name))
    return out


def test_every_public_function_is_used_or_exported():
    assert unused_public_functions(_trees()) == []


def test_guard_catches_a_test_only_helper():
    trees = _trees()
    trees["ckclassical.py"].body.append(ast.parse(
        "def quadratic_form(x):\n    return quadratic_form(x[1:])\n").body[0])
    assert unused_public_functions(trees) == [("ckclassical.py",
                                               "quadratic_form")]


def unreferenced_public_methods(trees: dict) -> list:
    """(module, class, name) of every public method that no attribute
    reference in the package names outside its own body."""
    refs = Counter()
    for tree in trees.values():
        refs += _attribute_counts(tree)
    out = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if (isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                        and refs[fn.name] == _attribute_counts(fn)[fn.name]):
                    out.append((module, cls.name, fn.name))
    return out


def test_every_public_method_is_referenced():
    assert unreferenced_public_methods(_trees()) == []


def test_guard_catches_an_unreferenced_method():
    trees = _trees()
    tensor = next(node for node in trees["rmatrix.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "QTensor")
    tensor.body.append(ast.parse(
        "def determinant(self):\n    return self.determinant()\n").body[0])
    assert unreferenced_public_methods(trees) == [
        ("rmatrix.py", "QTensor", "determinant")]


def unreferenced_private_helpers(trees: dict) -> list:
    """(module, name) of every private module-level function or method,
    dunders aside, that no name or attribute in the package refers to
    outside its own body."""
    refs = Counter()
    for tree in trees.values():
        refs += _name_counts(tree)
    out = []
    for module, tree in trees.items():
        defs = list(tree.body) + [fn for cls in tree.body
                                  if isinstance(cls, ast.ClassDef)
                                  for fn in cls.body]
        for fn in defs:
            if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.endswith("__")
                    and refs[fn.name] == _name_counts(fn)[fn.name]):
                out.append((module, fn.name))
    return out


def _name_counts(node) -> Counter:
    return Counter(sub.id if isinstance(sub, ast.Name) else sub.attr
                   for sub in ast.walk(node)
                   if isinstance(sub, (ast.Name, ast.Attribute)))


def test_every_private_helper_is_referenced():
    assert unreferenced_private_helpers(_trees()) == []


def test_guard_catches_a_leftover_private_helper():
    trees = _trees()
    trees["rmatrix.py"].body.append(ast.parse(
        "def _quadratic_form(x):\n    return _quadratic_form(x[1:])\n").body[0])
    tensor = next(node for node in trees["rmatrix.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "QTensor")
    tensor.body.append(ast.parse(
        "def _determinant(self):\n    return self._determinant()\n").body[0])
    assert unreferenced_private_helpers(trees) == [
        ("rmatrix.py", "_quadratic_form"), ("rmatrix.py", "_determinant")]


def global_state(trees: dict) -> list:
    """(module, name) of every function or class under a process-wide cache
    decorator, and (module, "global x") of every ``global`` statement."""
    out = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Global):
                out.append((module, "global " + ", ".join(node.names)))
                continue
            for dec in getattr(node, "decorator_list", ()):
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(
                    target, "id", None)
                if name in ("lru_cache", "cache"):
                    out.append((module, node.name))
    return out


def test_no_process_wide_state():
    assert global_state(_trees()) == []


def test_guard_catches_caches_and_globals():
    trees = _trees()
    trees["ckclassical.py"].body.extend(ast.parse(
        "@lru_cache(maxsize=None)\n"
        "def pattern(j):\n    return j\n"
        "@functools.cache\n"
        "def rows(N):\n    return N\n"
        "def set_cap(v):\n    global _CAP\n    _CAP = v\n").body)
    assert global_state(trees) == [("ckclassical.py", "pattern"),
                                   ("ckclassical.py", "rows"),
                                   ("ckclassical.py", "global _CAP")]

"""The package holds only code its commands run.

A public module-level function in ``src/ckq`` must be used somewhere else
in the package or be re-exported by ``ckq/__init__.py``.  Helpers that only
tests need live in ``tests/`` as oracles.  A public method must be named by
some attribute reference in the package: a method that only tests call is
dead code too.  A private helper, module-level or a method, must likewise
be named somewhere in the package.  A reference made inside the body of a
def of the same name is no use: neither a def's own recursion nor two
namesake methods that only call each other keep a name alive.  The guard
matches names, not owners, so a reference to one class's method also keeps
a namesake on another class alive; the methods whose name several classes
share are pinned, and a new one must be checked by hand.  Nor does the
package keep process-wide state: no ``functools.lru_cache`` or
``functools.cache`` decorator and no ``global`` statement.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

import ckq

PACKAGE = Path(ckq.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _uses(trees: dict, kinds: tuple) -> Counter:
    """Name -> number of references of the given node kinds (``ast.Name``,
    ``ast.Attribute``) in the package, leaving out every reference made
    inside the body of a def of the same name."""
    out = Counter()

    def visit(node, enclosing: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, kinds):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in enclosing:
                out[name] += 1
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    for tree in trees.values():
        visit(tree, frozenset())
    return out


def _methods(tree) -> list:
    """(class name, def) of the methods of one module's classes."""
    return [(cls.name, fn) for cls in tree.body if isinstance(cls, ast.ClassDef)
            for fn in cls.body]


def unused_public_functions(trees: dict) -> list:
    """(module, name) of every public module-level function that no code in
    the package uses and ``__init__`` does not re-export."""
    exported = {alias.asname or alias.name
                for node in ast.walk(trees["__init__.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    uses = _uses(trees, (ast.Name, ast.Attribute))
    return [(module, fn.name) for module, tree in trees.items()
            for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and fn.name not in exported and not uses[fn.name]]


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
    reference in the package names outside a def of its name."""
    uses = _uses(trees, (ast.Attribute,))
    return [(module, cls, fn.name) for module, tree in trees.items()
            for cls, fn in _methods(tree)
            if isinstance(fn, ast.FunctionDef)
            and not fn.name.startswith("_") and not uses[fn.name]]


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


def test_guard_catches_namesake_methods_that_only_call_each_other():
    # a reference inside a def of the same name is no use, so two
    # same-named methods that only call each other are both dead
    trees = _trees()
    for module, name in (("rmatrix.py", "QTensor"), ("freealg.py", "NCPoly")):
        cls = next(node for node in trees[module].body
                   if isinstance(node, ast.ClassDef) and node.name == name)
        cls.body.append(ast.parse(
            "def trace(self):\n    return self.n * self.data.trace()\n").body[0])
    assert unreferenced_public_methods(trees) == [
        ("freealg.py", "NCPoly", "trace"), ("rmatrix.py", "QTensor", "trace")]


def shared_method_names(trees: dict) -> set:
    """(class, name) of every public method whose name a method of another
    class in the package also has."""
    owners = defaultdict(set)
    for tree in trees.values():
        for cls, fn in _methods(tree):
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                owners[fn.name].add(cls)
    return {(cls, name) for name, classes in owners.items()
            if len(classes) > 1 for cls in classes}


# Each of these is run by some ckq command itself, not only by a namesake.
SHARED_METHODS = {
    ("DualElement", "dot"), ("NCPoly", "dot"), ("QTensor", "dot"),
    ("Cyclo8", "inverse"), ("ScalarExpr", "inverse"), ("DualElement", "inverse"),
    ("ScalarExpr", "one"), ("DualElement", "one"), ("NCPoly", "one"),
    ("DualElement", "scalar"), ("NCPoly", "scalar"),
    ("DualElement", "zero"), ("NCPoly", "zero"),
}


def test_shared_method_names_are_pinned():
    assert shared_method_names(_trees()) == SHARED_METHODS


def test_guard_catches_a_new_shared_method_name():
    # QTensor.zero would live on the references to DualElement.zero
    trees = _trees()
    tensor = next(node for node in trees["rmatrix.py"].body
                  if isinstance(node, ast.ClassDef) and node.name == "QTensor")
    tensor.body.append(ast.parse(
        "def zero(self):\n    return QTensor(self.N, self.n)\n").body[0])
    assert unreferenced_public_methods(trees) == []
    assert shared_method_names(trees) - SHARED_METHODS == {("QTensor", "zero")}


def unreferenced_private_helpers(trees: dict) -> list:
    """(module, name) of every private module-level function or method,
    dunders aside, that no name or attribute in the package refers to
    outside a def of its name."""
    uses = _uses(trees, (ast.Name, ast.Attribute))
    return [(module, fn.name) for module, tree in trees.items()
            for fn in tree.body + [fn for _, fn in _methods(tree)]
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            and not fn.name.endswith("__") and not uses[fn.name]]


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

"""The package holds only code its commands run.

A public module-level function in ``src/ckq`` must be used somewhere else
in the package or be re-exported by ``ckq/__init__.py``.  Helpers that only
tests need live in ``tests/`` as oracles.
"""

import ast
from pathlib import Path

import ckq

PACKAGE = Path(ckq.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


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

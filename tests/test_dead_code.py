"""Every private top-level function, class and constant of the package is
used by it."""

import ast
from pathlib import Path

import sparsecert

PACKAGE = Path(sparsecert.__file__).parent


def _top_level_names(node):
    """The names a top-level statement defines: a def's or class's, or the
    plain names an assignment binds (``_NAME = ...``, ``_A, _B = ...``)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else \
        [node.target] if isinstance(node, ast.AnnAssign) else []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)]


def test_private_top_level_names_are_used_in_the_package():
    """A top-level ``_name`` def, class or constant that no other line of
    the package names (a call, a read or an attribute) is dead code: tests
    alone do not keep it, and neither does its own assignment."""
    defined, named = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            for name in _top_level_names(node):
                if name.startswith("_") and not name.startswith("__"):
                    defined[name] = path.relative_to(PACKAGE)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx,
                                                              ast.Store):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
    assert len(defined) > 20
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if name not in named)
    assert not unused, unused

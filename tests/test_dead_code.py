"""Every private top-level function and class of the package is used by it."""

import ast
from pathlib import Path

import sparsecert

PACKAGE = Path(sparsecert.__file__).parent


def test_private_top_level_names_are_used_in_the_package():
    """A top-level ``_name`` def or class that no other line of the package
    names (a call, a reference or an attribute) is dead code: tests alone
    do not keep it."""
    defined, named = {}, set()
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.startswith("__"):
                defined[node.name] = path.relative_to(PACKAGE)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name.split(".")[-1])
    assert len(defined) > 20
    unused = sorted(f"{path}: {name}" for name, path in defined.items()
                    if name not in named)
    assert not unused, unused

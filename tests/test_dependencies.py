"""The runtime's only third-party dependency is numpy."""

import ast
import sys
from pathlib import Path

import sparsecert

PACKAGE = Path(sparsecert.__file__).parent


def _imported_modules(tree):
    """Top-level names of the absolute imports in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_runtime_imports_only_stdlib_numpy_and_itself():
    allowed = set(sys.stdlib_module_names) | {"numpy", "sparsecert"}
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    foreign = {f"{path.relative_to(PACKAGE)}: {name}"
               for path in files
               for name in _imported_modules(ast.parse(path.read_text()))
               if name not in allowed}
    assert not foreign, sorted(foreign)

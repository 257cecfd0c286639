"""The benchmark's layer tracer wraps attributes of the package by name
(``TARGETS`` in perfbench/spans.py): each one must resolve, or the traced
benchmark run fails.  Some of them (``synthesis.solve_lp``,
``bruteforce.solve_lp``, ``structures.singular_values``) are imported only
for the tracer and look unused where they live."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets():
    """The ``TARGETS`` literal of spans.py, read without importing it."""
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and \
                any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_tracer_target_resolves():
    targets = _targets()
    assert len(targets) > 10
    missing = [f"{mod}.{attr}" for mod, attr, _ in targets
               if not callable(getattr(importlib.import_module(mod), attr, None))]
    assert not missing, missing

"""The bench tracer's function table names functions that exist."""

import ast
import importlib
from pathlib import Path

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"


def traced_table():
    """The literal ``TRACED`` dict of bench/child.py, read without importing it."""
    tree = ast.parse(CHILD.read_text(), filename=str(CHILD))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TRACED assignment in {CHILD}")


def test_every_traced_function_exists():
    table = traced_table()
    assert table
    missing = [
        f"{module}.{name}"
        for module, names in table.values()
        for name in names
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert not missing, missing

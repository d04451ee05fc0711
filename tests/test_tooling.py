"""The bench tracer's function table names functions that exist, and the
declared dependency floors cover the APIs the package calls."""

import ast
import importlib
import re
from pathlib import Path

import pytest

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


def test_numpy_floor_has_reshape_copy():
    # The numpy kernel calls ndarray.reshape(..., copy=False), new in NumPy 2.1.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((CHILD.parents[1] / "pyproject.toml").read_text())
    floors = [re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)*", dep)
              for dep in pyproject["project"]["dependencies"] if dep.startswith("numpy")]
    assert len(floors) == 1 and floors[0], pyproject["project"]["dependencies"]
    assert tuple(map(int, floors[0].groups())) >= (2, 1)

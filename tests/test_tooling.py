"""The bench tracer's function table names functions that exist, the
declared dependency floors cover the APIs the package calls, and the
simulator adds its sums left to right."""

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


def test_export_list_resolves_and_star_import_binds_it():
    ratsys = importlib.import_module("ratsys")
    assert len(set(ratsys.__all__)) == len(ratsys.__all__)
    missing = [name for name in ratsys.__all__ if not hasattr(ratsys, name)]
    assert not missing, missing
    namespace = {}
    exec("from ratsys import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(ratsys.__all__)


#: Proof checks and wrappers that only tests call: the helpers in tests/conftest.py
#: hold the checks, and the wrappers' callers call what they wrapped.
TEST_ONLY = {
    "ratsys.linalg": ("check_fact1", "check_fact2", "DegenerateProjectionError",
                      "spectral_radius"),
    "ratsys.analysis": ("domination_check", "residue_limits"),
    "ratsys.simulator": ("step", "Diverged", "simulate_linear"),
}


def test_test_only_names_are_not_in_the_package():
    ratsys = importlib.import_module("ratsys")
    found = [f"{module}.{name}" for module, names in TEST_ONLY.items() for name in names
             if hasattr(importlib.import_module(module), name) or hasattr(ratsys, name)]
    assert not found, found
    assert not hasattr(ratsys.InitialConditions, "zeros")


def test_numpy_floor_has_reshape_copy():
    # The numpy kernel calls ndarray.reshape(..., copy=False), new in NumPy 2.1.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((CHILD.parents[1] / "pyproject.toml").read_text())
    floors = [re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)*", dep)
              for dep in pyproject["project"]["dependencies"] if dep.startswith("numpy")]
    assert len(floors) == 1 and floors[0], pyproject["project"]["dependencies"]
    assert tuple(map(int, floors[0].groups())) >= (2, 1)


SIMULATOR = CHILD.parents[1] / "src" / "ratsys" / "simulator.py"

#: Names of calls that may add terms in an order other than left to right:
#: pairwise, compensated or BLAS sums.
REDUCING = {"sum", "fsum", "reduce", "reduceat", "dot", "einsum", "matmul", "tensordot", "inner"}


def reducing_sums(source):
    """(line, what) for each reducing sum that ``source`` names or applies."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Name) and node.id in REDUCING:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in REDUCING:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in REDUCING:
            found.append((getattr(node, "lineno", 0), "import " + node.name))
    return found


def test_simulator_accumulates_and_never_reduces():
    # The kernels' bit-exactness rests on left-to-right sums; see the
    # simulator module docstring.
    assert reducing_sums(SIMULATOR.read_text()) == []


@pytest.mark.parametrize("source", [
    "s = sum(x)", "s = x.sum(axis=0)", "s = np.add.reduce(x)", "s = np.add.reduceat(x, i)",
    "s = np.dot(a, b)", "s = a.dot(b)", "s = np.einsum('i,i', a, b)", "s = np.matmul(a, b)",
    "s = np.tensordot(a, b)", "s = np.inner(a, b)", "s = a @ b", "a @= b", "s = math.fsum(x)",
    "from numpy import dot",
])
def test_reducing_sums_are_found(source):
    assert len(reducing_sums(source)) == 1


def test_accumulate_is_no_reducing_sum():
    assert reducing_sums("np.add.accumulate(x, axis=0, out=y)\ns = x[-1] + y") == []

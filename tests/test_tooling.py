"""The bench tracer's function table names functions that exist, the
declared dependency floors cover the APIs the package calls, the
simulator reduces only where numpy is probed to add left to right, the
package makes no BLAS call and never loads numpy.random, and its modules
import only what they use."""

import ast
import importlib
import json
import re
import subprocess
import sys
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


#: Proof checks, wrappers, readers and settings that only tests used, a class's
#: attributes by dotted name: the helpers in tests/conftest.py hold the checks and
#: readers, the wrappers' callers call what they wrapped, and analyze scans up to 2k.
TEST_ONLY = {
    "ratsys.linalg": ("check_fact1", "check_fact2", "DegenerateProjectionError",
                      "spectral_radius"),
    "ratsys.analysis": ("domination_check", "residue_limits", "envelope_check", "INEQ_SLACK",
                        "Tolerances.max_period", "Tolerances.period_limit"),
    "ratsys.simulator": ("step", "Diverged", "simulate_linear"),
    "ratsys.model": ("InitialConditions.zeros", "InitialConditions.__len__", "Trajectory.index",
                     "Trajectory.value", "Trajectory.generated"),
}


def has_dotted(obj, name):
    """True when ``obj`` has the dotted attribute ``name``: each part an attribute of the last."""
    for part in name.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def test_test_only_names_are_not_in_the_package():
    ratsys = importlib.import_module("ratsys")
    assert has_dotted(ratsys, "Trajectory.rows") and not has_dotted(ratsys, "Trajectory.rowz")
    found = [f"{module}.{name}" for module, names in TEST_ONLY.items() for name in names
             if has_dotted(importlib.import_module(module), name) or has_dotted(ratsys, name)]
    assert not found, found


def test_numpy_floor_has_reshape_copy():
    # The numpy kernel calls ndarray.reshape(..., copy=False), new in NumPy 2.1.
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((CHILD.parents[1] / "pyproject.toml").read_text())
    floors = [re.fullmatch(r"numpy>=(\d+)\.(\d+)(?:\.\d+)*", dep)
              for dep in pyproject["project"]["dependencies"] if dep.startswith("numpy")]
    assert len(floors) == 1 and floors[0], pyproject["project"]["dependencies"]
    assert tuple(map(int, floors[0].groups())) >= (2, 1)


SIMULATOR = CHILD.parents[1] / "src" / "ratsys" / "simulator.py"

#: numpy's BLAS entry points besides ``@`` and ``@=``: the calls it hands to
#: BLAS, whose kernel, picked per CPU at run time, orders the additions.
BLAS = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "matrix_power", "multi_dot",
        "vecdot", "matvec", "vecmat"}
#: numpy.linalg's BLAS entry points whose names are common words, so they
#: count only when read from numpy.linalg.
LINALG_BLAS = {"norm", "vector_norm"}
#: Names of calls that may add terms in an order other than left to right:
#: pairwise, compensated or BLAS sums.
REDUCING = {"sum", "fsum", "reduce", "reduceat"} | BLAS


def reducing_sums(source, names=REDUCING):
    """(line, what) for each reducing sum of ``names`` that ``source`` names or applies.

    ``@``, ``@=`` and numpy.linalg's ``norm`` are BLAS sums and always count,
    however numpy.linalg was imported.
    """
    tree = ast.parse(source)
    linalg = {"linalg"}  # the names numpy.linalg is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            linalg |= {a.asname for a in node.names if a.name == "numpy.linalg" and a.asname}
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
            linalg |= {a.asname or a.name for a in node.names if a.name == "linalg"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@"))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.Attribute) and node.attr in LINALG_BLAS and (
                isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"
                or isinstance(node.value, ast.Name) and node.value.id in linalg):
            found.append((node.lineno, ".linalg." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
            found += [(node.lineno, "import numpy.linalg." + a.name)
                      for a in node.names if a.name in LINALG_BLAS]
        elif isinstance(node, ast.alias) and node.name.rpartition(".")[2] in names:
            found.append((getattr(node, "lineno", 0), "import " + node.name))
    return found


def test_simulator_reduces_only_in_ordered_sum():
    # The kernels' bit-exactness rests on left-to-right sums; see the
    # simulator module docstring.  simulator._ordered_sum may name reduce,
    # once, since it reduces only the shapes that numpy is probed to add in
    # order; no other reducing sum appears anywhere in the module.
    source = SIMULATOR.read_text()
    (helper,) = [node for node in ast.parse(source).body
                 if isinstance(node, ast.FunctionDef) and node.name == "_ordered_sum"]
    inside = range(helper.lineno, helper.end_lineno + 1)
    found = reducing_sums(source)
    assert [what for line, what in found if line in inside] == [".reduce"]
    assert [(line, what) for line, what in found if line not in inside] == []


def test_window_is_sized_in_one_place():
    # simulator.check_run_size is the one size rule of a call: it computes
    # the rows each run holds and its window's rows, refuses the call by
    # them, and _drive maps what it returns, so no other code in the module
    # reads analyze's window rule or the limit.
    source = SIMULATOR.read_text()
    (rule,) = [node for node in ast.parse(source).body
               if isinstance(node, ast.FunctionDef) and node.name == "check_run_size"]
    inside = range(rule.lineno, rule.end_lineno + 1)
    reads = [(node.lineno, node.id) for node in ast.walk(ast.parse(source))
             if isinstance(node, ast.Name) and node.id in ("rows_read", "MAX_RUN_BYTES")]
    assert {name for line, name in reads if line in inside} == {"rows_read", "MAX_RUN_BYTES"}
    assert [(line, name) for line, name in reads if line not in inside] == []


def test_tail_window_is_sized_in_one_place():
    # analysis._window is the one rule of the tail window: no other code in
    # the package reads its constants, and detect_period, which compares the
    # window, and rows_read, which sizes the rows held for it, both call it.
    constants, reads = {"TAIL_PARTS", "MIN_WINDOW_BLOCKS"}, []
    for path in sorted(SIMULATOR.parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)  # Name or Attribute
            if name in constants and isinstance(node.ctx, ast.Load):
                where = [f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                reads.append((path.name, *where, name))
        if path.name == "analysis.py":
            calls = {f.name: {c.func.id for c in ast.walk(f)
                              if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
                     for f in functions}
    assert sorted(reads) == [("analysis.py", "_window", "MIN_WINDOW_BLOCKS"),
                             ("analysis.py", "_window", "TAIL_PARTS")]
    assert "_window" in calls["detect_period"] and "_window" in calls["rows_read"]


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


PACKAGE = SIMULATOR.parent


def test_package_makes_no_blas_call():
    # ratsys.linalg.ordered_products is the package's one sum of products:
    # BLAS would order its additions by the CPU it runs on (README,
    # "Determinism").  Sums that are not BLAS calls stay allowed here.
    found = {path.name: calls for path in sorted(PACKAGE.glob("*.py"))
             if (calls := reducing_sums(path.read_text(), BLAS))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "s = a @ b", "a @= b", "s = np.dot(a, b)", "s = a.dot(b)", "s = np.vdot(a, b)",
    "s = np.inner(a, b)", "s = np.matmul(a, b)", "s = np.tensordot(a, b)",
    "s = np.einsum('i,i', a, b)", "s = np.linalg.norm(v)", "s = np.linalg.vector_norm(v)",
    "s = np.linalg.matrix_power(a, 2)", "s = np.linalg.multi_dot([a, b, c])",
    "s = np.vecdot(a, b)", "s = np.matvec(a, v)", "s = np.vecmat(v, a)",
    "import numpy\ns = numpy.linalg.norm(v)", "import numpy.linalg as la\ns = la.norm(v)",
    "from numpy import linalg\ns = linalg.norm(v)", "from numpy import linalg as nl\ns = nl.norm(v)",
    "from numpy.linalg import norm", "from numpy import matmul", "from numpy.linalg import multi_dot",
])
def test_blas_calls_are_found(source):
    assert len(reducing_sums(source, BLAS)) == 1


def test_other_sums_and_norms_are_no_blas_call():
    source = ("s = x.sum(axis=1)\nt = np.add.reduce(x)\nnorm = math.hypot(x, y)\n"
              "n = vec.norm()\nr = [reduce(add, map(mul, row, x)) for row in rows]")
    assert reducing_sums(source, BLAS) == []


PACKAGE = SIMULATOR.parent

#: Names that reach numpy's random generators; ``ratsys.constructors.uniform_draws``
#: draws the same stream in pure Python.
NUMPY_RANDOM = {"default_rng", "SeedSequence"}


def numpy_random_uses(source):
    """(line, what) for each place ``source`` names numpy.random or its generators."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and node.attr == "random"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            found.append((node.lineno, node.value.id + ".random"))
        elif isinstance(node, ast.Name) and node.id in NUMPY_RANDOM:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in NUMPY_RANDOM:
            found.append((node.lineno, "." + node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module and (
                node.module.startswith("numpy.random")
                or node.module == "numpy" and any(a.name == "random" for a in node.names)):
            found.append((node.lineno, "from " + node.module))
        elif isinstance(node, ast.alias) and (node.name in NUMPY_RANDOM
                                              or node.name.startswith("numpy.random")):
            found.append((getattr(node, "lineno", 0), "import " + node.name))
    return found


def test_package_never_names_numpy_random():
    found = {path.name: uses for path in sorted(PACKAGE.glob("*.py"))
             if (uses := numpy_random_uses(path.read_text()))}
    assert found == {}


@pytest.mark.parametrize("source", [
    "r = np.random.default_rng(1)", "r = numpy.random", "import numpy.random",
    "from numpy import random", "from numpy.random import PCG64", "s = SeedSequence([1, 2])",
    "from numpy.random import default_rng as rng",
])
def test_numpy_random_uses_are_found(source):
    assert numpy_random_uses(source)


def test_other_random_names_are_no_numpy_random():
    assert numpy_random_uses("import random\nx = random.random()\ny = uniform_draws(1, 2.0, 3)") == []


def unused_imports(source):
    """(line, name) for each name that an import of ``source`` binds and nothing reads.

    A name is read where it appears as an ``ast.Name``, which the base of
    an attribute chain (``np`` in ``np.add.reduce``) is too.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", sorted(path.name for path in PACKAGE.glob("*.py")
                                          if path.name != "__init__.py"))
def test_package_modules_use_every_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("source,unused", [
    ("import os", ["os"]),
    ("import os.path", ["os"]),
    ("import numpy as np\nx = 1", ["np"]),
    ("from .linalg import RHO_TOL, radius_side\nt = RHO_TOL", ["radius_side"]),
    ("from __future__ import annotations", []),
    ("import numpy as np\nnp.add.reduce(x)", []),
    ("from typing import Optional\ndef f(x: Optional[int]): pass", []),
])
def test_unused_imports_are_found(source, unused):
    assert [name for _, name in unused_imports(source)] == unused


#: One process runs a verify and a three-regime sweep, then names what it loaded.
LOADED_PROBE = """
import json, sys
from ratsys.cli import main
config, out = sys.argv[1:]
codes = [main(["verify", "--config", config]), main(["sweep", "--config", config, "--out", out])]
print(json.dumps([codes, sorted({"numpy.random", "secrets", "_hashlib"} & set(sys.modules))]))
"""

PROBE_CONFIG = """
mode: tetrachotomy
rng_seed: 5
system:
  k: 2
  A: [[0.5, 0.5], [0.5, 0.5]]
  denom:
    - {i: 1, j: 1, q: [0.25, 0.25]}
    - {i: 2, j: 1, q: [0.25, 0.25]}
run:
  horizon: 1500
  trials: 3
init:
  seed: periodic
sweep:
  c: [0.5, 1.0, 2.0]
"""


def test_verify_and_sweep_leave_numpy_random_unloaded(tmp_path):
    """Importing numpy.random loads ``secrets`` and, through ``hmac``, OpenSSL's
    ``_hashlib``: about 5.6 MB more peak RSS for a verify or sweep process
    (30.4 -> 36.1 MB for ``import ratsys.cli`` on one Linux x86-64 VM),
    to draw a few hundred doubles that ``uniform_draws`` draws in pure Python."""
    config = tmp_path / "probe.yaml"
    config.write_text(PROBE_CONFIG)
    proc = subprocess.run([sys.executable, "-c", LOADED_PROBE, str(config), str(tmp_path / "sweep")],
                          capture_output=True, text=True, check=True)
    codes, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert loaded == []

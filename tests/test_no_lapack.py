"""The package makes no LAPACK-backed ``numpy.linalg`` call.

``ratsys.linalg`` and the README promise eigensolvers without a LAPACK
dependency, so results are bit-for-bit the same wherever numpy is built.
This test parses every module of the package and fails on a call into
``numpy.linalg`` that LAPACK backs (``eig*``, ``det``, ``solve``, ``inv``,
``svd``, ``qr``, ``lstsq``, ``cholesky`` and their relatives), however
``numpy.linalg`` was imported.  ``norm`` and ``matrix_power`` are not
LAPACK calls, so this checker passes them; they are BLAS calls, which
tests/test_tooling.py::test_package_makes_no_blas_call refuses.
"""

import ast
import pathlib

import ratsys

PACKAGE = pathlib.Path(ratsys.__file__).parent
LAPACK = {"det", "slogdet", "solve", "tensorsolve", "inv", "pinv", "tensorinv", "svd",
          "svdvals", "qr", "lstsq", "cholesky", "matrix_rank", "cond"}


def is_lapack(name: str) -> bool:
    return name.startswith("eig") or name in LAPACK


def lapack_calls(source: str):
    """Names of the LAPACK-backed numpy.linalg functions that ``source`` uses."""
    tree = ast.parse(source)
    numpy_names, linalg_names, found = set(), set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_names.add(alias.asname or "numpy")
                elif alias.name == "numpy.linalg":
                    if alias.asname:
                        linalg_names.add(alias.asname)
                    else:
                        numpy_names.add("numpy")
        elif isinstance(node, ast.ImportFrom) and node.module in ("numpy", "numpy.linalg"):
            for alias in node.names:
                if node.module == "numpy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
                elif node.module == "numpy.linalg" and is_lapack(alias.name):
                    found.append(alias.name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and is_lapack(node.attr)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in linalg_names:
            found.append(node.attr)
        elif (isinstance(owner, ast.Attribute) and owner.attr == "linalg"
              and isinstance(owner.value, ast.Name) and owner.value.id in numpy_names):
            found.append(node.attr)
    return found


def test_package_makes_no_lapack_call():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 5
    offenders = {path.name: lapack_calls(path.read_text()) for path in modules}
    assert {name: calls for name, calls in offenders.items() if calls} == {}


def test_checker_sees_every_import_form():
    assert lapack_calls("import numpy as np\nnp.linalg.det(a)") == ["det"]
    assert lapack_calls("import numpy\nnumpy.linalg.eigh(a)") == ["eigh"]
    assert lapack_calls("import numpy.linalg\nnumpy.linalg.svd(a)") == ["svd"]
    assert lapack_calls("import numpy.linalg as la\nla.solve(a, b)") == ["solve"]
    assert lapack_calls("from numpy import linalg\nlinalg.inv(a)") == ["inv"]
    assert lapack_calls("from numpy.linalg import eigvals\n") == ["eigvals"]
    assert lapack_calls("import numpy as np\nnp.linalg.norm(v)\nnp.linalg.matrix_power(a, 2)") == []

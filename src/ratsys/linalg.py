"""Dense eigensolvers and spectral utilities for small matrices.

Everything here targets small dense systems (m up to ~16): one closed
form, :func:`eig2`, for every 2x2 matrix with a real spectrum (every
nonnegative and every symmetric one), cyclic Jacobi rotations for larger
symmetric matrices, and a Perron-Frobenius pair for every nonnegative 2x2
matrix (the closed form) and every strictly positive larger one (power
iteration).  :func:`radius_side` is the one rule that compares a spectral
radius to 1.  :func:`contraction_rate` proves that a nonnegative matrix
with row sums below 1 contracts, rounding included.  No LAPACK
dependency (tests/test_no_lapack.py checks it); results are deterministic
bit-for-bit for identical inputs.

No BLAS call either (tests/test_tooling.py checks it): every sum of
products (the eigenpair residual, each step of power iteration, the
unbounded seed's projections) goes through :func:`ordered_products`,
which rounds each product once and adds the terms by ascending index, on
Python floats.  numpy hands ``@``, ``dot`` and ``linalg.norm`` to BLAS,
whose kernel, picked per CPU at run time, orders the additions, so their
last bits could differ between machines; the first such call also pages
in BLAS's kernels and buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

import numpy as np

#: Residual / orthonormality tolerance for eigenpairs (entries assumed O(1)).
EIG_TOL = 1e-10
#: Half-width of the band [1 - RHO_TOL, 1 + RHO_TOL] that counts as radius 1.
RHO_TOL = 1e-9
#: Iteration budget for the Perron-Frobenius power iteration.
MAX_POWER_ITERS = 10_000

_POWER_RESIDUAL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50
_MIN_NORMAL = 2.0 ** -1022


class PowerIterationError(RuntimeError):
    """Power iteration did not reach the residual target within the budget."""


def as_matrix(a) -> np.ndarray:
    """Coerce to a square float64 matrix with finite entries."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    return m


def is_symmetric(a: np.ndarray) -> bool:
    """Exact (not tolerance-based) symmetry test."""
    return bool((a == a.T).all())


def is_nonnegative(a: np.ndarray) -> bool:
    return bool((a >= 0.0).all())


def is_positive(a: np.ndarray) -> bool:
    return bool((a > 0.0).all())


def ordered_products(rows: Sequence[Sequence[float]], x: Sequence[float]) -> List[float]:
    """``sum_j row[j] * x[j]`` for each row, in a fixed order of operations.

    Each product is rounded once, and the terms are added by ascending j
    from the first, each addition rounded once: ``(r0 x0 + r1 x1) + r2 x2
    ...`` on Python floats, which CPython never fuses into a multiply-add.
    So the result is the same bit for bit on every machine and numpy
    build.  A row of inf or nan terms gives inf or nan, with no warning.
    """
    return [reduce(add, map(mul, row, x)) for row in rows]


def radius_side(rho: float, rho_tol: float = RHO_TOL) -> int:
    """Side of 1 that a spectral radius lies on: -1 below, 0 at, 1 above.

    Radius 1 is the closed band [1 - rho_tol, 1 + rho_tol], compared in
    floating point.  Every radius-1 decision in the package goes through
    this rule: the regime and the witness seeds.
    """
    if rho < 1.0 - rho_tol:
        return -1
    return 0 if rho <= 1.0 + rho_tol else 1


@dataclass(frozen=True)
class EigenDecomposition:
    """Full real spectrum of a symmetric matrix.

    ``eigenvectors[i]`` is the unit eigenvector for ``eigenvalues[i]``;
    eigenvalues are ordered by descending absolute value with ties broken
    by descending signed value.  For symmetric input the rows are
    orthonormal to within ``EIG_TOL``.  ``perron`` optionally carries a
    Perron-Frobenius pair ``(r, w)`` with ``r == spectral_radius`` and
    ``w`` strictly positive.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    perron: Optional[Tuple[float, np.ndarray]] = None

    @property
    def spectral_radius(self) -> float:
        """max_i |lambda_i|, or 0.0 for an empty spectrum."""
        return float(np.abs(self.eigenvalues).max(initial=0.0))

    def residual(self, a: np.ndarray) -> float:
        """max-norm eigenpair residual max_i ||A w_i - lambda_i w_i||_inf.

        Each (A w_i)_j is :func:`ordered_products`' sum of a_jc w_ic by
        ascending c, and lambda_i w_ij is subtracted from it, so the
        residual does not depend on the BLAS build.  A nan difference
        gives nan.
        """
        rows = a.tolist()
        diffs = [
            y - lam * x
            for lam, w in zip(self.eigenvalues.tolist(), self.eigenvectors.tolist())
            for y, x in zip(ordered_products(rows, w), w)
        ]
        return float(np.abs(diffs).max())


def eig2(a) -> EigenDecomposition:
    """Closed-form spectrum of a 2x2 matrix with a01 * a10 >= 0 (real spectrum).

    That covers every nonnegative and every symmetric 2x2 matrix.  The
    eigenvalues are mid +/- h, mid = (a00 + a11) / 2 and h = hypot((a00 -
    a11) / 2, sqrt(a01 a10)): the discriminant is a sum of squares, so
    nothing cancels.  A sum or difference of the diagonal entries that
    overflows is halved term by term instead, so an eigenvalue is inf only
    when it passes the float range.  sqrt(a01 a10) is taken as hi *
    sqrt(lo / hi), which cannot overflow and is exact when |a01| ==
    |a10|, or, once lo / hi falls below the normal range (off-diagonals
    more than ~1e308 apart) and would lose its bits, as sqrt(lo) sqrt(hi).  Of the two right
    eigenvectors (a01, lam - a00) and (lam - a11, a10) the longer is kept,
    since its cancellation error is small against its length (both are
    halved first where an entry overflows, which keeps the direction); it is
    scaled by its largest entry before normalising, so (c, c) always gives
    1/sqrt(2).  A multiple of I gets the axis vectors.  Pairs are sorted
    and oriented as in :func:`eig_symmetric`.
    """
    mat = as_matrix(a)
    if mat.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {mat.shape}")
    (a00, a01), (a10, a11) = mat.tolist()
    if min(a01, a10) < 0.0 < max(a01, a10):
        raise ValueError("off-diagonal entries of opposite sign give a complex spectrum")
    lo, hi = sorted((abs(a01), abs(a10)))
    ratio = lo / hi if hi > 0.0 else 0.0
    if ratio < _MIN_NORMAL:  # lo / hi lost bits or underflowed: take the roots apart
        g = math.sqrt(lo) * math.sqrt(hi)
    else:
        g = hi * math.sqrt(ratio)
    e, mid = 0.5 * (a00 - a11), 0.5 * (a00 + a11)
    if not math.isfinite(e):  # halve the terms first where their sum overflows
        e = 0.5 * a00 - 0.5 * a11
    if not math.isfinite(mid):
        mid = 0.5 * a00 + 0.5 * a11
    h = math.hypot(e, g)
    values, vectors = [], []
    for sign, axis in ((1.0, (1.0, 0.0)), (-1.0, (0.0, 1.0))):
        p, q = (a01, sign * h - e), (sign * h + e, a10)
        if not (math.isfinite(p[1]) and math.isfinite(q[0])):  # halve both where one overflows
            p, q = (0.5 * a01, 0.5 * sign * h - 0.5 * e), (0.5 * sign * h + 0.5 * e, 0.5 * a10)
        x, y = max(p, q, key=lambda v: math.hypot(*v))
        values.append(mid + sign * h)
        top = max(abs(x), abs(y))
        x, y = (x / top, y / top) if top > 0.0 else axis
        norm = math.hypot(x, y)
        vectors.append((x / norm, y / norm))
    return _decomposition(np.array(values), np.array(vectors))


def _jacobi(a0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization; returns (eigenvalues, row eigenvectors).

    The rotations run on lists of Python floats: ``a`` by rows and the
    eigenvector rows ``vt`` (the columns of V).  Each element gets
    ``c * x - s * y`` or ``s * x + c * y``, the same two rounded products
    and one rounded sum or difference as the numpy slice arithmetic
    ``c * a[:, p] - s * a[:, q]``, since CPython does not fuse a multiply
    and an add, and in the same order: columns of ``a``, then rows, then
    V.  So the result is bit for bit that of the slice form, at a fraction
    of its per-call overhead for m <= 16.  The norms ``fro`` and ``off``
    stay numpy sums.
    """
    m = a0.shape[0]
    fro = float(np.sqrt((a0 * a0).sum()))
    if fro == 0.0:
        return np.zeros(m), np.eye(m)
    a, vt = a0.tolist(), np.eye(m).tolist()
    upper = np.triu_indices(m, 1)
    target = 1e-15 * fro
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = float(np.sqrt(2.0 * (np.array(a)[upper] ** 2).sum()))
        if off <= target:
            return np.array([a[i][i] for i in range(m)]), np.array(vt)
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p][q]
                if apq == 0.0:
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                for row in a:
                    x, y = row[p], row[q]
                    row[p] = c * x - s * y
                    row[q] = s * x + c * y
                for rows in (a, vt):
                    xs, ys = rows[p], rows[q]
                    rows[p] = [c * x - s * y for x, y in zip(xs, ys)]
                    rows[q] = [s * x + c * y for x, y in zip(xs, ys)]
                a[p][q] = 0.0
                a[q][p] = 0.0
    raise ArithmeticError("Jacobi iteration did not converge")


def _decomposition(values: np.ndarray, vectors: np.ndarray) -> EigenDecomposition:
    """Sort pairs by descending |lambda| (ties: descending lambda) and flip
    each vector so that its largest-magnitude component is positive."""
    m = values.shape[0]
    order = sorted(range(m), key=lambda i: (-abs(values[i]), -values[i]))
    values, vectors = values[order], vectors[order]
    for row in vectors:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def _rescaled(mat: np.ndarray) -> Tuple[np.ndarray, int]:
    """``(mat * 2**-e, e)`` with the largest |entry| brought into [0.5, 1) when it
    lies outside [2**-500, 2**500], else ``(mat, 0)``.

    Jacobi and power iteration square entries, which overflows or underflows
    near the ends of the float range.  Scaling by a power of two is exact
    (``np.ldexp``), so a solver run on the scaled matrix gives eigenvalues
    that scale back by 2**e exactly and the same eigenvectors.
    """
    top = float(np.abs(mat).max(initial=0.0))
    if top == 0.0 or 2.0**-500 <= top <= 2.0**500:
        return mat, 0
    e = math.frexp(top)[1]
    return np.ldexp(mat, -e), e


def _scaled_back(values, e: int):
    """``values * 2**e``, exact, or +-inf where that passes the largest float.

    A spectral radius can pass it while every entry is finite: 5e307
    [[1, 2, 1], [2, 1, 1], [1, 1, 3]] has radius 2.2e308.  It is then inf,
    with no warning, as eig2 gives at m = 2.
    """
    with np.errstate(over="ignore"):
        return np.ldexp(values, e)


def eig_symmetric(a) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    Uses the 2x2 closed form :func:`eig2` at m = 2 and cyclic Jacobi
    rotations otherwise, on a matrix rescaled by :func:`_rescaled` when
    its entries lie near the ends of the float range.  Rejects
    non-symmetric or non-finite input.
    """
    mat = as_matrix(a)
    if not is_symmetric(mat):
        raise ValueError("matrix must be symmetric")
    if mat.shape[0] == 2:
        return eig2(mat)
    scaled, e = _rescaled(mat)
    values, vectors = _jacobi(scaled)
    return _decomposition(_scaled_back(values, e), vectors)


def _power_iteration(mat: np.ndarray, shift: float) -> Optional[Tuple[float, np.ndarray]]:
    """Power iteration on ``mat + shift * I``, judged on ``mat`` itself.

    Returns ``(r, x)`` once ``||A x - r x||_inf`` with the Rayleigh
    quotient ``r = x . A x`` falls below the residual target, or None
    when the iteration budget runs out first.  With ``shift = 0`` the
    update is plain power iteration on A.  The iterate is a list of
    Python floats; ``A x``, ``x . A x`` and the squared norm are
    :func:`ordered_products`' sums by ascending index.
    """
    rows = mat.tolist()
    m = len(rows)
    x = [1.0 / math.sqrt(m)] * m
    for _ in range(MAX_POWER_ITERS):
        y = ordered_products(rows, x)
        (r,) = ordered_products((x,), y)
        worst = max(abs(yi - r * xi) for yi, xi in zip(y, x))
        if worst <= _POWER_RESIDUAL_TOL * max(1.0, abs(r)):
            return r, np.array(x)
        y = [yi + shift * xi for yi, xi in zip(y, x)]
        (square,) = ordered_products((y,), y)
        norm = math.sqrt(square)
        if norm == 0.0 or not math.isfinite(norm):
            raise PowerIterationError("power iteration degenerated")
        x = [yi / norm for yi in y]
    return None


def perron_pair(a) -> Tuple[float, np.ndarray]:
    """Perron-Frobenius eigenpair of a nonnegative 2x2 or a strictly positive matrix.

    Returns ``(r, w)`` with ``r`` the dominant eigenvalue and ``w`` its
    unit eigenvector with nonnegative components.  A 2x2 matrix gets the
    dominant pair of :func:`eig2`.  A larger one must be strictly
    positive, and ``w`` comes from power iteration from a strictly
    positive start vector, with strictly positive components.  It stops
    once ``||A w - r w||_inf`` falls below ``1e-14 * max(1, r)``, well
    inside the ``EIG_TOL`` contract, so seeds built from ``w`` stay
    periodic to ~1e-14 over long runs.  When an eigenvalue near ``-r``
    stalls the plain iteration, it is run again on ``A + sigma I`` with
    ``sigma`` the largest row sum (at least ``r``).  That matrix has the
    same eigenvectors, and the eigenvalue near ``-r`` becomes one near
    ``sigma - r``, far below the dominant ``r + sigma``.  Entries near
    the ends of the float range are rescaled first, as in
    :func:`eig_symmetric`, and a radius past the largest float is inf.
    Each step's ``A x``, its Rayleigh quotient ``x . A x`` and its squared
    norm add their products by ascending index (:func:`ordered_products`),
    so ``r`` and ``w`` are the same bit for bit on every machine.
    """
    mat = as_matrix(a)
    if mat.shape == (2, 2) and is_nonnegative(mat):
        dec = eig2(mat)
        return float(dec.eigenvalues[0]), dec.eigenvectors[0]
    if not is_positive(mat):
        raise ValueError("perron_pair requires a nonnegative 2x2 or a strictly positive matrix")
    scaled, e = _rescaled(mat)
    pair = _power_iteration(scaled, 0.0)
    if pair is None:
        pair = _power_iteration(scaled, float(scaled.sum(axis=1).max()))
    if pair is None:
        raise PowerIterationError(
            f"power iteration did not converge within {MAX_POWER_ITERS} iterations"
        )
    r, x = pair
    if float(x.min()) <= 0.0:
        raise PowerIterationError("iterate lost strict positivity")
    return float(_scaled_back(r, e)), x


def contraction_rate(a) -> Optional[float]:
    """A rate r < 1 that bounds the rounded products of the nonnegative matrix ``a``, or None.

    For every v with 0 <= v <= T componentwise, any floating-point
    evaluation of (A v)_i (m rounded products added in any order) is at
    most r T + m 2^-1074.  r is lam, the largest row sum as computed,
    widened by a proven rounding slack.  With u = 2^-53:

    - A sum of nonnegative terms rounds by a relative u at most, so an
      exact row sum is at most (1 - u)^-(m-1) lam, whatever the order of
      its additions.
    - A product rounds by a relative u or, below the normal range, by an
      absolute 2^-1075 at most.  So a float evaluation of (A v)_i is at
      most (1 + u)^m T (row sum i) + m 2^-1074.
    - (1 + u)^m (1 - u)^-(m-1) <= 1 + (2m + 2) u, which the factor
      1 + (4m + 8) u of r covers with the rounding of r itself; the added
      2^-1074 covers that rounding below the normal range.

    None when r is not below 1: always so when rho(A) >= 1, since rho(A)
    is at most the largest row sum, but also for a kernel with rho(A) < 1
    and a row sum of 1 or more.
    """
    mat = as_matrix(a)
    with np.errstate(over="ignore"):
        lam = float(mat.sum(axis=1).max())
    rate = lam * (1.0 + (mat.shape[0] + 2) * 2.0**-51) + 2.0**-1074
    return rate if rate < 1.0 else None

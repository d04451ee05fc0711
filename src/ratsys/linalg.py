"""Dense eigensolvers and spectral utilities for small matrices.

Everything here targets small dense systems (m up to ~16): one closed
form, :func:`eig2`, for every 2x2 matrix with a real spectrum (every
nonnegative and every symmetric one), cyclic Jacobi rotations for larger
symmetric matrices, and a Perron-Frobenius pair for every nonnegative 2x2
matrix (the closed form) and every strictly positive larger one (power
iteration).  :func:`radius_side` is the one rule that compares a spectral
radius to 1.  No LAPACK dependency (tests/test_no_lapack.py checks it);
results are deterministic bit-for-bit for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

#: Residual / orthonormality tolerance for eigenpairs (entries assumed O(1)).
EIG_TOL = 1e-10
#: Half-width of the band [1 - RHO_TOL, 1 + RHO_TOL] that counts as radius 1.
RHO_TOL = 1e-9
#: Iteration budget for the Perron-Frobenius power iteration.
MAX_POWER_ITERS = 10_000

_POWER_RESIDUAL_TOL = 1e-14
_JACOBI_MAX_SWEEPS = 50


class PowerIterationError(RuntimeError):
    """Power iteration did not reach the residual target within the budget."""


class DegenerateProjectionError(ValueError):
    """A vector is numerically orthogonal to one of the eigenvectors."""


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


def radius_side(rho: float, rho_tol: float = RHO_TOL) -> int:
    """Side of 1 that a spectral radius lies on: -1 below, 0 at, 1 above.

    Radius 1 is the closed band [1 - rho_tol, 1 + rho_tol], compared in
    floating point.  Every radius-1 decision in the package goes through
    this rule: the regime, the witness seeds and the proof checks.
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
    spectral_radius: float
    perron: Optional[Tuple[float, np.ndarray]] = None

    def residual(self, a: np.ndarray) -> float:
        """max-norm eigenpair residual max_i ||A w_i - lambda_i w_i||_inf."""
        r = self.eigenvectors @ a.T - self.eigenvalues[:, None] * self.eigenvectors
        return float(np.abs(r).max())


def eig2(a) -> EigenDecomposition:
    """Closed-form spectrum of a 2x2 matrix with a01 * a10 >= 0 (real spectrum).

    That covers every nonnegative and every symmetric 2x2 matrix.  The
    eigenvalues are mid +/- h, mid = (a00 + a11) / 2 and h = hypot((a00 -
    a11) / 2, sqrt(a01 a10)): the discriminant is a sum of squares, so
    nothing cancels.  sqrt(a01 a10) is taken as hi * sqrt(lo / hi), which
    cannot underflow and is exact when |a01| == |a10|.  Of the two right
    eigenvectors (a01, lam - a00) and (lam - a11, a10) the longer is kept,
    since its cancellation error is small against its length; it is
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
    g = hi * math.sqrt(lo / hi) if hi > 0.0 else 0.0
    e = 0.5 * (a00 - a11)
    h = math.hypot(e, g)
    mid = 0.5 * (a00 + a11)
    values, vectors = [], []
    for sign, axis in ((1.0, (1.0, 0.0)), (-1.0, (0.0, 1.0))):
        p, q = (a01, sign * h - e), (sign * h + e, a10)
        x, y = max(p, q, key=lambda v: math.hypot(*v))
        values.append(mid + sign * h)
        top = max(abs(x), abs(y))
        x, y = (x / top, y / top) if top > 0.0 else axis
        norm = math.hypot(x, y)
        vectors.append((x / norm, y / norm))
    return _decomposition(np.array(values), np.array(vectors))


def _jacobi(a0: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization; returns (eigenvalues, row eigenvectors)."""
    m = a0.shape[0]
    a = a0.copy()
    v = np.eye(m)
    fro = float(np.sqrt((a * a).sum()))
    if fro == 0.0:
        return np.zeros(m), v
    target = 1e-15 * fro
    for _ in range(_JACOBI_MAX_SWEEPS):
        off = float(np.sqrt(2.0 * (a[np.triu_indices(m, 1)] ** 2).sum()))
        if off <= target:
            return np.diagonal(a).copy(), v.T.copy()
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                ap, aq = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * ap - s * aq
                a[:, q] = s * ap + c * aq
                ap, aq = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * ap - s * aq
                a[q, :] = s * ap + c * aq
                a[p, q] = 0.0
                a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
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
    rho = float(np.abs(values).max()) if m else 0.0
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors, spectral_radius=rho)


def eig_symmetric(a) -> EigenDecomposition:
    """Eigendecomposition of a real symmetric matrix.

    Uses the 2x2 closed form :func:`eig2` at m = 2 and cyclic Jacobi
    rotations otherwise.  Rejects non-symmetric or non-finite input.
    """
    mat = as_matrix(a)
    if not is_symmetric(mat):
        raise ValueError("matrix must be symmetric")
    if mat.shape[0] == 2:
        return eig2(mat)
    return _decomposition(*_jacobi(mat))


def spectral_radius(a) -> float:
    """max_i |lambda_i| of a symmetric matrix."""
    return eig_symmetric(a).spectral_radius


def _power_iteration(mat: np.ndarray, shift: float) -> Optional[Tuple[float, np.ndarray]]:
    """Power iteration on ``mat + shift * I``, judged on ``mat`` itself.

    Returns ``(r, x)`` once ``||A x - r x||_inf`` with the Rayleigh
    quotient ``r = x . A x`` falls below the residual target, or None
    when the iteration budget runs out first.  With ``shift = 0`` the
    update is plain power iteration on A.
    """
    m = mat.shape[0]
    x = np.full(m, 1.0 / math.sqrt(m))
    for _ in range(MAX_POWER_ITERS):
        y = mat @ x
        r = float(x @ y)
        if float(np.abs(y - r * x).max()) <= _POWER_RESIDUAL_TOL * max(1.0, abs(r)):
            return r, x
        y = y + shift * x
        norm = float(np.linalg.norm(y))
        if norm == 0.0 or not math.isfinite(norm):
            raise PowerIterationError("power iteration degenerated")
        x = y / norm
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
    ``sigma - r``, far below the dominant ``r + sigma``.
    """
    mat = as_matrix(a)
    if mat.shape == (2, 2) and is_nonnegative(mat):
        dec = eig2(mat)
        return float(dec.eigenvalues[0]), dec.eigenvectors[0]
    if not is_positive(mat):
        raise ValueError("perron_pair requires a nonnegative 2x2 or a strictly positive matrix")
    pair = _power_iteration(mat, 0.0)
    if pair is None:
        pair = _power_iteration(mat, float(mat.sum(axis=1).max()))
    if pair is None:
        raise PowerIterationError(
            f"power iteration did not converge within {MAX_POWER_ITERS} iterations"
        )
    r, x = pair
    if float(x.min()) <= 0.0:
        raise PowerIterationError("iterate lost strict positivity")
    return r, x


def check_fact1(a, v, big_l: int) -> Tuple[bool, bool]:
    """Norm non-expansion of powers of a symmetric matrix with radius 1.

    Returns two flags for ``w = A^L v``: whether ``<w, w> <= <v, v>``
    holds (within ``EIG_TOL``) and whether equality holds within
    ``EIG_TOL``.  Equality is expected exactly when v has negligible
    projection onto the eigenvectors with |lambda| < 1.
    """
    mat = as_matrix(a)
    dec = eig_symmetric(mat)
    if radius_side(dec.spectral_radius) != 0:
        raise ValueError("check_fact1 requires spectral radius 1")
    if big_l < 1:
        raise ValueError("L must be a positive integer")
    vec = np.asarray(v, dtype=float)
    w = np.linalg.matrix_power(mat, big_l) @ vec
    lhs = float(w @ w)
    rhs = float(vec @ vec)
    return lhs <= rhs + EIG_TOL, abs(lhs - rhs) <= EIG_TOL


def check_fact2(a, v, growth_threshold: float, max_l: int) -> bool:
    """Unbounded growth of ||A^L v|| when the spectral radius exceeds 1.

    Requires v to have nonzero projection (above ``EIG_TOL``) on every
    eigenvector whose eigenvalue lies outside the unit disc, since those
    directions carry the growth; raises
    :class:`DegenerateProjectionError` otherwise.  Returns True iff
    ||A^L v|| exceeds ``growth_threshold`` for some L <= ``max_l``.
    """
    mat = as_matrix(a)
    dec = eig_symmetric(mat)
    if radius_side(dec.spectral_radius) != 1:
        raise ValueError("check_fact2 requires spectral radius greater than 1")
    vec = np.asarray(v, dtype=float)
    projections = dec.eigenvectors @ vec
    small = [
        i
        for i, (lam, p) in enumerate(zip(dec.eigenvalues, projections))
        if radius_side(abs(lam)) == 1 and abs(p) <= EIG_TOL
    ]
    if small:
        raise DegenerateProjectionError(
            f"vector is orthogonal to expanding eigenvector(s) {small}"
        )
    w = vec.copy()
    for _ in range(max_l):
        w = mat @ w
        if float(np.linalg.norm(w)) > growth_threshold:
            return True
    return False

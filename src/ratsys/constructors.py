"""Special initial conditions: periodic, period-2k, and unbounded seeds.

All three constructions zero the history except the oldest vector
v_{1-k}.  With that pattern the denominators collapse to 1 along the
surviving residue class, the system runs exactly linearly there, and the
orbit of v_{1-k} under the kernel matrix determines the behavior.  At
m = 2 every nonnegative kernel is served by :func:`~ratsys.linalg.eig2`.
Each constructor checks the radius with :func:`~ratsys.linalg.radius_side`,
the rule the classifier's regime uses, so a seed is refused exactly when
the regime does not call for it.
"""

from __future__ import annotations

from typing import List

import numpy as np

from .linalg import EIG_TOL, RHO_TOL, eig2, eig_symmetric, perron_pair, radius_side
from .model import InitialConditions, SystemSpec

#: Fixed generator for the randomized tail of the unbounded-seed cascade.
_CANDIDATE_RNG_SEED = 1093


class SeedConstructionError(RuntimeError):
    """No candidate start vector satisfied the projection requirements."""


def construct_periodic_seed(spec: SystemSpec, rho_tol: float = RHO_TOL) -> InitialConditions:
    """Seed whose orbit is periodic with prime period k.

    Requires spectral radius 1 under :func:`~ratsys.linalg.radius_side`.
    The seed is the Perron vector of :func:`~ratsys.linalg.perron_pair`.
    """
    r, w = perron_pair(spec.A)
    if radius_side(r, rho_tol) != 0:
        raise ValueError(f"spectral radius must be 1, got {r!r}")
    return InitialConditions.impulse(spec.k, w)


def _is_case3_kernel(a: np.ndarray) -> bool:
    """Anti-diagonal form [[0, g], [h, 0]]: zero diagonal, positive off-diagonal."""
    return (
        a.shape == (2, 2)
        and a[0, 0] == 0.0
        and a[1, 1] == 0.0
        and a[0, 1] > 0.0
        and a[1, 0] > 0.0
    )


def construct_period2k_seed(
    spec: SystemSpec, a: float, b: float, rho_tol: float = RHO_TOL
) -> InitialConditions:
    """Seed with prime period 2k for the anti-diagonal kernel [[0, g], [h, 0]].

    The radius sqrt(g h) must be 1 under :func:`~ratsys.linalg.radius_side`.
    The start vector (a, b) must be nonnegative with a != g * b; equality
    would put it on the eigenvalue-1 eigenline and produce period k instead.
    """
    kernel = spec.A
    if not _is_case3_kernel(kernel):
        raise ValueError("period-2k seed requires the kernel form [[0, g], [h, 0]], g, h > 0")
    r = eig2(kernel).spectral_radius
    if radius_side(r, rho_tol) != 0:
        raise ValueError(f"spectral radius must be 1, got {r!r}")
    seed = InitialConditions.impulse(spec.k, np.array([a, b]))  # refuses a, b < 0 or not finite
    g = float(kernel[0, 1])
    if a == g * b:
        raise ValueError(f"a = g * b = {a!r} yields period k, not 2k")
    return seed


def _candidates(m: int) -> List[np.ndarray]:
    rng = np.random.default_rng(_CANDIDATE_RNG_SEED)
    cascade = [np.ones(m), np.arange(1.0, m + 1.0)]
    cascade.extend(rng.uniform(0.0, 1.0, (m, m)))
    return cascade


def construct_unbounded_seed(spec: SystemSpec, rho_tol: float = RHO_TOL) -> InitialConditions:
    """Seed whose orbit grows without bound when the spectral radius exceeds 1.

    Picks the first candidate start vector with nonzero projection on
    every eigenvector of A^T, i.e. nonzero coordinates in A's eigenbasis
    (all-ones, then (1, 2, ..., m), then m fixed-seed random nonnegative
    vectors).  Along the surviving residue class the orbit is
    A^{L+1} v_{1-k}, which is unbounded by the spectral gap.  Beyond
    m = 2 the kernel must be symmetric, so that A^T has A's eigenvectors.
    """
    a = spec.A
    dec = eig2(a.T) if spec.m == 2 else eig_symmetric(a)
    if radius_side(dec.spectral_radius, rho_tol) != 1:
        raise ValueError(
            f"spectral radius must exceed 1, got {dec.spectral_radius!r}"
        )
    for cand in _candidates(spec.m):
        projections = dec.eigenvectors @ cand
        if (np.abs(projections) > EIG_TOL).all():
            return InitialConditions.impulse(spec.k, cand)
    raise SeedConstructionError(
        "no candidate start vector has nonzero projection on every eigenvector"
    )

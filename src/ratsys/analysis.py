"""A-posteriori trajectory diagnostics.

Detection of zero limits, limit cycles, and unbounded growth, plus direct
numerical checks of the proof machinery: the linear residual
||v_n - A v_{n-k}||, shifted residuals ||v_n - v_{n-shift}||, the squared-norm
envelope chain, and the matrix-power domination inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import eig_symmetric, radius_side
from .model import SystemSpec, Trajectory

#: Default detection thresholds (parameters assumed O(1)).
ZERO_TOL = 1e-8
PER_TOL = 1e-7
GROWTH_THRESHOLD = 1e6
#: Tail window for period detection: the larger of 20% of the horizon and
#: MIN_WINDOW_BLOCKS blocks of max_period samples.
TAIL_FRACTION = 0.2
MIN_WINDOW_BLOCKS = 10
#: Slack for the envelope and domination inequality checks.
INEQ_SLACK = 1e-12

CONVERGED_TO_ZERO = "converged-to-zero"
EVENTUALLY_PERIODIC = "eventually-periodic"
UNBOUNDED = "unbounded"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Tolerances:
    zero_tol: float = ZERO_TOL
    per_tol: float = PER_TOL
    growth_threshold: float = GROWTH_THRESHOLD
    max_period: Optional[int] = None  # defaults to 2k when analyzing


@dataclass
class AnalysisReport:
    """Detected asymptotic behavior plus the evidence behind it."""

    behavior: str
    period: Optional[int] = None
    exit_step: Optional[int] = None

    def describe(self) -> str:
        if self.behavior == EVENTUALLY_PERIODIC:
            return f"{self.behavior} (period {self.period})"
        if self.behavior == UNBOUNDED:
            return f"{self.behavior} (exit step {self.exit_step})"
        return self.behavior


def detect_zero_limit(traj: Trajectory, zero_tol: float = ZERO_TOL) -> bool:
    """True iff the final k stored vectors are all below ``zero_tol`` in max norm."""
    tail = traj.values[-traj.k:]
    return bool(np.abs(tail).max() <= zero_tol)


def detect_period(
    traj: Trajectory, max_period: int, per_tol: float, window: int
) -> Optional[int]:
    """Smallest period p <= max_period that holds on the tail window.

    ``window`` counts blocks of ``max_period`` samples, so the comparison
    covers the final ``window * max_period`` generated values; that count
    must fit inside the horizon.  Scanning periods smallest-first makes
    the returned period prime: no proper divisor can also pass.
    """
    if max_period < 1:
        raise ValueError("max_period must be >= 1")
    if window < 1:
        raise ValueError("window must be >= 1")
    n_tail = window * max_period
    if n_tail > traj.horizon:
        raise ValueError(
            f"window * max_period = {n_tail} exceeds the horizon {traj.horizon}"
        )
    vals = traj.values
    horizon = traj.horizon
    last = traj.index(horizon)
    for p in range(1, max_period + 1):
        n_start = max(horizon - n_tail + 1, traj.n_first + p)
        lo = traj.index(n_start)
        a = vals[lo : last + 1]
        b = vals[lo - p : last + 1 - p]
        if np.abs(a - b).max() <= per_tol:
            return p
    return None


def detect_unbounded(
    traj: Trajectory, growth_threshold: float = GROWTH_THRESHOLD
) -> Optional[int]:
    """First generated index whose Euclidean norm exceeds the threshold.

    Falls back to the overflow step when the simulator diverged before
    crossing the threshold; returns None for bounded runs.
    """
    gen = traj.generated
    if gen.shape[0]:
        with np.errstate(over="ignore"):  # squared huge-but-finite values -> inf is fine
            norms = np.sqrt((gen * gen).sum(axis=1))
        hits = np.nonzero(norms > growth_threshold)[0]
        if hits.size:
            return int(hits[0]) + 1
    return traj.diverged_at


def residual_linear(traj: Trajectory, a) -> np.ndarray:
    """Sequence ||v_n - A v_{n-k}|| for n = 1..horizon.

    The product A v_{n-k} is evaluated in the simulator's numerator order
    (from 0.0, components ascending), so a denominator-free run has an
    exactly zero residual.
    """
    kernel = np.asarray(a, dtype=float)
    if kernel.shape != (traj.m, traj.m):
        raise ValueError(f"matrix shape {kernel.shape} does not match dimension {traj.m}")
    vals = traj.values
    delayed = vals[: traj.horizon]
    predicted = np.zeros((traj.horizon, traj.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(traj.m):
            predicted += delayed[:, c, None] * kernel[:, c]
        diff = vals[traj.k :] - predicted
        return np.sqrt((diff * diff).sum(axis=1))


def residual_shift(traj: Trajectory, shift: int) -> np.ndarray:
    """Sequence ||v_n - v_{n-shift}|| for n = shift+1..horizon."""
    if shift < 1:
        raise ValueError("shift must be >= 1")
    if traj.horizon <= shift:
        return np.empty(0)
    gen = traj.generated
    with np.errstate(over="ignore", invalid="ignore"):
        diff = gen[shift:] - gen[:-shift]
        return np.sqrt((diff * diff).sum(axis=1))


def envelope_check(traj: Trajectory, a) -> bool:
    """Verify h(A v_n) <= h(v_n) <= h(A v_{n-k}) <= h(v_{n-k}) for all n >= 1.

    h is the squared Euclidean norm; the chain requires a symmetric kernel
    with spectral radius at most 1 and holds with ``INEQ_SLACK`` slack.
    """
    kernel = np.asarray(a, dtype=float)
    dec = eig_symmetric(kernel)  # validates symmetry
    if radius_side(dec.spectral_radius) == 1:
        raise ValueError(
            f"envelope check requires spectral radius <= 1, got {dec.spectral_radius!r}"
        )
    vals = traj.values
    k = traj.k
    h = (vals * vals).sum(axis=1)
    av = vals @ kernel.T
    h_av = (av * av).sum(axis=1)
    ok = (
        (h_av[k:] <= h[k:] + INEQ_SLACK).all()
        and (h[k:] <= h_av[:-k] + INEQ_SLACK).all()
        and (h_av[:-k] <= h[:-k] + INEQ_SLACK).all()
    )
    return bool(ok)


def domination_check(traj: Trajectory, a, power_l: int, q: int) -> bool:
    """Componentwise A^q v_n <= A^{q+L} v_{n-kL} over all stored n >= max(kL, 1)."""
    if power_l < 0 or q < 0:
        raise ValueError("L and q must be nonnegative")
    kernel = np.asarray(a, dtype=float)
    k = traj.k
    n_start = max(k * power_l, 1)
    if n_start > traj.horizon:
        raise ValueError("no indices n >= kL inside the horizon")
    aq = np.linalg.matrix_power(kernel, q)
    aql = np.linalg.matrix_power(kernel, q + power_l)
    lo = traj.index(n_start)
    hi = traj.index(traj.horizon)
    lhs = traj.values[lo : hi + 1] @ aq.T
    rhs = traj.values[lo - k * power_l : hi + 1 - k * power_l] @ aql.T
    return bool((lhs <= rhs + INEQ_SLACK).all())


def residue_limits(traj: Trajectory, period: int, samples: int = 10) -> np.ndarray:
    """One estimated limit vector per residue class mod ``period``.

    Row a is the mean of the last ``samples`` values of the subsequence
    {v_n : n = a mod period}.
    """
    # Class a starts at generated row (a - 1) mod period.  The tail is copied: a
    # mean over the strided view raised peak RSS of an m = 16 verify by ~0.25 MB.
    gen = traj.generated
    return np.array([gen[(a - 1) % period :: period][-samples:].copy().mean(axis=0)
                     for a in range(period)])


def analyze(
    traj: Trajectory, spec: SystemSpec, tolerances: Optional[Tolerances] = None
) -> AnalysisReport:
    """Classify the observed behavior of one trajectory.

    Precedence: unbounded growth, then convergence to zero, then
    eventual periodicity, then undetermined (an honest outcome for
    horizons too short to resolve the tail).
    """
    tol = tolerances or Tolerances()
    exit_step = detect_unbounded(traj, tol.growth_threshold)
    if exit_step is not None:
        return AnalysisReport(behavior=UNBOUNDED, exit_step=exit_step)
    if detect_zero_limit(traj, tol.zero_tol):
        return AnalysisReport(behavior=CONVERGED_TO_ZERO)
    max_period = tol.max_period or 2 * spec.k
    blocks = max(
        math.ceil(TAIL_FRACTION * traj.horizon / max_period),
        MIN_WINDOW_BLOCKS,
    )
    blocks = min(blocks, traj.horizon // max_period)
    period = None
    if blocks >= 1:
        period = detect_period(traj, max_period, tol.per_tol, blocks)
    if period is None:
        return AnalysisReport(behavior=UNDETERMINED)
    return AnalysisReport(behavior=EVENTUALLY_PERIODIC, period=period)

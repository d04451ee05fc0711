"""A-posteriori trajectory diagnostics.

Detection of zero limits, limit cycles, and unbounded growth, plus direct
numerical checks of the proof machinery: the linear residual
||v_n - A v_{n-k}|| and shifted residuals ||v_n - v_{n-shift}||.
:func:`analyze` sums one trajectory up as an :class:`AnalysisReport`, which
a verify check carries as the evidence for its status.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import RHO_TOL
from .model import Trajectory

#: Default detection thresholds (parameters assumed O(1)).
ZERO_TOL = 1e-8
PER_TOL = 1e-7
GROWTH_THRESHOLD = 1e6
#: Tail window for period detection: the larger of 1 / TAIL_PARTS of the horizon
#: and MIN_WINDOW_BLOCKS blocks of 2k samples, 2k being the longest period scanned.
TAIL_PARTS = 5
MIN_WINDOW_BLOCKS = 10

CONVERGED_TO_ZERO = "converged-to-zero"
EVENTUALLY_PERIODIC = "eventually-periodic"
UNBOUNDED = "unbounded"
UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class Tolerances:
    """Every threshold of a run; building one that no run could meet raises ``ValueError``.

    The one owner of these rules, from the config file down to the
    simulator: each refusal starts with the field's name and names the
    value.  A bool is no number here, and the float fields take any other
    real number.  ``rho_tol`` is the half-width of the band [1 - rho_tol,
    1 + rho_tol] that the classifier and the seed constructors count as
    radius 1.  ``growth_threshold``, ``zero_tol`` and ``per_tol`` are
    ``analyze``'s tests for the behaviours, and
    ``simulator.simulate_batch`` also ends a run by the first two.
    """

    zero_tol: float = ZERO_TOL
    per_tol: float = PER_TOL
    growth_threshold: float = GROWTH_THRESHOLD
    rho_tol: float = RHO_TOL

    def __post_init__(self):
        for name in ("zero_tol", "per_tol", "rho_tol", "growth_threshold"):
            value = getattr(self, name)
            if type(value) is bool or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
        for name in ("zero_tol", "per_tol", "rho_tol"):
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 < self.growth_threshold < math.inf:
            raise ValueError(f"growth_threshold must be finite and > 0, "
                             f"got {self.growth_threshold!r}")


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
    """True iff the final k vectors are all below ``zero_tol`` in max norm."""
    tail = traj.rows(traj.horizon - traj.k + 1, traj.horizon)
    return bool(np.abs(tail).max() <= zero_tol)


def detect_period(traj: Trajectory, per_tol: float) -> Optional[int]:
    """Smallest period p <= 2k that holds on the tail window, or None.

    The window is :func:`_window` blocks of 2k samples, the final generated
    values of the run, so a run shorter than 2k has none.  Scanning periods
    smallest-first makes the returned period prime: no proper divisor can
    also pass.
    """
    horizon, max_period = traj.horizon, 2 * traj.k
    n_tail = _window(horizon, traj.k) * max_period
    if not n_tail:
        return None
    first = max(horizon - n_tail - max_period + 1, traj.n_first)
    rows = traj.rows(first, horizon)  # each p compares rows n_start.. with the rows p before
    for p in range(1, max_period + 1):
        lo = max(horizon - n_tail + 1, traj.n_first + p) - first
        if np.abs(rows[lo:] - rows[lo - p : len(rows) - p]).max() <= per_tol:
            return p
    return None


def _window(horizon: int, k: int) -> int:
    """The blocks of 2k samples that :func:`detect_period` compares, in integer arithmetic.

    A fifth of the horizon rounded up, at least :data:`MIN_WINDOW_BLOCKS`
    and at most all of it.
    """
    blocks = max(-(-horizon // (TAIL_PARTS * 2 * k)), MIN_WINDOW_BLOCKS)
    return min(blocks, horizon // (2 * k))


def rows_read(horizon: int, k: int) -> int:
    """The trailing rows :func:`analyze` reads of a run of order k that reaches ``horizon``.

    :func:`detect_period`'s window and the block of 2k before it.  A run
    that ends earlier is reported before its period is sought, and
    :func:`detect_unbounded`, which reads every held row, finds no crossing
    in the rows the simulator does not hold.
    """
    return (_window(horizon, k) + 1) * 2 * k


def rows_above(rows: np.ndarray, threshold: float) -> np.ndarray:
    """The indices, ascending, of the rows whose Euclidean norm exceeds ``threshold``.

    The growth test of :func:`detect_unbounded`, which the simulator also
    runs on each block of a verify run's rows to stop stepping it once it
    has crossed.  A row's norm depends on that row's values alone (the
    numpy sum of a C-contiguous row does not change with the number of
    rows), so a block finds the crossings the whole trajectory shows there.
    """
    with np.errstate(over="ignore"):  # squared huge-but-finite values -> inf is fine
        norms = np.sqrt((rows * rows).sum(axis=1))
    return np.flatnonzero(norms > threshold)


def detect_unbounded(
    traj: Trajectory, growth_threshold: float = GROWTH_THRESHOLD
) -> Optional[int]:
    """First generated index whose Euclidean norm exceeds the threshold.

    Falls back to the overflow step when the simulator diverged before
    crossing the threshold; returns None for bounded runs.
    """
    # The held rows alone: a row past them repeats one of them, so it crosses
    # only where that did.  64 kB of them at a time: a temporary of glibc's
    # initial mmap threshold (128 kB) or more is mapped, and freeing it raises
    # the threshold, so that later ones stay resident in the heap.
    first = max(traj.held_from, 1)
    held, block = traj.values[first - traj.held_from :], max(1, 8192 // traj.m)
    for start in range(0, len(held), block):
        hits = rows_above(held[start : start + block], growth_threshold)
        if hits.size:
            return first + start + int(hits[0])
    return traj.diverged_at


def residual_linear(traj: Trajectory) -> np.ndarray:
    """Sequence ||v_n - A v_{n-k}|| for n = 1..horizon, A the kernel of ``traj.spec``.

    The product A v_{n-k} is evaluated in the simulator's numerator order
    (from 0.0, components ascending), so a denominator-free run has an
    exactly zero residual.
    """
    vals = traj.rows(traj.n_first, traj.horizon)
    delayed = vals[: traj.horizon]
    predicted = np.zeros((traj.horizon, traj.m))
    with np.errstate(over="ignore", invalid="ignore"):
        for c in range(traj.m):
            predicted += delayed[:, c, None] * traj.spec.A[:, c]
        diff = vals[traj.k :] - predicted
        return np.sqrt((diff * diff).sum(axis=1))


def residual_shift(traj: Trajectory, shift: int) -> np.ndarray:
    """Sequence ||v_n - v_{n-shift}|| for n = shift+1..horizon."""
    if shift < 1:
        raise ValueError("shift must be >= 1")
    if traj.horizon <= shift:
        return np.empty(0)
    gen = traj.rows(1, traj.horizon)
    with np.errstate(over="ignore", invalid="ignore"):
        diff = gen[shift:] - gen[:-shift]
        return np.sqrt((diff * diff).sum(axis=1))


def analyze(traj: Trajectory, tolerances: Optional[Tolerances] = None) -> AnalysisReport:
    """Classify the observed behavior of one trajectory of ``traj.spec``.

    Precedence: unbounded growth, then convergence to zero, then
    eventual periodicity with a period up to 2k, which every limit period
    of the tetrachotomy divides, then undetermined (an honest outcome for
    horizons too short to resolve the tail).
    """
    tol = tolerances or Tolerances()
    exit_step = detect_unbounded(traj, tol.growth_threshold)
    if exit_step is not None:
        return AnalysisReport(behavior=UNBOUNDED, exit_step=exit_step)
    if detect_zero_limit(traj, tol.zero_tol):
        return AnalysisReport(behavior=CONVERGED_TO_ZERO)
    period = detect_period(traj, tol.per_tol)
    if period is None:
        return AnalysisReport(behavior=UNDETERMINED)
    return AnalysisReport(behavior=EVENTUALLY_PERIODIC, period=period)

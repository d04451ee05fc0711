"""Domain types for k-th order rational difference systems in vector form.

The system iterates ``v_n = B_n A v_{n-k}`` on the nonnegative orthant,
where ``A`` is an m x m nonnegative kernel and ``B_n`` is the diagonal of
reciprocals ``1 / (1 + sum_j q_ij . v_{n-j})`` built from per-equation
delay coefficient vectors ``q_ij`` (delays j = 1..k-1).  The additive
constant in every denominator is fixed at 1.

The input types check themselves: building a :class:`SystemSpec` that
breaks a rule of :func:`validate`, or an :class:`InitialConditions` with a
non-finite or negative value, raises ``ValueError``.  Each keeps a
read-only copy of its arrays, which the caller's later writes cannot
reach.  So one that exists is valid, and nothing that takes one checks it again.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .linalg import is_nonnegative


#: Largest value array, in bytes of float64, that one simulate or
#: simulate_batch call may allocate (B trajectories of k + horizon rows of
#: m values), and that a spec's denominator array may take.
MAX_RUN_BYTES = 1 << 30


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class SystemSpec:
    """Full parameterization of one rational system.

    ``k`` is the delay order (>= 2), ``A`` the m x m nonnegative kernel,
    and ``denom[i, j-1]`` the nonnegative m-vector of denominator
    coefficients for equation ``i + 1`` at delay ``j`` (``j = 1..k-1``).
    ``denom=None`` means all denominators are 1, i.e. the linear system.
    """

    k: int
    A: np.ndarray
    denom: Optional[np.ndarray] = None

    def __post_init__(self):
        k = self.k  # a finite integral number becomes an int: 2.0 and np.int64(2) become 2
        if isinstance(k, numbers.Real) and math.isfinite(k) and int(k) == k:
            object.__setattr__(self, "k", int(k))
        a = np.array(self.A, dtype=float)
        object.__setattr__(self, "A", _readonly(a))
        if self.denom is None:
            m = a.shape[0] if a.ndim == 2 else 0
            problem = denom_size_problem(m, self.k)  # before the zeros are allocated
            if problem:
                raise ValueError("invalid system spec: " + problem)
            q = np.zeros((m, _lags(self.k), m))
        else:
            q = np.array(self.denom, dtype=float)
        object.__setattr__(self, "denom", _readonly(q))
        problems = validate(self)
        if problems:
            raise ValueError("invalid system spec: " + "; ".join(problems))

    @property
    def m(self) -> int:
        return self.A.shape[0]


def _lags(k) -> int:
    """The delays j = 1..k-1 of a valid order k; 0 for any other k."""
    return max(k - 1, 0) if isinstance(k, int) else 0


def denom_size_problem(m: int, k) -> Optional[str]:
    """The size rule of an (m, k-1, m) denominator array: why it is over
    :data:`MAX_RUN_BYTES`, or ``None`` when it is not."""
    size = m * _lags(k) * m * 8
    if size > MAX_RUN_BYTES:
        return (f"k = {k} with m = {m} needs {size} bytes of denominator "
                f"coefficients, more than the limit of {MAX_RUN_BYTES}")
    return None


def from_scalar_params(k, beta, gamma, delta, epsilon, B, C, D, E) -> SystemSpec:
    """Build the m = 2 spec from the scalar two-equation parameters.

    ``A = [[beta, gamma], [delta, epsilon]]``; delay j of the first
    equation's denominator uses the vector ``(B[j-1], C[j-1])`` and the
    second equation's uses ``(D[j-1], E[j-1])``.  All parameters must be
    nonnegative and the coefficient lists must have length ``k - 1``.
    """
    linear = SystemSpec(k=k, A=[[beta, gamma], [delta, epsilon]])  # refuses k and the scalars
    k = linear.k
    coeffs = {}
    for name, seq in (("B", B), ("C", C), ("D", D), ("E", E)):
        arr = np.asarray(seq, dtype=float)
        if arr.shape != (k - 1,):
            raise ValueError(f"{name} must have length k - 1 = {k - 1}")
        if not np.isfinite(arr).all() or (arr < 0).any():
            raise ValueError(f"{name} entries must be finite and nonnegative")
        coeffs[name] = arr
    denom = np.stack(
        [
            np.column_stack([coeffs["B"], coeffs["C"]]),
            np.column_stack([coeffs["D"], coeffs["E"]]),
        ]
    )
    return SystemSpec(k=k, A=linear.A, denom=denom)


def validate(spec: SystemSpec) -> List[str]:
    """Collect invariant violations; empty list means the spec is well formed."""
    problems = []
    if not isinstance(spec.k, int) or spec.k < 2:
        problems.append("k must be an integer >= 2")
    a = spec.A
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        problems.append("A must be a square m x m matrix with m >= 1")
        return problems
    if not np.isfinite(a).all():
        problems.append("A entries must be finite")
    elif not is_nonnegative(a):
        problems.append("A must be nonnegative")
    m = a.shape[0]
    lags = _lags(spec.k)
    q = spec.denom
    if q.shape != (m, lags, m):
        problems.append(
            f"denom must have shape (m, k-1, m) = ({m}, {lags}, {m}), got {q.shape}"
        )
    elif not np.isfinite(q).all():
        problems.append("denom entries must be finite")
    elif (q < 0).any():
        problems.append("denom must be nonnegative")
    return problems


@dataclass(frozen=True)
class InitialConditions:
    """The k nonnegative history vectors v_{1-k}, v_{2-k}, ..., v_0."""

    history: np.ndarray

    def __post_init__(self):
        h = np.array(self.history, dtype=float)
        if not np.isfinite(h).all():
            raise ValueError("invalid initial conditions: initial conditions must be finite")
        if (h < 0).any():
            raise ValueError("invalid initial conditions: initial conditions must be nonnegative")
        object.__setattr__(self, "history", _readonly(h))

    @classmethod
    def impulse(cls, k: int, vector: Sequence[float]) -> "InitialConditions":
        """All-zero history except v_{1-k}, which is set to ``vector``."""
        v = np.asarray(vector, dtype=float)
        h = np.zeros((k, v.shape[0]))
        h[0] = v
        return cls(h)


def validate_initial(init: InitialConditions, spec: SystemSpec) -> List[str]:
    """The one rule that needs both: ``init`` holds k vectors of dimension m."""
    h = init.history
    if h.shape != (spec.k, spec.m):
        return [f"initial conditions must be {spec.k} vectors of dimension {spec.m}, "
                f"got shape {h.shape}"]
    return []


#: Why a run ended, the ``reason`` of its :class:`RunEnd`.
HORIZON = "horizon"
DIVERGED = "diverged"
GROWTH_STOP = "growth stop"
ZERO_STOP = "zero stop"
EXACT_CYCLE = "exact cycle"


class RunEnd(NamedTuple):
    """How a run ended: its last step n, the horizon, and the reason it ended there."""

    reason: str
    step: int


@dataclass(frozen=True)
class Trajectory:
    """A simulated orbit indexed by the recurrence index n, for n = 1-k, ..., horizon.

    ``end`` records how the run ended, with ``end.step`` its horizon:
    :data:`HORIZON`, it ran the steps asked for; :data:`DIVERGED`, step
    horizon + 1 produced a non-finite value; :data:`GROWTH_STOP` or
    :data:`ZERO_STOP`, a stop rule of the simulator ended it; or
    :data:`EXACT_CYCLE`, its state repeated the one 2k steps before.
    ``values`` holds its rows from n = ``held_from`` on (by default 1-k,
    the initial conditions first; a verify run holds only its last rows):
    every row, except after an exact cycle, which holds its rows up to
    some step and none of the later ones, each the row 2k before it.  So
    read the run through :meth:`rows`, which reaches every n of it from
    ``held_from`` on; ``values`` alone may end early.  Without ``end`` the
    run ends at its last held row, by :data:`HORIZON`.  The values are
    frozen in place, not copied.
    """

    spec: SystemSpec
    values: np.ndarray
    end: Optional[RunEnd] = None
    held_from: Optional[int] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        held = self.n_first if self.held_from is None else self.held_from
        if not isinstance(held, numbers.Integral) or held < self.n_first:
            raise ValueError(f"held_from = {held!r} is not an n >= {self.n_first}")
        stored = int(held) + len(v) - 1  # the last step held
        end = self.end or RunEnd(HORIZON, stored)
        if end.step != stored and not (end.reason == EXACT_CYCLE and end.step > stored
                                       and len(v) >= 2 * self.k):
            raise ValueError(f"{end} does not fit values that end at step {stored}")
        object.__setattr__(self, "values", _readonly(v))
        object.__setattr__(self, "end", end)
        object.__setattr__(self, "held_from", int(held))

    @property
    def horizon(self) -> int:
        return self.end.step

    @property
    def diverged_at(self) -> Optional[int]:
        """The step that produced a non-finite value, if the run diverged."""
        return self.end.step + 1 if self.end.reason == DIVERGED else None

    @property
    def k(self) -> int:
        return self.spec.k

    @property
    def m(self) -> int:
        return self.spec.m

    @property
    def n_first(self) -> int:
        return 1 - self.k

    def _held(self, n):
        """Steps ``n`` of the run as rows of ``values``.

        A step past the held ones (only an exact cycle has such steps) is
        the step 2k j before it, for the least j that reaches a held one.
        """
        last, period = self.held_from + len(self.values) - 1, 2 * self.k
        return np.where(n <= last, n, last - period + 1 + (n - last - 1) % period) - self.held_from

    def rows(self, first: int, last: int) -> np.ndarray:
        """v_first, ..., v_last: a view of ``values`` where they are held, else gathered."""
        if first < self.held_from or last > self.horizon:
            span = first if first == last else f"{first}..{last}"
            raise IndexError(f"n = {span} outside the run's range [{self.n_first}, "
                             f"{self.horizon}], held from {self.held_from}")
        lo, hi = first - self.held_from, last - self.held_from + 1
        return (self.values[lo:hi] if hi <= len(self.values)
                else self.values[self._held(np.arange(first, last + 1))])

    @property
    def initial(self) -> np.ndarray:
        return self.rows(self.n_first, 0)

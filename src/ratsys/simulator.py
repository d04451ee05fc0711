"""Forward iteration of the rational system and its linear comparison system.

The update for component i of v_n is

    v_{n,i} = (sum_c a_ic * v_{n-k,c}) / (1 + sum_c sum_{j=1}^{k-1} q_ijc * v_{n-j,c})

evaluated in plain double precision with a fixed accumulation order: the
numerator starts from 0.0 and adds a_ic * v_{n-k,c} by ascending component
index c; the denominator starts from 1.0 and adds its terms grouped by
component, with delays ascending inside each group.  Pinning the order makes
runs bit-reproducible across platforms and lets the m = 2 path agree exactly
with a scalar evaluation of the two defining equations.  Two callers rely on
it: :func:`step` is one step of :func:`simulate`, and
``analysis.residual_linear`` recomputes A v_{n-k} in the numerator order, so
a denominator-free run has an exactly zero linear residual.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence

import numpy as np

from .model import (
    InitialConditions,
    SystemSpec,
    Trajectory,
    validate,
    validate_initial,
)


class Diverged(RuntimeError):
    """A step produced a non-finite value (expected under unbounded growth)."""

    def __init__(self, step: Optional[int] = None):
        self.step = step
        where = f" at step n = {step}" if step is not None else ""
        super().__init__(f"non-finite value produced{where}")


def _step_rows(a_rows, q_rows, window, m: int, k: int) -> List[float]:
    """One update on plain Python floats; ``window[j]`` is v_{n-k+j}."""
    v_delay = window[0]
    out = []
    for i in range(m):
        a_i = a_rows[i]
        num = 0.0
        for c in range(m):
            num += a_i[c] * v_delay[c]
        den = 1.0
        q_i = q_rows[i]
        for c in range(m):
            for j in range(1, k):
                den += q_i[j - 1][c] * window[k - j][c]
        out.append(num / den)
    return out


def step(spec: SystemSpec, window: Sequence[Sequence[float]]) -> np.ndarray:
    """Evaluate v_n from the previous k vectors v_{n-k}, ..., v_{n-1}.

    One step of :func:`simulate` with ``window`` as the initial conditions,
    so it validates the same way.  The denominator is at least 1, so the
    result is always defined for nonnegative finite input; overflow to a
    non-finite value raises :class:`Diverged`.
    """
    traj = simulate(spec, InitialConditions(window), 1)
    if traj.diverged_at is not None:
        raise Diverged()
    return traj.values[-1].copy()


def simulate(spec: SystemSpec, init: InitialConditions, horizon: int) -> Trajectory:
    """Iterate the rational system for ``horizon`` steps.

    Deterministic: identical inputs produce bit-identical trajectories.
    On overflow the partial trajectory up to the failing step is returned
    with ``diverged_at`` set instead of raising.
    """
    problems = validate(spec)
    if problems:
        raise ValueError("invalid system spec: " + "; ".join(problems))
    problems = validate_initial(init, spec)
    if problems:
        raise ValueError("invalid initial conditions: " + "; ".join(problems))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    m, k = spec.m, spec.k
    a_rows = spec.A.tolist()
    q_rows = spec.denom.tolist()
    values: List[List[float]] = [list(map(float, row)) for row in init.history]
    diverged_at = None
    for n in range(1, horizon + 1):
        out = _step_rows(a_rows, q_rows, values[-k:], m, k)
        if not all(math.isfinite(x) for x in out):
            diverged_at = n
            break
        values.append(out)
    return Trajectory(
        spec=spec,
        values=np.asarray(values),
        horizon=len(values) - k,
        diverged_at=diverged_at,
    )


def simulate_linear(a, k: int, init: InitialConditions, horizon: int) -> Trajectory:
    """Iterate the comparison system u_n = A u_{n-k}.

    Implemented as the rational system with all denominator coefficients
    zero, which shares the arithmetic of :func:`simulate` exactly, so that
    u_{kn+b} = A^n u_b holds step for step.
    """
    spec = SystemSpec(k=k, A=np.asarray(a, dtype=float), denom=None)
    return simulate(spec, init, horizon)

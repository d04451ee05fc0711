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

Two kernels evaluate it, bit for bit alike:

- :func:`simulate` (``_step_rows``) loops over one trajectory's terms on
  Python floats.  It serves single runs: ``ratsys simulate``, :func:`step`
  and :func:`simulate_linear`.
- :func:`simulate_batch` steps B trajectories at once in numpy.  It serves
  ``verify_classification``, which runs the witness and every random trial
  of ``ratsys verify`` and of each ``ratsys sweep`` cell as one batch.

Neither kernel can serve both kinds of traffic.  Numpy pays a fixed cost per
call, Python a cost per term.  Best of 3 on a 2-vCPU Intel Xeon VM:

    m = 16, k = 4, B = 5, horizon 2000:  simulate 1.17 s, simulate_batch 0.072 s
    m = 2,  k = 2, B = 1, horizon 1e5:   simulate 0.35 s, simulate_batch 0.81 s

The batched kernel keeps the order by the rule "accumulate, never reduce":
one ``np.multiply`` per side forms a step's terms along a term axis that
starts with the 0.0 or 1.0, and the sum is the last element of
``np.add.accumulate`` along that axis, which adds strictly left to right.
``np.sum``, ``np.add.reduce``, ``@``, ``dot`` and ``einsum`` may add
pairwise or in BLAS order, so they never compute a term sum here.
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


#: Largest value array, in bytes of float64, that one simulate or
#: simulate_batch call may allocate (B trajectories of k + horizon rows of
#: m values), and that a config's denominator array may take.
MAX_RUN_BYTES = 1 << 30


#: Steps between the batched kernel's checks for non-finite values.
_CHECK_EVERY = 64


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


def _validated(spec: SystemSpec, histories, horizon: int) -> List[InitialConditions]:
    """The histories as initial conditions, once spec, each history and size check out."""
    problems = validate(spec)
    if problems:
        raise ValueError("invalid system spec: " + "; ".join(problems))
    inits = [InitialConditions(h) for h in histories]
    for init in inits:
        problems = validate_initial(init, spec)
        if problems:
            raise ValueError("invalid initial conditions: " + "; ".join(problems))
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    check_run_size(len(inits), spec, horizon)
    return inits


def check_run_size(rows: int, spec: SystemSpec, horizon: int) -> None:
    """Refuse, before anything is allocated, ``rows`` runs over :data:`MAX_RUN_BYTES`."""
    size = rows * (int(spec.k) + int(horizon)) * spec.m * 8
    if size > MAX_RUN_BYTES:
        raise ValueError(
            f"{rows} x {spec.k + horizon} x {spec.m} trajectory values need {size} bytes, "
            f"more than the limit of {MAX_RUN_BYTES}"
        )


def simulate(spec: SystemSpec, init: InitialConditions, horizon: int) -> Trajectory:
    """Iterate the rational system for ``horizon`` steps.

    Deterministic: identical inputs produce bit-identical trajectories.
    On overflow the partial trajectory up to the failing step is returned
    with ``diverged_at`` set instead of raising.
    """
    (init,) = _validated(spec, [init.history], horizon)
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


def simulate_batch(spec: SystemSpec, histories: Sequence, horizon: int) -> List[Trajectory]:
    """:func:`simulate` of each (k, m) history in ``histories``, as one array.

    Every trajectory is bit-identical to what :func:`simulate` returns for
    its history, ``diverged_at`` and cut included.  The values live in one
    (B, k + horizon, m) array; each trajectory's values are a contiguous
    view of it.  Non-finite values are looked for every ``_CHECK_EVERY``
    steps, and the loop stops at the first look that finds every row
    diverged.
    """
    inits = _validated(spec, histories, horizon)
    rows, m, k = len(inits), spec.m, spec.k
    if not rows:
        return []
    values = np.empty((rows, k + horizon, m))
    for b, init in enumerate(inits):
        values[b, :k] = init.history
    # Term axis first, so one multiply fills all of a step's terms:
    # num_terms[:, b, i] is 0.0, then a_ic v_{n-k,c} by ascending c;
    # den_terms[:, b, i] is 1.0, then q_ijc v_{n-j,c} by ascending c and,
    # inside each c, ascending j.  The last accumulated term is the sum.
    num_terms = np.zeros((1 + m, rows, m))
    den_terms = np.ones((1 + m * (k - 1), rows, m))
    den_products = den_terms[1:].reshape(m, k - 1, rows, m, copy=False)
    num_sums, den_sums = np.empty_like(num_terms), np.empty_like(den_terms)
    a = np.ascontiguousarray(spec.A.T)[:, None, :]  # a_ic at [c, 0, i]
    q = np.ascontiguousarray(spec.denom.transpose(2, 1, 0))[:, :, None, :]  # q_ijc at [c, j - 1, 0, i]
    alive = np.ones(rows, dtype=bool)
    diverged_at: List[Optional[int]] = [None] * rows
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, horizon + 1):
            t = n + k - 1  # row of v_n
            np.multiply(a, values[:, t - k].T[:, :, None], out=num_terms[1:])
            recent = values[:, t - 1 : t - k : -1].transpose(2, 1, 0)  # v_{n-j,c} at [c, j - 1, b]
            np.multiply(q, recent[:, :, :, None], out=den_products)
            np.add.accumulate(num_terms, axis=0, out=num_sums)
            np.add.accumulate(den_terms, axis=0, out=den_sums)
            np.divide(num_sums[-1], den_sums[-1], out=values[:, t])
            if n % _CHECK_EVERY and n < horizon:
                continue
            # Rows never mix, so a row's first non-finite step can be found
            # after the fact; what a row computes past it is cut off.
            first = n - (n - 1) % _CHECK_EVERY
            finite = np.isfinite(values[:, first + k - 1 : t + 1]).all(axis=2)
            for b in np.flatnonzero(alive & ~finite.all(axis=1)):
                diverged_at[b] = first + int(np.argmin(finite[b]))
                alive[b] = False
            if not alive.any():
                break
    trajectories = []
    for b, at in enumerate(diverged_at):
        last = horizon if at is None else at - 1  # a diverged row ends before step ``at``
        trajectories.append(
            Trajectory(spec=spec, values=values[b, : k + last], horizon=last, diverged_at=at)
        )
    return trajectories


def simulate_linear(a, k: int, init: InitialConditions, horizon: int) -> Trajectory:
    """Iterate the comparison system u_n = A u_{n-k}.

    Implemented as the rational system with all denominator coefficients
    zero, which shares the arithmetic of :func:`simulate` exactly, so that
    u_{kn+b} = A^n u_b holds step for step.
    """
    spec = SystemSpec(k=k, A=np.asarray(a, dtype=float), denom=None)
    return simulate(spec, init, horizon)

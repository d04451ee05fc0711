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

Two kernels evaluate it, bit for bit alike; :func:`simulate_batch`, the one
entry point, picks one per call.  A call of at most :data:`MAX_LOOP_TERMS`
terms a step over its B histories (B m^2 k) runs a loop generated per spec,
which spells out every term with the coefficients as float literals and
steps each trajectory on Python floats; a larger call steps all B at once in
numpy.  :func:`simulate`, :func:`step` and :func:`simulate_linear` make calls
of one history, ``verify_classification`` one per verify run or sweep cell.
Microseconds a step, interleaved best of 9, horizon 2000, 2-vCPU Intel Xeon:

    m, k,  B (terms)   loop  numpy        m, k,  B (terms)   loop  numpy
    3, 3,  5   (135)    6.4   13.7        4, 4,  5   (320)    9.4   10.4
    2, 2, 21   (168)   12.0   16.5        2, 4, 21   (336)   16.6   17.5
    2, 2, 32   (256)   18.2   19.1        2, 2, 64   (512)   35.5   19.2
    8, 4,  1   (256)    9.2   12.8       16, 4,  1  (1024)   36.4   19.0

The crossover lies between 256 and 512 terms.  At m = 1 the loop's cost for
each row and step, about 0.2 us, dominates, so numpy wins from about 64 rows.

The loop steps each trajectory in blocks of :data:`_CHECK_EVERY` steps, each
resumed from the last k rows.  After a block it compares the bytes of the
last k rows with those of the k rows 2k before them.  When they match, the
rest of the horizon is copied from the last 2k rows instead of stepped.  The
copy is exact: a step is a pure function of the k-row state and of constant
coefficients, so a state that recurs is followed by the same rows again.
2k catches the limits the paper's tetrachotomy allows at rho <= 1, since
periods 1 (an exact zero), k and 2k all divide it; in double precision such
a limit is often reached bit for bit after a few hundred steps.  Bytes, not
``==``, decide, since ``==`` holds between -0.0 and 0.0.

The generated loop keeps the order because each sum is one ``+`` chain,
which Python evaluates left to right without rearranging float arithmetic.
The batched kernel keeps the order by the rule "accumulate, never reduce":
one ``np.multiply`` per side forms a step's terms along a term axis that
starts with the 0.0 or 1.0, and the sum is the last element of
``np.add.accumulate`` along that axis, which adds strictly left to right.
``np.sum``, ``np.add.reduce``, ``@``, ``dot`` and ``einsum`` may add
pairwise or in BLAS order, so they never compute a term sum here.
"""

from __future__ import annotations

import numbers
from functools import lru_cache
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


#: Steps between the batched kernel's checks for non-finite values, and
#: in a block of the generated loop, between its checks for a repeated state.
_CHECK_EVERY = 64


class Diverged(RuntimeError):
    """A step produced a non-finite value (expected under unbounded growth)."""

    def __init__(self, step: Optional[int] = None):
        self.step = step
        where = f" at step n = {step}" if step is not None else ""
        super().__init__(f"non-finite value produced{where}")


#: Most terms a step over all of a call's histories, B m^2 k (m numerator
#: and m (k - 1) denominator terms for each of m components of each of B
#: trajectories), that :func:`simulate_batch` runs in the generated loop;
#: the module docstring's table puts the kernels' crossover near it.  It
#: also bounds the loop's compile cost, about 1.3 kB a term (100 MB at
#: m = 16, k = 300), where numpy needs a few arrays of the spec's size.
MAX_LOOP_TERMS = 256


def _step_loop(spec: SystemSpec):
    """A function ``run(start, first, last, append)`` that steps ``spec`` on Python floats.

    ``start`` holds the k vectors v_{first-k}, ..., v_{first-1} flat, oldest
    first.  ``run`` steps n = first, ..., last, passes each v_n, component
    by component, to ``append`` and returns the first step n with a
    non-finite component (nothing of it is appended), or None; ``y - y !=
    0.0`` holds for an inf or nan y and no other.  Its source spells out
    every term of every component, with the window in local variables
    ``x{j}_{c}`` (v_{n-k+j}, component c) and each coefficient as the
    literal ``repr`` of its float.
    """
    k, m = spec.k, spec.m
    a, q = spec.A.tolist(), spec.denom.tolist()
    window = [f"x{j}_{c}" for j in range(k) for c in range(m)]
    outs = [f"y{i}" for i in range(m)]
    body = []
    for i in range(m):
        num = " + ".join(["0.0", *(f"{a[i][c]!r}*x0_{c}" for c in range(m))])
        den = " + ".join(["1.0", *(f"{q[i][j - 1][c]!r}*x{k - j}_{c}"
                                   for c in range(m) for j in range(1, k))])
        body.append(f"y{i} = ({num}) / ({den})")
    body += [
        "if " + " or ".join(f"{y} - {y} != 0.0" for y in outs) + ":",
        "    return n",
        *(f"append({y})" for y in outs),
        ", ".join(window) + " = " + ", ".join(window[m:] + outs),
    ]
    source = "\n".join([
        "def run(start, first, last, append):",
        "    " + ", ".join(window) + " = start",
        "    for n in range(first, last + 1):",
        *("        " + line for line in body),
        "    return None",
    ])
    return _compiled(source)


@lru_cache(maxsize=16)
def _compiled(source: str):
    """The function ``run`` that ``source`` defines, compiled once per source text.

    Repeated :func:`step` calls on one spec reuse it: the 10 000 steps of
    ``test_criterion_8_oracle_equivalence`` (50 a spec) take 1.1 s with
    this cache and 3.6 s without it on a 2-vCPU Intel Xeon VM.
    """
    namespace: dict = {}
    exec(compile(source, "<ratsys step loop>", "exec"), namespace)
    return namespace["run"]


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
    if not isinstance(horizon, numbers.Integral):
        raise ValueError(f"horizon must be an integer, not {type(horizon).__name__}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    check_run_size(len(inits), spec, horizon)
    return inits


def check_run_size(rows: int, spec: SystemSpec, horizon: int) -> None:
    """Refuse, before anything is allocated, ``rows`` runs over :data:`MAX_RUN_BYTES`."""
    size = rows * (spec.k + int(horizon)) * spec.m * 8
    if size > MAX_RUN_BYTES:
        raise ValueError(
            f"{rows} x {spec.k + horizon} x {spec.m} trajectory values need {size} bytes, "
            f"more than the limit of {MAX_RUN_BYTES}"
        )


def simulate(spec: SystemSpec, init: InitialConditions, horizon: int) -> Trajectory:
    """Iterate the rational system for ``horizon`` steps: :func:`simulate_batch` of one history.

    Deterministic: identical inputs produce bit-identical trajectories.
    On overflow the partial trajectory up to the failing step is returned
    with ``diverged_at`` set instead of raising.
    """
    (traj,) = simulate_batch(spec, [init.history], horizon)
    return traj


def simulate_batch(spec: SystemSpec, histories: Sequence, horizon: int) -> List[Trajectory]:
    """Iterate the rational system for ``horizon`` steps from each (k, m) history.

    At most :data:`MAX_LOOP_TERMS` terms a step over all histories (B m^2 k)
    run through the spec's generated loop, each into its own ``array('d')``;
    more run together in numpy.  Either way the trajectories are the same bit
    for bit, ``diverged_at`` and cut included, with read-only C-contiguous values.
    The loop stops stepping a trajectory once its k-row state repeats the
    one 2k rows before, and copies the rest (see the module docstring).
    """
    inits = _validated(spec, histories, horizon)
    if not inits:
        return []
    if len(inits) * spec.A.size * spec.k > MAX_LOOP_TERMS:
        return _simulate_numpy(spec, inits, horizon)
    from array import array  # a 0.1 MB extension module that a numpy-only run never loads

    run = _step_loop(spec)
    trajectories = []
    for init in inits:
        values = array("d", init.history.ravel().tolist())
        diverged_at = _run_blocks(run, values, spec, horizon)
        rows = np.frombuffer(values).reshape(-1, spec.m)
        trajectories.append(Trajectory(spec, rows, len(rows) - spec.k, diverged_at))
    return trajectories


def _run_blocks(run, values, spec: SystemSpec, horizon: int) -> Optional[int]:
    """Append v_1, ..., v_horizon to ``values`` with ``run``; the step it diverged at, or None.

    ``values`` starts as the k initial rows.  ``run`` steps
    ``_CHECK_EVERY`` steps a call from the last k rows.  When a block ends
    with the last k rows the bytes of the k rows 2k before them, every
    later row is the row 2k before it, so the rest of the horizon is
    filled by repeating the last 2k rows, ``_CHECK_EVERY`` periods a piece.
    """
    state = spec.k * spec.m
    for first in range(1, horizon + 1, _CHECK_EVERY):
        last = min(first + _CHECK_EVERY - 1, horizon)
        diverged_at = run(values[-state:], first, last, values.append)
        if diverged_at is not None:
            return diverged_at
        if (last < horizon and len(values) >= 3 * state
                and values[-state:].tobytes() == values[-3 * state : -2 * state].tobytes()):
            cycle = values[-2 * state:] * _CHECK_EVERY
            rest = (horizon - last) * spec.m
            for _ in range(rest // len(cycle)):
                values.extend(cycle)
            values.extend(cycle[: rest % len(cycle)])
            return None
    return None


def _simulate_numpy(spec: SystemSpec, inits, horizon: int) -> List[Trajectory]:
    """Validated ``inits`` stepped together; each trajectory views one (B, k + horizon, m) array.

    Non-finite values are looked for every ``_CHECK_EVERY`` steps, and the
    loop stops at the first look that finds every row diverged.
    """
    rows, m, k = len(inits), spec.m, spec.k
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

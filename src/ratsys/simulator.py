"""Forward iteration of the rational system.

The update for component i of v_n is

    v_{n,i} = (sum_c a_ic * v_{n-k,c}) / (1 + sum_c sum_{j=1}^{k-1} q_ijc * v_{n-j,c})

evaluated in plain double precision with a fixed accumulation order: the
numerator starts from 0.0 and adds a_ic * v_{n-k,c} by ascending component
index c; the denominator starts from 1.0 and adds its terms grouped by
component, with delays ascending inside each group.  Pinning the order makes
runs bit-reproducible across platforms and lets the m = 2 path agree exactly
with a scalar evaluation of the two defining equations.

Two kernels evaluate it, bit for bit alike; :func:`simulate_batch`, the one
entry point, picks one per call.  A call of B histories runs a loop generated
per spec, which spells out every nonzero term with the coefficients as float
literals and steps each trajectory on Python floats, when its count
B (m^2 k + :data:`ROW_TERMS`), the terms of a step plus a charge for each
history, is at most :data:`MAX_LOOP_TERMS`; a larger call steps all B at
once in numpy.  :func:`simulate` makes calls of one history,
``verify_classification`` one per verify run or sweep cell.  Microseconds a
step, best of 9 interleaved runs of each kernel in each of 3 processes,
horizon 2000, on orbits that reach no exact cycle (symmetric positive
kernels at rho = 0.99), 2-vCPU Intel Xeon, numpy 2.4, with the count in
parentheses:

    m, k,  B (count)   loop  numpy        m, k,  B (count)   loop  numpy
    2, 2,  5    (60)    2.2    7.8        1, 4, 38   (304)   10.2    7.5
    3, 3,  5   (155)    4.6    7.5        5, 4,  3   (312)    8.5    7.9
    2, 2, 16   (192)    6.8    8.7        1, 4, 40   (320)   10.7    7.4
    7, 4,  1   (200)    5.1    6.6        4, 4,  5   (340)    9.8    8.3
    2, 2, 21   (252)    8.8    9.0        3, 4,  9   (360)   11.5    8.2
    8, 4,  1   (260)    6.5    7.2        2, 2, 32   (384)   13.3   10.5
    4, 4,  4   (272)    9.2    8.8        1, 4, 48   (384)   12.1    7.3
    1, 2, 48   (288)    8.4    8.9        2, 4, 21   (420)   13.5   10.1
    6, 4,  2   (296)    8.2    8.3        2, 2, 64   (768)   29.6   13.4
    1, 2, 50   (300)    8.9    8.6       16, 4,  1  (1028)   24.7   10.0
    2, 2, 25   (300)   11.5   10.4       16, 4,  5  (5140)  155.6   16.4
   10, 3,  1   (304)    8.0   10.1

The loop's cost grows with the terms and with the histories, where
numpy's stays near 7-10 us a step up to a thousand terms.  The two
kernels cross near 270-300 terms, where :data:`MAX_LOOP_TERMS` lies: past
it numpy is faster, or within 2 %, on every call of the table but the one
history at m = 10, k = 3 (26 % slower), and up to it the loop is faster or
within 5 %.

Either kernel is handed to one driver, :func:`_drive`, which owns the
trajectories' values (one (B, rows, m) window), the index array of
those still live and the rule that ends one.  A kernel only steps: it
writes one block of :data:`_CHECK_EVERY` rows of each live trajectory's
window, resumed from its last k rows, and reports the first non-finite
row of each that has one.  After each block the driver tests all live
trajectories at once and ends one by one rule, in this order: at
its first non-finite step (it diverged); given ``tolerances``, at the
block by its growth or zero stop (below); or, when the bytes of its last
k rows match those of the k rows 2k before them, in an exact cycle.  Each
trajectory's ``end`` records the rule and its horizon.  An ended
trajectory leaves the live list, and stepping stops once none is left.
A cycled trajectory keeps its rows through the block in which its state
repeated and has the full horizon: every later row is the row 2k before
it, which ``Trajectory`` reads from the held rows, so nothing is copied
and the rows past the block are never written (only the written pages of
the window's map are resident).  That is exact: a step is a pure
function of the k-row state and of constant coefficients, so a state
that recurs is followed by the same rows again.
2k catches the limits the paper's tetrachotomy allows at rho <= 1, since
periods 1 (an exact zero), k and 2k all divide it; in double precision
such a limit is often reached bit for bit after a few hundred steps.
Bytes, not ``==``, decide, since ``==`` holds between -0.0 and 0.0.

Given ``tolerances`` (``verify_classification`` passes its own), the
driver also ends a trajectory at the last step of a check block in which
``analysis.rows_above``, the growth test of ``analysis.detect_unbounded``,
finds a row whose norm exceeds ``growth_threshold``: the growth stop.  A
block that diverges ends where it diverges, as without the stop.  The test
runs on every block, so a run ends with the block of its first crossing.
The stop is exact for ``analyze``: it tests growth first, and a row's
norm depends on that row alone, so the rows kept hold the same first
crossing, and the report names the same exit step, as the full run.

The zero stop ends a trajectory at the last step of a check block whose
last k rows, its state, are all at most ``zero_tol``.  It is on only when
``linalg.contraction_rate`` certifies the kernel, once per call: a rate
r < 1 such that any float evaluation of a numerator (A v)_i with
0 <= v <= T componentwise is at most r T + m 2^-1074.  A denominator
starts at 1.0 and adds nonnegative terms, so it is at least 1, and a
quotient then rounds to at most its numerator: a state at most T gives a
next row at most r T + m 2^-1074 <= T once m 2^-1074 <= (1 - r) T.  So
with T = zero_tol every later row stays at most zero_tol.  The stop also
needs 2 m 2^-1074 <= zero_tol (1 - r), which gives that last condition
with the rounding of its test, and n = 2 m zero_tol with
n <= growth_threshold and n^2 finite, so that a row with components at
most zero_tol has a computed norm at most n.  Every later row then
neither diverges nor passes the growth threshold, and ends below the zero
tolerance.  So ``analyze``, with the same tolerances, reports the cut run
as the full one: the same exit step when the kept rows pass the
threshold, else ``converged-to-zero``, since the kept state is at most
``zero_tol`` as the full run's last k rows are.  A kernel whose largest
row sum is 1 or more (every kernel with rho >= 1, and some with rho < 1),
or a ``zero_tol`` of 0, turns the zero stop off, and then it costs
nothing a block.  A call without ``tolerances`` gets the full horizon.

Given ``tolerances`` a call also holds only the rows ``analyze`` reads
(``analysis.rows_read``, at least the 3k of the cycle test), with room
for a block more and one per 8 held, at most k + horizon rows: a block
that does not fit first copies those rows of each live trajectory to its
window's front (under 8 rows a step).  Dropped rows never crossed the
growth threshold, so the report is unchanged.  :func:`check_run_size`
sizes that window, or all rows without ``tolerances``, and refuses by it.

The generated loop keeps the order because each sum is one ``+`` chain,
which Python evaluates left to right without rearranging float arithmetic.
The batched kernel forms each side's terms with one ``np.multiply``, along
a term axis that starts with the 0.0 or 1.0 (the numerators of k steps at
once, since their v_{n-k} are known), and adds that axis with
:func:`_ordered_sum`, the one place in this module that may reduce.
numpy documents no order for ``np.add.reduce``: over the first axis of
an array with more than one lane (element of the rest) it adds left to
right, but a single lane of more than a few terms it sums pairwise.  So the kernel, whenever it
builds its term arrays, probes numpy on their shapes
(:func:`_reduces_in_order`) and reduces only a shape that passes; it sums
any other shape with ``np.add.accumulate``, which adds strictly left to
right on every shape, and takes its last element.  ``sum``, ``@``,
``dot``, ``einsum`` and ``fsum`` may add pairwise, compensated or in BLAS
order, so this module calls none of them (tests/test_tooling.py checks
both rules).
"""

from __future__ import annotations

import mmap
import numbers
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .analysis import Tolerances, rows_above, rows_read
from .linalg import contraction_rate
from .model import (DIVERGED, EXACT_CYCLE, GROWTH_STOP, HORIZON, MAX_RUN_BYTES, ZERO_STOP,
                    InitialConditions, RunEnd, SystemSpec, Trajectory, validate_initial)


#: Steps in a block, which a kernel steps between the driver's checks for
#: non-finite values, for a growth or zero stop and for a repeated state.
_CHECK_EVERY = 64


#: Largest count B (m^2 k + ROW_TERMS) of a call of B histories that
#: :func:`simulate_batch` runs in the generated loop (m^2 k: m numerator and
#: m (k - 1) denominator terms for each of m components): the kernels'
#: crossover in the module docstring's table.  It also bounds the loop's
#: compile cost, about 1.3 kB a term, where numpy needs a few arrays of the
#: spec's size.
MAX_LOOP_TERMS = 288

#: The charge for each history of a call, in terms.  An earlier measurement
#: of the 2 x 2 and m = 1 calls fit the loop's cost a step as 0.07 us a term
#: plus 0.19 us a history, 2.5 terms.  With a charge of 4 the limit sends
#: m = 1 calls of more than 48 histories at k = 2 (36 at k = 4) to numpy.
ROW_TERMS = 4


def _step_loop(spec: SystemSpec):
    """A function ``run(out, start, steps)`` that steps ``spec`` on Python floats.

    ``out`` is one trajectory's window as a flat memoryview, m values a row.
    ``run`` writes its ``steps`` rows from row ``start`` on, each from the k
    before it, and returns the first row with a non-finite component
    (nothing of it is written), or None; ``y - y != 0.0`` holds for an inf
    or nan y and no other.  Its source spells out every nonzero term of
    every component, with the window in local variables ``x{j}_{c}``
    (v_{n-k+j}, component c) and each coefficient as the literal ``repr`` of
    its float.  A term whose coefficient is 0.0 or -0.0 is left out, which
    changes no bit: window values are finite and nonnegative or -0.0, so
    such a term is +-0.0; each sum starts from its literal 0.0 or 1.0 and so
    is never -0.0; and s + +-0.0 is s for any other s.
    """
    k, m = spec.k, spec.m
    a, q = spec.A.tolist(), spec.denom.tolist()
    window = [f"x{j}_{c}" for j in range(k) for c in range(m)]
    outs = [f"y{i}" for i in range(m)]
    body = []
    for i in range(m):
        num = " + ".join(["0.0", *(f"{a[i][c]!r}*x0_{c}" for c in range(m) if a[i][c])])
        den = " + ".join(["1.0", *(f"{q[i][j - 1][c]!r}*x{k - j}_{c}"
                                   for c in range(m) for j in range(1, k) if q[i][j - 1][c])])
        body.append(f"y{i} = ({num}) / ({den})")
    body += [
        "if " + " or ".join(f"{y} - {y} != 0.0" for y in outs) + ":",
        "    return t",
        *(f"out[i + {c}] = {y}" if c else f"out[i] = {y}" for c, y in enumerate(outs)),
        f"i += {m}",
        ", ".join(window) + " = " + ", ".join(window[m:] + outs),
    ]
    source = "\n".join([
        "def run(out, start, steps):",
        f"    i = start * {m}",  # the place of row start
        "    " + ", ".join(window) + f" = out[i - {k * m} : i]",
        "    for t in range(start, start + steps):",
        *("        " + line for line in body),
        "    return None",
    ])
    return _compiled(source)


@lru_cache(maxsize=16)
def _compiled(source: str):
    """The function ``run`` that ``source`` defines, compiled once per source text.

    A CLI run makes one call for each spec it builds (a sweep, one a cell),
    so the cache saves it nothing.  It serves the test suite's one-step
    helper, which calls :func:`simulate` on one spec many times: the
    10 000 steps of ``test_criterion_8_oracle_equivalence`` (50 a spec)
    take 1.1 s with it and 3.6 s without it on a 2-vCPU Intel Xeon VM.
    """
    namespace: dict = {}
    exec(compile(source, "<ratsys step loop>", "exec"), namespace)
    return namespace["run"]


def _validated(spec: SystemSpec, histories, horizon: int) -> List[InitialConditions]:
    """The histories as initial conditions, once they and the horizon check out (not the size)."""
    inits = [InitialConditions(h) for h in histories]
    for init in inits:
        problems = validate_initial(init, spec)
        if problems:
            raise ValueError("invalid initial conditions: " + "; ".join(problems))
    if type(horizon) is bool or not isinstance(horizon, numbers.Integral):
        raise ValueError(f"horizon must be an integer, not {type(horizon).__name__}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return inits


def check_run_size(rows: int, spec: SystemSpec, horizon: int,
                   tolerances: Optional[Tolerances] = None) -> Tuple[int, int]:
    """The one size rule of a call of ``rows`` runs: ``(hold, width)``, which :func:`_drive` maps.

    Each run holds ``hold`` rows behind its next block in ``width`` window rows, both k + horizon
    without ``tolerances``.  Refuses, before any allocation, windows over :data:`MAX_RUN_BYTES`.
    """
    k, horizon = spec.k, int(horizon)
    # rows held behind the next block: analyze's and the next cycle test's, or every row
    hold = k + horizon if tolerances is None else max(rows_read(horizon, k), 3 * k)
    # and a block per 8 held: a slide copies hold rows at most every hold / 8 steps
    width = min(hold + _CHECK_EVERY * (1 + hold // (8 * _CHECK_EVERY)), k + horizon)
    size = rows * width * spec.m * 8
    if size > MAX_RUN_BYTES:
        raise ValueError(f"{rows} x {width} x {spec.m} trajectory values need {size} bytes, "
                         f"more than the limit of {MAX_RUN_BYTES}")
    return hold, width


def simulate(spec: SystemSpec, init: InitialConditions, horizon: int) -> Trajectory:
    """Iterate the rational system for ``horizon`` steps: :func:`simulate_batch` of one history.

    Deterministic: identical inputs produce bit-identical trajectories.
    On overflow the partial trajectory up to the failing step is returned,
    its ``end`` reason ``diverged``, instead of raising.  A run that reaches
    an exact cycle stores its rows up to it once and reads on from them.
    """
    (traj,) = simulate_batch(spec, [init.history], horizon)
    return traj


def simulate_batch(
    spec: SystemSpec,
    histories: Sequence,
    horizon: int,
    *,
    tolerances: Optional[Tolerances] = None,
) -> List[Trajectory]:
    """Iterate the rational system for ``horizon`` steps from each (k, m) history.

    A call of B histories with B (m^2 k + :data:`ROW_TERMS`) at most
    :data:`MAX_LOOP_TERMS` is stepped by the spec's generated loop, one
    history at a time; a larger one together in numpy.  Either way
    :func:`_drive` stores the trajectories in one (B, rows, m) window
    and ends each by the module docstring's rule, so they are the same bit
    for bit, end record and cut included, with read-only C-contiguous
    values.  A trajectory that ends in an exact cycle stores its rows only
    through the block that found it; read it through ``Trajectory.rows``.

    Given ``tolerances``, a trajectory also ends at the last step of a
    check block in which a row's norm exceeds its ``growth_threshold`` (the
    growth test of ``analysis.detect_unbounded``), unless it diverged
    there, or after which every row is certified to stay at most its
    ``zero_tol``; only a kernel whose rows sum to less than 1 has the
    certificate.  It also holds only the rows ``analyze`` reads, from
    ``Trajectory.held_from`` on.  See the module docstring for why
    ``analyze``, with the same tolerances, reports such runs as it reports
    the full ones.
    """
    inits = _validated(spec, histories, horizon)
    loop = len(inits) * (spec.A.size * spec.k + ROW_TERMS) <= MAX_LOOP_TERMS
    return _drive(_loop_kernel if loop else _numpy_kernel, spec, inits, int(horizon), tolerances)


def _stops_below(spec: SystemSpec, tol: Tolerances) -> bool:
    """Whether the zero stop is on; the module docstring has the conditions and proof."""
    rate, norm = contraction_rate(spec.A), 2 * spec.m * tol.zero_tol
    return (rate is not None and 2 * spec.m * 2.0**-1074 <= tol.zero_tol * (1.0 - rate)
            and norm <= tol.growth_threshold and norm * norm < np.inf)


def _drive(make, spec: SystemSpec, inits, horizon: int, tolerances: Optional[Tolerances] = None):
    """Validated ``inits`` stepped by the kernel that ``make`` builds; one trajectory each.

    Trajectory b is ``values[b]`` of one (B, rows, m) window, whose row t
    holds v_{base + t + 1 - k}.  ``make(spec, values)`` returns
    ``step_block(live, start, steps)``, which writes ``steps`` rows from
    row ``start`` of each trajectory b in the index array ``live``, each
    from the k before, and returns ``{r: t}`` for each ``live[r]`` whose
    first non-finite row is t.  After each block the module docstring's
    rules, in its order and tested on all live rows at once, end
    trajectories, which leave ``live``; the first rule to claim one names
    its ``end``.  Whether the zero stop is on is decided once.  A block
    that does not fit first moves each live trajectory's last ``hold``
    rows to the front of its window; an ended one is not moved.
    """
    rows, m, k = len(inits), spec.m, spec.k
    if not rows:
        return []
    below = tolerances is not None and _stops_below(spec, tolerances)
    hold, width = check_run_size(rows, spec, horizon, tolerances)
    # A map of its own rather than a malloc block: glibc raises its mmap
    # threshold to each freed mapped block's size, so later blocks that size
    # come from the heap and stay resident once freed (0.2-0.4 MB more peak
    # RSS in a sweep of 320 kB cells), and numpy asks for huge pages on blocks
    # of 4 MB or more (2 MB resident at a row's first write).  A private map's
    # pages are resident only once written, and go back whole with its last view.
    region = mmap.mmap(-1, rows * width * m * 8, access=mmap.ACCESS_COPY)
    values = np.frombuffer(region).reshape(rows, width, m)
    flat = values.reshape(rows, -1)  # a row's copy within itself makes no temporary here
    for b, init in enumerate(inits):
        values[b, :k] = init.history
    step_block = make(spec, values)
    ends = [(HORIZON, horizon)] * rows  # why each trajectory ended, and the last step it stores
    base, bases, live = 0, [0] * rows, np.arange(rows)  # bases[b]: the base b's window holds
    for first in range(1, horizon + 1, _CHECK_EVERY):
        last = min(first + _CHECK_EVERY - 1, horizon)
        start, steps = first + k - 1 - base, last - first + 1  # window row of v_first
        if start + steps > width:  # move each live trajectory's last hold rows to the front
            for b in live.tolist():
                flat[b, : hold * m] = flat[b, (start - hold) * m : start * m]
                bases[b] += start - hold
            base, start = base + start - hold, hold
        # (reason, last stored step) by position in live: the first rule to claim one decides
        claims = {r: (DIVERGED, base + t - k) for r, t in step_block(live, start, steps).items()}
        if last < horizon:
            # each live trajectory's last 3k rows (fewer before step 2k); its state is the last k
            recent = values[:, max(start + steps - 3 * k, 0) : start + steps].take(live, axis=0)
            if tolerances is not None:
                # each crossing's trajectory, on Python ints (numpy's integer // or
                # np.unique would add 64 kB to 0.4 MB of peak RSS)
                new = values[:, start : start + steps].take(live, axis=0).reshape(-1, m)
                for h in rows_above(new, tolerances.growth_threshold).tolist():
                    claims.setdefault(h // steps, (GROWTH_STOP, last))
            if below:
                for r in (recent[:, -k:] <= tolerances.zero_tol).all(axis=(1, 2)).nonzero()[0]:
                    claims.setdefault(r, (ZERO_STOP, last))
            if last >= 2 * k:
                # each k rows as one item of their bytes: the state, and 2k rows before it
                states = recent.reshape(len(live), 3, k * m).view(np.dtype((np.void, 8 * k * m)))
                for r in (states[:, 2, 0] == states[:, 0, 0]).nonzero()[0]:
                    claims.setdefault(r, (EXACT_CYCLE, last))
        if claims:
            for r, end in claims.items():
                ends[live[r]] = end
            live = np.delete(live, list(claims))
        if last == horizon or not len(live):
            break
    return [Trajectory(spec=spec, values=values[b, : k + last - bases[b]],
                       end=RunEnd(why, horizon if why == EXACT_CYCLE else last),
                       held_from=bases[b] + 1 - k)
            for b, (why, last) in enumerate(ends)]


def _loop_kernel(spec: SystemSpec, values: np.ndarray):
    """The generated loop's ``step_block``: it runs each live trajectory in turn."""
    run = _step_loop(spec)
    flat = [memoryview(row.reshape(-1)) for row in values]

    def step_block(live, start, steps):
        diverged = {}
        for r, b in enumerate(live):
            at = run(flat[b], start, steps)
            if at is not None:
                diverged[r] = at
        return diverged

    return step_block


def _ordered_sum(terms: np.ndarray, out: np.ndarray, by_reduce: bool) -> None:
    """Write the sums of ``terms`` along axis 0 into ``out``; the one place this module reduces.

    With ``by_reduce``, ``np.add.reduce``, which adds left to right only on
    the shapes that :func:`_reduces_in_order` passes; else
    ``np.add.accumulate`` in place, which adds left to right on any shape
    and leaves ``terms[1:]`` overwritten, and a copy of its last element.
    """
    if by_reduce:
        np.add.reduce(terms, axis=0, out=out)
    else:
        np.add.accumulate(terms, axis=0, out=terms)
        out[...] = terms[-1]


def _reduces_in_order(shape) -> bool:
    """Whether ``np.add.reduce`` adds axis 0 of a float array of ``shape`` left to right.

    The probe's first term is 1.0 and every other term 2^-53, half an ulp
    of 1.0.  Added left to right, each sum rounds back to 1.0 (ties go to
    even), as accumulate's last element shows; any grouping that adds two
    small terms first gives more.  numpy documents no order for reduce.
    With one lane (one element after axis 0), it sums an axis of more than
    a few terms pairwise, and the probe fails.
    """
    terms = np.full(shape, 2.0**-53)
    terms[0] = 1.0
    reduced, accumulated = np.empty(shape[1:]), np.empty(shape[1:])
    _ordered_sum(terms, reduced, True)
    _ordered_sum(terms, accumulated, False)
    return bool((reduced == accumulated).all())


def _numpy_kernel(spec: SystemSpec, values: np.ndarray):
    """The numpy kernel's ``step_block``: it steps the live trajectories together.

    The live rows' last k rows are loaded from ``values`` into a (live,
    k + _CHECK_EVERY, m) buffer, whose next ``steps`` rows are then filled,
    each from the k before it.  The buffer, the coefficients tiled for every
    live row and the term arrays are built for one live count and rebuilt
    when it changes.  Each side's terms lie along a first axis that starts
    with the 0.0 or the 1.0, and :func:`_ordered_sum` adds that axis left
    to right into the side's own output array: by reduce if the probe that
    runs when the arrays are built passes the shape, else by accumulate in
    place (the first term stays, and the products are formed anew each
    time).  The v_{n-k} of the next k steps are all known, so one multiply
    and one sum form k numerators (at most a block's) at a time; the
    denominator, which needs v_{n-1}, takes one of each a step, against
    coefficients tiled to a contiguous (m, k - 1, live, m) array.
    Rows never mix, so a row's first non-finite step can be found after the
    block; what it computes past that step is cut off.
    """
    m, k = spec.m, spec.k
    a = np.ascontiguousarray(spec.A.T)[:, None, None, :]  # a_ic at [c, 0, 0, i]
    ahead = min(k, _CHECK_EVERY)  # numerators formed at a time
    # arrays built for the live count len(buf), and the views of them that a step uses
    buf = q = num_terms = den_terms = den_products = numerators = den_sum = None
    num_reduce = den_reduce = False  # whether each sum may reduce, probed on its shape

    def step_block(live, start, steps):
        nonlocal buf, q, num_terms, den_terms, den_products, numerators, den_sum
        nonlocal num_reduce, den_reduce
        rows = len(live)
        if buf is None or len(buf) != rows:
            # drop the old arrays first, so that the new ones can reuse their memory
            buf = q = num_terms = den_terms = den_products = numerators = den_sum = None
            buf = np.empty((rows, k + _CHECK_EVERY, m))
            # q_ijc at [c, j - 1, b, i] for every row b
            q = np.ascontiguousarray(np.broadcast_to(spec.denom.transpose(2, 1, 0)[:, :, None, :],
                                                     (m, k - 1, rows, m)))
            # Before each sum, num_terms[:, s, b, i] is 0.0, then a_ic v_{n+s-k,c}
            # by ascending c; den_terms[:, b, i] is 1.0, then q_ijc v_{n-j,c} by
            # ascending c and, inside each c, ascending j.
            num_terms = np.zeros((1 + m, ahead, rows, m))
            den_terms = np.ones((1 + m * (k - 1), rows, m))
            den_products = den_terms[1:].reshape(m, k - 1, rows, m, copy=False)
            numerators, den_sum = np.empty((ahead, rows, m)), np.empty((rows, m))
            num_reduce = _reduces_in_order(num_terms.shape)
            den_reduce = _reduces_in_order(den_terms.shape)
        buf[:, :k] = values[live, start - k : start]
        with np.errstate(over="ignore", invalid="ignore"):
            for s in range(0, steps, ahead):
                chunk = min(ahead, steps - s)
                delayed = buf[:, s : s + chunk].transpose(2, 1, 0)  # v_{n+s-k,c} at [c, s, b]
                np.multiply(a, delayed[:, :, :, None], out=num_terms[1:, :chunk])
                # all ahead sums, so that the shape summed is the one probed; those
                # past chunk add the products of an earlier chunk and are not read
                _ordered_sum(num_terms, numerators, num_reduce)
                for j in range(chunk):
                    t = k + s + j  # buffer row of v_n
                    recent = buf[:, t - 1 : t - k : -1].transpose(2, 1, 0)  # v_{n-j,c} at [c, j - 1, b]
                    np.multiply(q, recent[:, :, :, None], out=den_products)
                    _ordered_sum(den_terms, den_sum, den_reduce)
                    np.divide(numerators[j], den_sum, out=buf[:, t])
        block = buf[:, k : k + steps]
        values[live, start : start + steps] = block
        finite = np.isfinite(block).all(axis=2)
        return {r: start + int(np.argmin(finite[r])) for r in np.flatnonzero(~finite.all(axis=1))}

    return step_block

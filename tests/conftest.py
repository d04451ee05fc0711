"""Shared generators, independent oracles, probes and proof checks for the test suite.

The proof checks (the paper's Facts 1 and 2, the squared-norm envelope
chain, the domination inequality and the per-residue limits) and the
one-step evaluator ``step`` are read by tests only, so they live here
rather than in the package.
"""

import gc
import math
from typing import Tuple

import numpy as np
import pytest

from ratsys import InitialConditions, SystemSpec, simulator
from ratsys.linalg import EIG_TOL, MAX_POWER_ITERS, as_matrix, eig_symmetric, radius_side

#: Slack for the envelope and domination checks' inequalities.
INEQ_SLACK = 1e-12


@pytest.fixture(autouse=True)
def unfreeze_after_test():
    """Undo ``cli.main``'s ``gc.freeze()`` after each test, so its frozen objects can go.

    Without it, each in-process ``main`` call would pin every object then
    alive, earlier tests' garbage among them, for the rest of the session.
    """
    yield
    gc.unfreeze()


def symmetric_from(rng, m, low=0.0, high=1.0):
    b = rng.uniform(low, high, (m, m))
    return 0.5 * (b + b.T)


def symmetric_nonneg_with_rho(rng, m, rho):
    """Random symmetric nonnegative matrix rescaled to the given spectral radius."""
    while True:
        a = symmetric_from(rng, m, 0.0, 1.0)
        r = float(np.abs(np.linalg.eigvalsh(a)).max())
        if r > 1e-6:
            return a * (rho / r)


def symmetric_positive_with_rho(rng, m, rho):
    while True:
        a = symmetric_from(rng, m, 0.1, 1.0)
        a = np.maximum(a, 0.05)
        r = float(np.abs(np.linalg.eigvalsh(a)).max())
        if r > 1e-6:
            return a * (rho / r)


def symmetric_signed_with_rho(rng, m, rho):
    a = symmetric_from(rng, m, -1.0, 1.0)
    r = float(np.abs(np.linalg.eigvalsh(a)).max())
    while r <= 1e-6:
        a = symmetric_from(rng, m, -1.0, 1.0)
        r = float(np.abs(np.linalg.eigvalsh(a)).max())
    return a * (rho / r)


def rank_one_unit(rng, m):
    """Rank-one nonnegative symmetric matrix with spectral radius 1."""
    w = rng.uniform(0.2, 1.0, m)
    w = w / np.linalg.norm(w)
    return np.outer(w, w)


def random_spec(rng, m, k, rho, denom_range=(0.5, 1.5), positive=False):
    if positive:
        a = symmetric_positive_with_rho(rng, m, rho)
    else:
        a = symmetric_nonneg_with_rho(rng, m, rho)
    denom = rng.uniform(denom_range[0], denom_range[1], (m, k - 1, m))
    return SystemSpec(k=k, A=a, denom=denom)


def random_init(rng, k, m, init_max=10.0):
    return InitialConditions(rng.uniform(0.0, init_max, (k, m)))


def scalar_two_equation_step(k, beta, gamma, delta, epsilon, B, C, D, E,
                             x_hist, y_hist, x_delay, y_delay):
    """Independent evaluator of the two defining scalar equations (m = 2).

    ``x_hist[j-1]`` and ``y_hist[j-1]`` are x_{n-j} and y_{n-j} for
    j = 1..k-1; ``x_delay`` and ``y_delay`` are x_{n-k} and y_{n-k}.
    Terms accumulate in the written order of the equations: the delayed
    numerator pair, then the B-terms, then the C-terms (numerator and
    x-denominator), and likewise D then E for the y-denominator.
    """
    num_x = 0.0
    num_x += beta * x_delay
    num_x += gamma * y_delay
    den_x = 1.0
    for j in range(1, k):
        den_x += B[j - 1] * x_hist[j - 1]
    for j in range(1, k):
        den_x += C[j - 1] * y_hist[j - 1]
    num_y = 0.0
    num_y += delta * x_delay
    num_y += epsilon * y_delay
    den_y = 1.0
    for j in range(1, k):
        den_y += D[j - 1] * x_hist[j - 1]
    for j in range(1, k):
        den_y += E[j - 1] * y_hist[j - 1]
    return num_x / den_x, num_y / den_y


def oracle_step_from_spec(spec, window):
    """Drive the scalar oracle from a SystemSpec and a window of k vectors."""
    assert spec.m == 2
    k = spec.k
    a = spec.A
    q = spec.denom
    window = [np.asarray(v, dtype=float) for v in window]
    x_delay, y_delay = float(window[0][0]), float(window[0][1])
    x_hist = [float(window[k - j][0]) for j in range(1, k)]
    y_hist = [float(window[k - j][1]) for j in range(1, k)]
    return scalar_two_equation_step(
        k,
        float(a[0, 0]), float(a[0, 1]), float(a[1, 0]), float(a[1, 1]),
        [float(q[0, j - 1, 0]) for j in range(1, k)],
        [float(q[0, j - 1, 1]) for j in range(1, k)],
        [float(q[1, j - 1, 0]) for j in range(1, k)],
        [float(q[1, j - 1, 1]) for j in range(1, k)],
        x_hist, y_hist, x_delay, y_delay,
    )


def oracle_simulate(spec, history, horizon):
    """Independent loop over the update rule: (rows for n = 1-k .., diverged_at).

    The numerator starts from 0.0 and adds a_ic v_{n-k,c} by ascending c;
    the denominator starts from 1.0 and adds q_ijc v_{n-j,c} by ascending
    c, delays ascending inside each c.  The run stops before the first
    step with a non-finite component.
    """
    m, k = spec.m, spec.k
    a, q = spec.A.tolist(), spec.denom.tolist()
    rows = [[float(x) for x in row] for row in np.asarray(history)]
    for n in range(1, horizon + 1):
        out = []
        for i in range(m):
            num = 0.0
            for c in range(m):
                num += a[i][c] * rows[-k][c]
            den = 1.0
            for c in range(m):
                for j in range(1, k):
                    den += q[i][j - 1][c] * rows[-j][c]
            out.append(num / den)
        if not all(math.isfinite(y) for y in out):
            return np.array(rows), n
        rows.append(out)
    return np.array(rows), None


def count_blocks(monkeypatch):
    """(kernel, live rows, first, last) of every block the simulator steps from now on.

    ``kernel`` names the function that made the block's ``step_block``,
    ``"_loop_kernel"`` or ``"_numpy_kernel"``: the kernel that
    ``simulator._drive`` received.  A kernel sees window rows only; each
    block of a call steps on from the one before, from step 1, so its
    steps n are counted here.
    """
    blocks = []
    drive = simulator._drive

    def counting_drive(make, *args):
        def counting_make(spec, values):
            step_block = make(spec, values)
            done = 0  # the last step of the call's blocks so far

            def counted(live, start, steps):
                nonlocal done
                blocks.append((make.__name__, len(live), done + 1, done + steps))
                done += steps
                return step_block(live, start, steps)

            return counted

        return drive(counting_make, *args)

    monkeypatch.setattr(simulator, "_drive", counting_drive)
    return blocks


def oracle_jacobi(a0):
    """Cyclic Jacobi on numpy slices: (eigenvalues, row eigenvectors).

    The slice form of ``linalg._jacobi``, with the same rotations in the
    same order; the package rotates lists of Python floats and must match
    it bit for bit.
    """
    m = a0.shape[0]
    a = a0.copy()
    v = np.eye(m)
    fro = float(np.sqrt((a * a).sum()))
    if fro == 0.0:
        return np.zeros(m), v
    target = 1e-15 * fro
    for _ in range(50):
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


def left_to_right_products(rows, x):
    """Reference for ``linalg.ordered_products``: for each row, the sum of
    row[j] * x[j] with each product rounded and the terms added one at a
    time from j = 0, on plain Python floats."""
    out = []
    for row in rows:
        total = row[0] * x[0]
        for j in range(1, len(x)):
            total = total + row[j] * x[j]
        out.append(total)
    return out


def oracle_residual(dec, a):
    """max over i, j of |(A w_i)_j - lambda_i w_ij|, each (A w_i)_j summed left to right."""
    rows = np.asarray(a, dtype=float).tolist()
    return max(abs(y - lam * x)
               for lam, w in zip(dec.eigenvalues.tolist(), dec.eigenvectors.tolist())
               for y, x in zip(left_to_right_products(rows, w), w))


def oracle_power_iteration(a, shift):
    """Power iteration on a + shift I on plain Python floats, judged on a: (r, x) or None.

    Every sum of products (A x, x . A x and the squared norm) is a
    ``left_to_right_products`` sum; the stop rule is ``linalg``'s, a
    residual within 1e-14 max(1, |r|).
    """
    rows = np.asarray(a, dtype=float).tolist()
    m = len(rows)
    x = [1.0 / math.sqrt(m)] * m
    for _ in range(MAX_POWER_ITERS):
        y = left_to_right_products(rows, x)
        (r,) = left_to_right_products([x], y)
        if max(abs(y[i] - r * x[i]) for i in range(m)) <= 1e-14 * max(1.0, abs(r)):
            return r, x
        y = [y[i] + shift * x[i] for i in range(m)]
        norm = math.sqrt(left_to_right_products([y], y)[0])
        x = [v / norm for v in y]
    return None


def oracle_perron_pair(a):
    """``perron_pair`` of a strictly positive m >= 3 matrix whose largest entry
    lies in [2**-500, 2**500]: plain iteration, then the iteration shifted by
    the largest row sum, as numpy sums the rows."""
    pair = oracle_power_iteration(a, 0.0)
    if pair is None:
        pair = oracle_power_iteration(a, float(np.asarray(a).sum(axis=1).max()))
    return pair


def zero_init(k, m):
    """The all-zero history of k vectors of dimension m."""
    return InitialConditions(np.zeros((k, m)))


class Diverged(RuntimeError):
    """A step produced a non-finite value (expected under unbounded growth)."""

    def __init__(self, step=None):
        self.step = step
        where = f" at step n = {step}" if step is not None else ""
        super().__init__(f"non-finite value produced{where}")


def step(spec, window):
    """Evaluate v_n from the previous k vectors v_{n-k}, ..., v_{n-1}.

    One step of ``simulate`` with ``window`` as the initial conditions, so
    it validates the same way.  The denominator is at least 1, so the
    result is always defined for nonnegative finite input; overflow to a
    non-finite value raises :class:`Diverged`.
    """
    traj = simulator.simulate(spec, InitialConditions(window), 1)
    if traj.diverged_at is not None:
        raise Diverged()
    return traj.values[-1].copy()


class DegenerateProjectionError(ValueError):
    """A vector is numerically orthogonal to one of the eigenvectors."""


def check_fact1(a, v, big_l: int) -> Tuple[bool, bool]:
    """Norm non-expansion of powers of a symmetric matrix with radius 1 (Fact 1).

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
    """Unbounded growth of ||A^L v|| when the spectral radius exceeds 1 (Fact 2).

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


def envelope_check(traj, a) -> bool:
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
    vals = traj.rows(traj.n_first, traj.horizon)
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


def domination_check(traj, a, power_l: int, q: int) -> bool:
    """Componentwise A^q v_n <= A^{q+L} v_{n-kL} over all n >= max(kL, 1) of the run."""
    if power_l < 0 or q < 0:
        raise ValueError("L and q must be nonnegative")
    kernel = np.asarray(a, dtype=float)
    k = traj.k
    n_start = max(k * power_l, 1)
    if n_start > traj.horizon:
        raise ValueError("no indices n >= kL inside the horizon")
    aq = np.linalg.matrix_power(kernel, q)
    aql = np.linalg.matrix_power(kernel, q + power_l)
    lhs = traj.rows(n_start, traj.horizon) @ aq.T
    rhs = traj.rows(n_start - k * power_l, traj.horizon - k * power_l) @ aql.T
    return bool((lhs <= rhs + INEQ_SLACK).all())


def residue_limits(traj, period: int, samples: int = 10):
    """One estimated limit vector per residue class mod ``period``.

    Row a is the mean of the last ``samples`` values of the subsequence
    {v_n : n = a mod period}.
    """
    gen = traj.generated  # class a starts at generated row (a - 1) mod period
    return np.array([gen[(a - 1) % period :: period][-samples:].copy().mean(axis=0)
                     for a in range(period)])

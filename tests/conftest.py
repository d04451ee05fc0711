"""Shared generators, independent oracles and probes for the test suite."""

import math

import numpy as np

from ratsys import InitialConditions, SystemSpec, simulator


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
    ``simulator._drive`` received.
    """
    blocks = []
    drive = simulator._drive

    def counting_drive(make, *args):
        def counting_make(spec, values):
            step_block = make(spec, values)

            def counted(live, first, last):
                blocks.append((make.__name__, len(live), first, last))
                return step_block(live, first, last)

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

"""Special initial conditions: periodic, period-2k, and unbounded seeds.

All three constructions zero the history except the oldest vector
v_{1-k}.  With that pattern the denominators collapse to 1 along the
surviving residue class, the system runs exactly linearly there, and the
orbit of v_{1-k} under the kernel matrix determines the behavior.  At
m = 2 every nonnegative kernel is served by :func:`~ratsys.linalg.eig2`.
Each constructor checks the radius with :func:`~ratsys.linalg.radius_side`,
the rule the classifier's regime uses, so a seed is refused exactly when
the regime does not call for it.

:func:`uniform_draws` is the package's one source of random numbers.
"""

from __future__ import annotations

import operator
from typing import Iterator, List, Tuple, Union

import numpy as np

from .linalg import (
    EIG_TOL,
    RHO_TOL,
    eig2,
    eig_symmetric,
    ordered_products,
    perron_pair,
    radius_side,
)
from .model import InitialConditions, SystemSpec

#: Entropy of :func:`uniform_draws` for the randomized tail of the unbounded-seed cascade.
_CANDIDATE_RNG_SEED = 1093

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _entropy_words(entropy: Union[int, Tuple[int, ...]]) -> List[int]:
    """``entropy`` as SeedSequence's 32-bit words, least significant first per int."""
    words = []
    for part in entropy if isinstance(entropy, tuple) else (entropy,):
        if isinstance(part, bool) or part is None:
            raise TypeError(f"entropy must be a nonnegative int or a tuple of them, got {part!r}")
        n = operator.index(part)  # a TypeError for floats, strings and numpy bools
        if n < 0:
            raise ValueError(f"entropy must be nonnegative, got {n}")
        words.append(n & _M32)
        while n > _M32:
            n >>= 32
            words.append(n & _M32)
    return words


def uniform_draws(entropy: Union[int, Tuple[int, ...]], high: float, count: int) -> List[float]:
    """``count`` doubles uniform on [0, high): ``numpy.random.default_rng(entropy)
    .uniform(0.0, high, count)`` bit for bit, in pure Python.

    SeedSequence's hash mixing (pool of four words) makes two 128-bit words
    that seed PCG64, and each draw is the XSL-RR output's top 53 bits scaled
    by ``high``.  A tuple of ints is the entropy ``SeedSequence([...])``
    takes.  ``None`` and bools raise TypeError (numpy reads ``None`` as OS
    entropy), and so do other non-integers; negative ints raise ValueError.
    """
    words = _entropy_words(entropy)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state_words, hash_const = [], 0x8B51F9DD  # generate_state(4, np.uint64)
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state_words.append(value ^ value >> 16)
    u64 = [state_words[2 * j] | state_words[2 * j + 1] << 32 for j in range(4)]  # little-endian
    seed, inc = u64[0] << 64 | u64[1], (u64[2] << 64 | u64[3]) << 1 & _M128 | 1
    state = (inc + seed) * _PCG_MULT + inc & _M128  # from 0: step, add the seed, step
    out = []
    for _ in range(count):
        state = state * _PCG_MULT + inc & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        out.append(0.0 + high * ((x >> 11) * 2.0 ** -53))  # numpy's low + range * u
    return out


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


def _candidates(m: int) -> Iterator[np.ndarray]:
    """All-ones, (1, 2, ..., m), then m random vectors, drawn only when reached."""
    yield np.ones(m)
    yield np.arange(1.0, m + 1.0)
    yield from np.array(uniform_draws(_CANDIDATE_RNG_SEED, 1.0, m * m)).reshape(m, m)


def construct_unbounded_seed(spec: SystemSpec, rho_tol: float = RHO_TOL) -> InitialConditions:
    """Seed whose orbit grows without bound when the spectral radius exceeds 1.

    Picks the first candidate start vector with nonzero projection on
    every eigenvector of A^T, i.e. nonzero coordinates in A's eigenbasis
    (all-ones, then (1, 2, ..., m), then m fixed-seed random nonnegative
    vectors).  Along the surviving residue class the orbit is
    A^{L+1} v_{1-k}, which is unbounded by the spectral gap.  Beyond
    m = 2 the kernel must be symmetric, so that A^T has A's eigenvectors.
    Each projection is :func:`~ratsys.linalg.ordered_products`' sum by
    ascending index.
    """
    a = spec.A
    dec = eig2(a.T) if spec.m == 2 else eig_symmetric(a)
    if radius_side(dec.spectral_radius, rho_tol) != 1:
        raise ValueError(
            f"spectral radius must exceed 1, got {dec.spectral_radius!r}"
        )
    rows = dec.eigenvectors.tolist()
    for cand in _candidates(spec.m):
        projections = ordered_products(rows, cand.tolist())
        if all(abs(p) > EIG_TOL for p in projections):
            return InitialConditions.impulse(spec.k, cand)
    raise SeedConstructionError(
        "no candidate start vector has nonzero projection on every eigenvector"
    )

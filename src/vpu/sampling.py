"""Seeded randomness: a portable counter-based PRNG, Beta/Gamma sampling and
mini-batch sampling.

The generator is SplitMix64 run in counter mode: output i is
``mix64(seed + (i+1) * 0x9E3779B97F4A7C15)`` where ``mix64`` is the standard
SplitMix64 finalizer.  The algorithm is fixed and documented so that golden
values are reproducible across implementations and platforms.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import Batch

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class Rng:
    """Deterministic 64-bit counter-based generator (SplitMix64 outputs).

    Identical seed and call sequence give identical outputs.  Workers must
    not share an instance; derive child streams as ``Rng(seed + index)``.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0
        self._cached_normal: float | None = None

    def next_u64(self) -> int:
        self.counter += 1
        return _mix64((self.seed + self.counter * _GOLDEN) & _MASK64)

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def uniform_open(self) -> float:
        """One double strictly inside (0, 1); safe under log()."""
        return ((self.next_u64() >> 12) + 0.5) * 2.0**-52

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("randbelow requires n >= 1")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % n)
        while True:
            x = self.next_u64()
            if x < limit:
                return x % n

    def normal(self) -> float:
        """Standard normal via Box-Muller; the second value is cached."""
        if self._cached_normal is not None:
            z = self._cached_normal
            self._cached_normal = None
            return z
        u1 = self.uniform_open()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._cached_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)


def sample_gamma(shape: float, rng: Rng) -> float:
    """One Gamma(shape, 1) draw via Marsaglia-Tsang squeeze.

    Shapes below 1 use the boost ``Gamma(shape) = Gamma(shape+1) * U^(1/shape)``.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError("gamma shape must be positive and finite")
    if shape < 1.0:
        return sample_gamma(shape + 1.0, rng) * rng.uniform_open() ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            continue
        u = rng.uniform_open()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_beta(alpha: float, rng: Rng) -> float:
    """One Beta(alpha, alpha) draw as a ratio of two Gamma variates."""
    if not 0.0 < alpha < math.inf:
        raise ValueError("beta shape must be positive and finite")
    while True:
        g1 = sample_gamma(alpha, rng)
        g2 = sample_gamma(alpha, rng)
        total = g1 + g2
        if total > 0.0 and 0.0 < g1 < total:
            return g1 / total


def _outputs(rng: Rng, k: int) -> np.ndarray:
    """The next `k` outputs of `rng` as uint64, without advancing it."""
    z = np.arange(rng.counter + 1, rng.counter + k + 1, dtype=np.uint64)
    z = np.uint64(rng.seed) + z * np.uint64(_GOLDEN)  # wraps mod 2^64
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _randbelow_each(rng: Rng, bounds: np.ndarray) -> np.ndarray:
    """``[rng.randbelow(b) for b in bounds]`` as uint64, bit for bit, leaving
    `rng` where that loop leaves it.  Draws are vectorised up to the first
    rejected one; the loop takes over from there."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    x = _outputs(rng, bounds.size)
    # randbelow accepts x < 2^64 - (2^64 mod b), i.e. x <= 2^64 - 1 - (2^64 mod b)
    top = np.uint64(_MASK64)
    rejected = np.flatnonzero(x > top - (top % bounds + np.uint64(1)) % bounds)
    k = int(rejected[0]) if rejected.size else bounds.size
    out = x % bounds
    rng.counter += k
    for i in range(k, bounds.size):
        out[i] = rng.randbelow(int(bounds[i]))
    return out


def sample_indices(n: int, size: int, rng: Rng) -> np.ndarray:
    """`size` indices into [0, n): without replacement when size <= n
    (partial Fisher-Yates), with replacement otherwise.  Each index takes
    one ``rng.randbelow`` draw, in order."""
    if n <= 0:
        raise ValueError("empty pool")
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if size > n:
        return _randbelow_each(rng, np.full(size, n)).astype(np.intp)
    steps = np.arange(size, dtype=np.intp)
    swaps = (steps + _randbelow_each(rng, n - steps).astype(np.intp)).tolist()
    idx = list(range(n))
    for i, j in enumerate(swaps):
        idx[i], idx[j] = idx[j], idx[i]
    return np.array(idx[:size], dtype=np.intp)


def shuffled_indices(n: int, rng: Rng) -> np.ndarray:
    return sample_indices(n, n, rng)


def sample_minibatch(pool: np.ndarray, size: int, rng: Rng, origin: str) -> Batch:
    """Draw a mini-batch from `pool` (rows are feature vectors).

    Deterministic given the rng state; see `sample_indices` for the
    with/without replacement rule.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError("pool must be a nonempty 2-D array")
    idx = sample_indices(pool.shape[0], size, rng)
    return Batch(features=pool[idx], origin=origin)

"""Seeded randomness: a portable counter-based PRNG, Beta/Gamma sampling and
mini-batch sampling.

The generator is SplitMix64 run in counter mode: output i is
``mix64(seed + (i+1) * 0x9E3779B97F4A7C15)`` where ``mix64`` is the standard
SplitMix64 finalizer.  The algorithm is fixed and documented so that golden
values are reproducible across implementations and platforms.

Output i is a pure function of the seed and i, so any run of outputs can be
computed in one numpy call (`_outputs`) and consumed in order.  Every
sampler here and in `data`, `model` and `oracle` draws in such blocks, and
leaves ``Rng.counter`` (and the cached Box-Muller normal) exactly where
one-draw-at-a-time code would, so outputs do not depend on the block sizes.
"""

from __future__ import annotations

import math

import numpy as np

from .losses import Batch

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 64  # outputs mixed at once for the scalar draws of `Rng.next_u64`


class Rng:
    """Deterministic 64-bit counter-based generator (SplitMix64 outputs).

    Identical seed and call sequence give identical outputs.  Workers must
    not share an instance; derive child streams as ``Rng(seed + index)``.
    ``counter`` is the number of outputs consumed; code that takes outputs
    with `_take` advances it past them.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self.counter = 0
        self._cached_normal: float | None = None
        self._block: list[int] = []  # outputs _block_at + 1, _block_at + 2, ...
        self._block_at = 0

    def next_u64(self) -> int:
        i = self.counter - self._block_at
        if not 0 <= i < len(self._block):
            self._block = _outputs(self, _BLOCK).tolist()
            self._block_at = self.counter
            i = 0
        self.counter += 1
        return self._block[i]

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

    def normals(self, n: int, pairs: np.ndarray | None = None) -> np.ndarray:
        """`n` draws of `normal`, bit for bit: the cached value first, then
        Box-Muller pairs (cos, sin), the last sine cached when one is left.

        `pairs` holds the pairs' outputs (u1, u2, u1, u2, ...) when the
        caller has taken them from the stream itself, interleaved with other
        draws; it must hold ``_pairs_needed(n, cached)`` pairs.  Without it
        they are taken here.  ``math.log``, ``math.cos`` and ``math.sin`` are
        applied per element: numpy's versions differ from them in the last
        bit for some inputs.
        """
        k = _pairs_needed(n, self._cached_normal is not None)
        if pairs is None:
            pairs = _take(self, 2 * k)
        u1 = ((pairs[0::2] >> np.uint64(12)) + 0.5) * 2.0**-52
        u2 = _as_uniform(pairs[1::2])
        r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, k))
        theta = (2.0 * math.pi * u2).tolist()
        cos = r * np.fromiter(map(math.cos, theta), np.float64, k)
        sin = r * np.fromiter(map(math.sin, theta), np.float64, k)
        z = np.column_stack((cos, sin)).ravel()
        if self._cached_normal is not None:
            z = np.concatenate(([self._cached_normal], z))
        self._cached_normal = float(z[n]) if z.size > n else None
        return z[:n]


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


# the SplitMix64 constants as numpy scalars, built once rather than per call
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MUL1, _MUL2 = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)
_SHIFT27, _SHIFT30, _SHIFT31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _outputs(rng: Rng, k: int) -> np.ndarray:
    """The next `k` outputs of `rng` as uint64, without advancing it."""
    z = np.arange(rng.counter + 1, rng.counter + k + 1, dtype=np.uint64)
    z *= _GOLDEN_U64  # uint64 arithmetic wraps mod 2^64
    z += np.uint64(rng.seed)
    z ^= z >> _SHIFT30
    z *= _MUL1
    z ^= z >> _SHIFT27
    z *= _MUL2
    z ^= z >> _SHIFT31
    return z


def _take(rng: Rng, k: int) -> np.ndarray:
    """The next `k` outputs of `rng` as uint64, advancing it past them."""
    x = _outputs(rng, k)
    rng.counter += k
    return x


def _pairs_needed(n, cached: bool):
    """How many Box-Muller pairs `n` draws of `Rng.normal` take, with or
    without a cached normal to start from (`n` may be an int array)."""
    return (n - int(cached) + 1) // 2


def _as_uniform(x: np.ndarray) -> np.ndarray:
    """What `Rng.uniform` makes of each output in `x`."""
    return (x >> np.uint64(11)) * 2.0**-53


def _uniforms(rng: Rng, k: int) -> np.ndarray:
    """``[rng.uniform() for _ in range(k)]``, bit for bit, in one block."""
    return _as_uniform(_take(rng, k))


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

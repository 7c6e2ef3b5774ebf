"""Seeded randomness: a portable counter-based PRNG, Beta/Gamma sampling and
mini-batch sampling.

The generator is SplitMix64 run in counter mode: output i is
``mix64(seed + (i+1) * 0x9E3779B97F4A7C15)`` where ``mix64`` is the standard
SplitMix64 finalizer.  The algorithm is fixed and documented so that golden
values are reproducible across implementations and platforms.

Output i is a pure function of the seed and i, so any run of outputs can be
mixed in one numpy call and consumed in order: `_take` takes the next run
of one stream, and `_take_lockstep` the next runs of many streams (the
oracle's trials), each at its own counter.  Bounded integers reject biased
outputs by one rule, `_accepts`.  The samplers here and in `data`, `model`
and `oracle` draw in such blocks, and leave ``Rng.counter`` (and the cached
Box-Muller normal) exactly where one-draw-at-a-time code would, so outputs
do not depend on the block sizes.  `Rng.next_u64` mixes one output at a
time; `sample_gammas`, the one Marsaglia-Tsang loop, draws this way for
`sample_beta`, which needs only a few outputs per call.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB  # the finalizer's multipliers


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

    def next_u64(self) -> int:
        self.counter += 1
        z = (self.seed + self.counter * _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * 2.0**-53

    def normals(self, n: int, pairs: np.ndarray | None = None) -> np.ndarray:
        """`n` standard normals by Box-Muller: the cached value first, then
        pairs (cos, sin), the last sine cached when one is left.  A pair
        takes two outputs u1, u2: u1 as `_open` maps it, and u2 as
        `uniform` does.

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
        u1 = _open(pairs[0::2])
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


def sample_gammas(shape: float, n: int, rng: Rng) -> np.ndarray:
    """`n` Gamma(shape, 1) draws via the Marsaglia-Tsang squeeze, in order.

    Each attempt takes a normal (the cached Box-Muller sine, or a new pair
    of outputs as in `Rng.normals`) and, unless ``v <= 0`` rejects it at
    once, one uniform strictly inside (0, 1).  Shapes below 1 use the boost
    ``Gamma(shape) = Gamma(shape+1) * U^(1/shape)``, with one more such
    uniform after the accepted attempt.  Each output is taken from `rng` as
    it is needed, and a pair's sine is left as its cached normal.
    """
    if not 0.0 < shape < math.inf:
        raise ValueError("gamma shape must be positive and finite")
    boost = shape < 1.0
    d = (shape + 1.0 if boost else shape) - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        while True:
            x = rng._cached_normal
            if x is None:
                r = math.sqrt(-2.0 * math.log(_open(rng.next_u64())))
                theta = 2.0 * math.pi * rng.uniform()
                x, rng._cached_normal = r * math.cos(theta), r * math.sin(theta)
            else:
                rng._cached_normal = None
            v = (1.0 + c * x) ** 3
            if v <= 0.0:
                continue
            u = _open(rng.next_u64())
            if u < 1.0 - 0.0331 * x**4 or math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
                break
        out[i] = d * v * _open(rng.next_u64()) ** (1.0 / shape) if boost else d * v
    return out


# The smallest Beta shape `sample_beta` takes: as the shape falls, its Gamma
# variates underflow and a draw retries ever longer (about 40 us at 1e-3,
# 0.2 s at 1e-5, 47 s at 1e-6 on a 2-core Xeon); at 1e-300 it never returns.
MIN_BETA_SHAPE = 1e-3


def sample_beta(alpha: float, rng: Rng) -> float:
    """One Beta(alpha, alpha) draw as a ratio of two Gamma variates."""
    if not MIN_BETA_SHAPE <= alpha < math.inf:
        raise ValueError(f"beta shape must be finite and >= {MIN_BETA_SHAPE:g}")
    while True:
        g1, g2 = sample_gammas(alpha, 2, rng).tolist()
        total = g1 + g2
        if total > 0.0 and 0.0 < g1 < total:
            return g1 / total


# the SplitMix64 constants as numpy scalars, built once rather than per call
_GOLDEN_U64 = np.uint64(_GOLDEN)
_MUL1, _MUL2 = np.uint64(_MIX1), np.uint64(_MIX2)
_SHIFT27, _SHIFT30, _SHIFT31 = np.uint64(27), np.uint64(30), np.uint64(31)


def _mix(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on a uint64 array, in place."""
    z ^= z >> _SHIFT30
    z *= _MUL1  # uint64 arithmetic wraps mod 2^64
    z ^= z >> _SHIFT27
    z *= _MUL2
    z ^= z >> _SHIFT31
    return z


def _take(rng: Rng, k: int) -> np.ndarray:
    """The next `k` outputs of `rng` as uint64, advancing it past them."""
    z = np.arange(rng.counter + 1, rng.counter + k + 1, dtype=np.uint64)
    rng.counter += k
    z *= _GOLDEN_U64
    z += np.uint64(rng.seed)
    return _mix(z)


def _pairs_needed(n, cached: bool):
    """How many Box-Muller pairs `n` normals take, drawn one at a time or
    by `Rng.normals`, with or without a cached normal to start from (`n`
    may be an int array)."""
    return (n - int(cached) + 1) // 2


def _open(x):
    """An output (an int, or uint64 array) as a double strictly inside
    (0, 1), and so safe under log: ``((x >> 12) + 0.5) * 2^-52``."""
    return ((x >> 12) + 0.5) * 2.0**-52


def _as_uniform(x: np.ndarray) -> np.ndarray:
    """What `Rng.uniform` makes of each output in `x`."""
    return (x >> np.uint64(11)) * 2.0**-53


def _exponentials(x: np.ndarray) -> np.ndarray:
    """Unit exponentials ``-log(_open(x))``, one per output in `x`, each in
    about [1.1e-16, 36.7].  ``math.log`` is applied per element: numpy's
    log can differ from it in the last bit between hosts."""
    return -np.fromiter(map(math.log, _open(x).tolist()), np.float64, x.size)


def _accepts(x: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Whether each output in `x` gives an unbiased ``x % b`` for its bound:
    the rejection rule ``x < 2^64 - (2^64 mod b)``, written in uint64 as
    ``x <= 2^64 - 1 - (2^64 mod b)``.  A rejected output is skipped, and
    the bound takes the next one."""
    top = np.uint64(_MASK64)
    return x <= top - (top % bounds + np.uint64(1)) % bounds


def _randbelow_each(rng: Rng, bounds: np.ndarray) -> np.ndarray:
    """A uniform integer in [0, b) for each b in `bounds`, in order, as
    uint64: each bound takes outputs until `_accepts` keeps one.  Draws are
    vectorised up to the first rejected output, then, in one more call,
    from the one after it; a bound b rejects with probability below b/2^64."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    x = _take(rng, bounds.size)
    out = x % bounds
    rejected = np.flatnonzero(~_accepts(x, bounds))
    if rejected.size:
        k = int(rejected[0])
        rng.counter -= bounds.size - k - 1  # back to just past the rejected output
        out[k:] = _randbelow_each(rng, bounds[k:])
    return out


# -- many streams in lockstep ---------------------------------------------------------
#
# The oracle's property suites give each trial its own stream ``Rng(seed + t)``.
# Since output i of a stream is a pure function of (seed, i), one stage of
# every trial (say, its unit exponentials) can be mixed in one numpy call, each
# stream at its own counter.  Each function here leaves every rng where the
# one-stream draw it names leaves it.


def _take_lockstep(counts, rngs) -> np.ndarray:
    """The next ``counts[i]`` outputs of each ``rngs[i]`` (or `counts`
    outputs of each, given one int), concatenated as uint64, advancing each
    past them."""
    counts = np.broadcast_to(np.asarray(counts, dtype=np.intp), (len(rngs),))
    seeds = np.fromiter((r.seed for r in rngs), np.uint64, len(rngs))
    counters = np.fromiter((r.counter for r in rngs), np.uint64, len(rngs))
    owner = np.repeat(np.arange(len(rngs)), counts)
    # draw j of a stream (from 0) is its output counter + 1 + j
    z = np.arange(1, owner.size + 1, dtype=np.uint64)
    z += counters[owner]
    z -= (np.cumsum(counts) - counts).astype(np.uint64)[owner]
    z *= _GOLDEN_U64
    z += seeds[owner]
    for rng, k in zip(rngs, counts.tolist()):
        rng.counter += k
    return _mix(z)


def _randbelow_lockstep(bounds, rngs) -> np.ndarray:
    """``_randbelow_each(rng, [b])`` for each b and rng in `bounds` and
    `rngs`, as uint64.  A stream whose output is rejected (with probability
    below b/2^64) goes on alone in `_randbelow_each`."""
    bounds = np.asarray(bounds, dtype=np.uint64)
    if bounds.size and bounds.min() == 0:
        raise ValueError("randbelow requires n >= 1")
    x = _take_lockstep(1, rngs)
    out = x % bounds
    for i in np.flatnonzero(~_accepts(x, bounds)).tolist():
        out[i] = _randbelow_each(rngs[i], bounds[i:i + 1])[0]
    return out


def sample_indices(n: int, size: int, rng: Rng) -> np.ndarray:
    """`size` indices into [0, n): without replacement when size <= n
    (partial Fisher-Yates), with replacement otherwise.  Each index takes
    one bounded draw of `_randbelow_each`, in order."""
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


def sample_minibatch(pool: np.ndarray, size: int, rng: Rng) -> np.ndarray:
    """Draw a mini-batch of rows from `pool` (rows are feature vectors).

    Deterministic given the rng state; see `sample_indices` for the
    with/without replacement rule.
    """
    pool = np.asarray(pool, dtype=np.float64)
    if pool.ndim != 2 or pool.shape[0] == 0:
        raise ValueError("pool must be a nonempty 2-D array")
    idx = sample_indices(pool.shape[0], size, rng)
    return pool[idx]

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vpu import autodiff as ad
from vpu import losses as ls
from vpu import model as md
from vpu import sampling as sp

from reference import (ScalarRng, bits, normals_loop, same_state, sample_beta_loop,
                       sample_gamma_loop, sample_indices_loop)


class TestRng:
    def test_reproducible_stream(self):
        a = sp.Rng(42)
        b = sp.Rng(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_different_seeds_differ(self):
        assert sp.Rng(1).next_u64() != sp.Rng(2).next_u64()

    def test_uniform_range(self):
        rng = sp.Rng(7)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_uniform_open_strict(self):
        # the extreme outputs 0 and 2^64 - 1 as the Box-Muller u1: log(u1)
        # stays finite, so u1 lies strictly inside (0, 1)
        top = np.uint64(2**64 - 1)
        pairs = np.array([0, 0, top, top], dtype=np.uint64)
        z = sp.Rng(7).normals(4, pairs=pairs)
        assert np.isfinite(z).all() and z[2] != 0.0

    def test_randbelow_bounds(self):
        rng = ScalarRng(3)
        draws = [rng.randbelow(7) for _ in range(2000)]
        assert set(draws) == set(range(7))
        assert sp._randbelow_each(sp.Rng(3), np.full(2000, 7)).tolist() == draws

    def test_normal_moments(self):
        rng = sp.Rng(11)
        z = rng.normals(50_000)
        assert abs(z.mean()) < 0.02
        assert abs(z.std() - 1.0) < 0.02


class TestBeta:
    def test_mean_symmetric(self):
        rng = sp.Rng(0)
        draws = np.array([sp.sample_beta(0.3, rng) for _ in range(100_000)])
        assert draws.mean() == pytest.approx(0.5, abs=0.005)

    def test_variance_alpha_03(self):
        # Var Beta(a,a) = a^2 / ((2a)^2 (2a+1)) = 1 / (4 (2a+1))
        rng = sp.Rng(1)
        draws = np.array([sp.sample_beta(0.3, rng) for _ in range(100_000)])
        assert draws.var() == pytest.approx(1.0 / (4.0 * 1.6), abs=0.01)

    def test_support_strict(self):
        rng = sp.Rng(2)
        draws = [sp.sample_beta(0.3, rng) for _ in range(20_000)]
        assert all(0.0 < x < 1.0 for x in draws)

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 2.0])
    def test_kolmogorov_smirnov(self, alpha):
        rng = sp.Rng(123)
        draws = np.array([sp.sample_beta(alpha, rng) for _ in range(100_000)])
        result = stats.kstest(draws, stats.beta(alpha, alpha).cdf)
        assert result.pvalue > 0.001

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            sp.sample_beta(0.0, sp.Rng(0))

    @pytest.mark.parametrize("shape", [math.nan, math.inf])
    def test_rejects_non_finite_shape(self, shape):
        # a NaN shape used to make the rejection loop retry forever
        with pytest.raises(ValueError):
            sp.sample_beta(shape, sp.Rng(0))
        with pytest.raises(ValueError):
            sp.sample_gammas(shape, 1, sp.Rng(0))


class TestGamma:
    @pytest.mark.parametrize("shape", [0.3, 1.0, 4.5])
    def test_moments(self, shape):
        rng = sp.Rng(9)
        draws = sp.sample_gammas(shape, 60_000, rng)
        assert draws.mean() == pytest.approx(shape, rel=0.03)
        assert draws.var() == pytest.approx(shape, rel=0.05)


class TestMinibatch:
    def pool(self, n, d=2):
        return np.arange(n * d, dtype=float).reshape(n, d)

    def test_full_batch_is_permutation(self):
        pool = self.pool(8)
        batch = sp.sample_minibatch(pool, 8, sp.Rng(0))
        assert sorted(map(tuple, batch)) == sorted(map(tuple, pool))

    def test_single_element_pool(self):
        pool = self.pool(1)
        batch = sp.sample_minibatch(pool, 1, sp.Rng(0))
        np.testing.assert_array_equal(batch, pool)

    def test_reproducible(self):
        pool = self.pool(20)
        b1 = sp.sample_minibatch(pool, 5, sp.Rng(4))
        b2 = sp.sample_minibatch(pool, 5, sp.Rng(4))
        np.testing.assert_array_equal(b1, b2)

    def test_without_replacement_no_duplicates(self):
        pool = self.pool(30)
        batch = sp.sample_minibatch(pool, 30, sp.Rng(1))
        assert len({tuple(r) for r in batch}) == 30

    def test_oversized_batch_resamples(self):
        pool = self.pool(3)
        batch = sp.sample_minibatch(pool, 10, sp.Rng(2))
        assert len(batch) == 10

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            sp.sample_minibatch(np.zeros((0, 2)), 1, sp.Rng(0))


HALF = 2**63 + 1  # a bound that rejects about half of all outputs


def outputs_taken(bounds, rng) -> list[int]:
    """How many outputs each `ScalarRng.randbelow(b)` in turn takes."""
    taken = []
    for b in bounds:
        start = rng.counter
        rng.randbelow(b)
        taken.append(rng.counter - start)
    return taken


class TestSampleIndices:
    """The vectorised draws against the one-randbelow-per-index loop."""

    @pytest.mark.parametrize("n,size", [(2000, 500), (7, 3), (1, 1), (500, 500), (8, 8),
                                        (100, 500), (3, 10)])
    def test_matches_loop(self, n, size):
        for seed in range(5):
            fast, slow = sp.Rng(seed), ScalarRng(seed)
            fast.counter = slow.counter = 17 * seed
            got = sp.sample_indices(n, size, fast)
            want = sample_indices_loop(n, size, slow)
            assert got.dtype == want.dtype and np.array_equal(got, want), seed
            assert fast.counter == slow.counter

    def test_rejection_falls_back_to_loop(self):
        # a bound just above 2^63 rejects about half of all draws
        bounds = np.array([5, 2**63 + 1, 2**64 - 3, 9] * 10, dtype=np.uint64)
        fast, slow = sp.Rng(3), ScalarRng(3)
        got = sp._randbelow_each(fast, bounds)
        want = [slow.randbelow(int(b)) for b in bounds]
        assert [int(v) for v in got] == want
        assert fast.counter == slow.counter > bounds.size

    @pytest.mark.parametrize("bound", [1, 2, 3, 7, 2**63, 2**63 + 1, 2**64 - 1])
    def test_accepts_below_the_scalar_limit(self, bound):
        # the outputs on both sides of ScalarRng.randbelow's limit that exist
        limit = 2**64 - 2**64 % bound
        xs = [x for x in (0, limit - 2, limit - 1, limit, limit + 1, 2**64 - 1) if x < 2**64]
        got = sp._accepts(np.array(xs, dtype=np.uint64), np.full(len(xs), bound, np.uint64))
        assert got.tolist() == [x < limit for x in xs]

    @pytest.mark.parametrize("bounds, taken", [
        ([HALF, 5, 5, 5], [2, 1, 1, 1]),  # rejected at the first index
        ([5, 5, 5, HALF], [1, 1, 1, 2]),  # at the last index
        ([5, HALF, 5], [1, 3, 1]),  # twice for one index
        ([5, HALF, HALF, 5], [1, 2, 2, 1]),  # at two indices in a row
    ])
    def test_rejections_where_they_fall(self, bounds, taken):
        seed = next(s for s in range(1000) if outputs_taken(bounds, ScalarRng(s)) == taken)
        fast, slow = sp.Rng(seed), ScalarRng(seed)
        got = sp._randbelow_each(fast, bounds)
        assert got.tolist() == [slow.randbelow(b) for b in bounds]
        assert same_state(fast, slow)


def gamma_loop(shape, n, rng, events=None) -> np.ndarray:
    return np.array([sample_gamma_loop(shape, rng, events) for _ in range(n)], dtype=np.float64)


def streams(seed, m, moved=(), cached=()):
    """`m` pairs of equal streams (an `Rng` and a `ScalarRng`); counters in
    `moved` are set by hand, and streams in `cached` hold a cached normal."""
    fast = [sp.Rng(seed + i) for i in range(m)]
    slow = [ScalarRng(seed + i) for i in range(m)]
    for i in moved:
        fast[i].counter = slow[i].counter = 2**40 + 977 * i
    for i in cached:
        assert fast[i].normals(1)[0] == slow[i].normal()
    return fast, slow


class TestBlockDraws:
    """The block draws against one mixed output per draw."""

    @pytest.fixture
    def blocks(self, monkeypatch):
        """The sizes of the `_take` blocks mixed, in order."""
        sizes = []
        original = sp._take

        def counting(rng, k):
            sizes.append(k)
            return original(rng, k)

        monkeypatch.setattr(sp, "_take", counting)
        return sizes

    def test_scalar_draws_across_block_boundaries(self, blocks):
        fast, slow = sp.Rng(5), ScalarRng(5)
        n = 197
        assert [fast.next_u64() for _ in range(n)] == [slow.next_u64() for _ in range(n)]
        assert [fast.uniform() for _ in range(n)] == [slow.uniform() for _ in range(n)]
        assert fast.counter == slow.counter == 2 * n and blocks == []
        assert np.array_equal(bits(sp.sample_gammas(0.3, n, fast)), bits(gamma_loop(0.3, n, slow)))
        assert same_state(fast, slow)

    def test_counter_moved_by_hand(self):
        fast, slow = sp.Rng(8), ScalarRng(8)
        for start in (10, 3, 3 + 64, 2**40, 0):
            fast.counter = slow.counter = start
            assert [fast.next_u64() for _ in range(9)] == [slow.next_u64() for _ in range(9)]
            assert np.array_equal(bits(sp.sample_gammas(1.0, 9, fast)), bits(gamma_loop(1.0, 9, slow)))
            assert same_state(fast, slow)

    def test_after_randbelow_fall_back(self):
        bounds = np.array([5, 2**63 + 1, 2**64 - 3, 9] * 10, dtype=np.uint64)
        fast, slow = sp.Rng(3), ScalarRng(3)
        assert fast.next_u64() == slow.next_u64()
        got = sp._randbelow_each(fast, bounds)
        assert [int(v) for v in got] == [slow.randbelow(int(b)) for b in bounds]
        assert [fast.next_u64() for _ in range(100)] == [slow.next_u64() for _ in range(100)]
        assert same_state(fast, slow)

    def test_interleaved_with_block_takes(self):
        fast, slow = sp.Rng(11), ScalarRng(11)
        for k in (1, 7, 64, 129):
            assert [fast.next_u64() for _ in range(k)] == [slow.next_u64() for _ in range(k)]
            ahead = sp._take(fast, 3)  # looks ahead, then rewinds
            fast.counter -= 3
            taken = sp._take(fast, k)
            assert [int(v) for v in ahead[:k]] == [int(v) for v in taken[:3]]
            assert [int(v) for v in taken] == [slow.next_u64() for _ in range(k)]
            assert np.array_equal(bits(sp.sample_gammas(4.5, k, fast)), bits(gamma_loop(4.5, k, slow)))
            assert same_state(fast, slow)

    def test_uniforms_block(self):
        fast, slow = sp.Rng(2), ScalarRng(2)
        fast.uniform(), slow.uniform()
        assert np.array_equal(bits(sp._as_uniform(sp._take(fast, 300))),
                              bits([slow.uniform() for _ in range(300)]))
        assert same_state(fast, slow)

    @pytest.mark.parametrize("cached", [False, True])
    def test_normals_block(self, cached):
        fast, slow = sp.Rng(4), ScalarRng(4)
        if cached:
            assert fast.normals(1)[0] == slow.normal()
        for n in (0, 1, 2, 3, 4, 7, 1, 0, 130):
            assert np.array_equal(bits(fast.normals(n)), bits(normals_loop(slow, n))), n
            assert same_state(fast, slow), n

    @pytest.mark.parametrize("shape", [0.3, 1.0, 4.5])
    @pytest.mark.parametrize("cached", [False, True])
    def test_gamma_draws(self, shape, cached):
        # with a cached normal at entry the first attempt takes no pair;
        # normals between the calls move the cache in and out, so first
        # attempts start from a cached normal and from a fresh pair
        fast, slow = sp.Rng(12), ScalarRng(12)
        if cached:
            assert fast.normals(1)[0] == slow.normal()
        entries = set()
        for n in (0, 1, 2, 5, 64, 300):
            if n:
                entries.add(fast._cached_normal is not None)
            assert np.array_equal(bits(sp.sample_gammas(shape, n, fast)),
                                  bits(gamma_loop(shape, n, slow))), n
            assert same_state(fast, slow), n
            assert np.array_equal(bits(fast.normals(n % 3)), bits(normals_loop(slow, n % 3)))
            assert same_state(fast, slow), n
        assert entries == {False, True}

    def test_gamma_draws_from_many_states(self):
        # ragged counts with 0s and 1s, a cached normal at entry in every
        # second stream, counters moved by hand in every third
        events = Counter()
        counts = [0, 1, 1, 0, 2, 7, 1, 40, 0, 13, 3, 1] * 6
        m = len(counts)
        for k, shape in enumerate((0.05, 0.3, 1.0, 4.5, 40.0)):
            fast, slow = streams(100 * k, m, moved=range(0, m, 3), cached=range(0, m, 2))
            for i, n in enumerate(counts):
                want = gamma_loop(shape, n, slow[i], events)
                assert np.array_equal(bits(sp.sample_gammas(shape, n, fast[i])), bits(want)), (shape, i)
                assert same_state(fast[i], slow[i]), (shape, i)
        # both rare branches of the attempt were taken
        assert events["v<=0"] > 0 and events["log"] > 0, events

    def test_exponentials_at_the_extreme_outputs(self):
        # _open maps outputs 0 and 2^64 - 1 to 2^-53 and 1 - 2^-53
        e = sp._exponentials(np.array([0, 2**64 - 1], dtype=np.uint64))
        assert np.isfinite(e).all() and (e > 0).all()
        assert e.tolist() == [-math.log(2.0**-53), -math.log(1.0 - 2.0**-53)]
        assert 36.7 < e[0] < 36.8 and 1.1e-16 < e[1] < 1.2e-16

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 4.5])
    def test_beta_draws(self, alpha):
        fast, slow = sp.Rng(6), ScalarRng(6)
        for _ in range(200):
            assert sp.sample_beta(alpha, fast) == sample_beta_loop(alpha, slow)
            assert same_state(fast, slow)


class TestLockstep:
    """The many-stream draws against each stream drawn on its own."""

    def test_uniforms(self):
        counts = [3, 0, 1, 64, 0, 5]
        fast, slow = streams(7, len(counts), moved=[1, 3], cached=[2])
        assert sp._as_uniform(sp._take_lockstep(1, fast)).tolist() == [r.uniform() for r in slow]
        got = np.split(sp._as_uniform(sp._take_lockstep(counts, fast)), np.cumsum(counts)[:-1])
        for g, n, rng in zip(got, counts, slow):
            assert np.array_equal(bits(g), bits([rng.uniform() for _ in range(n)]))
        assert all(same_state(a, b) for a, b in zip(fast, slow))

    def test_randbelow_with_rejections(self):
        # a bound just above 2^63 rejects about half of all draws
        bounds = [5, 2**63 + 1, 2**64 - 3, 9, 1] * 8
        fast, slow = streams(3, len(bounds), moved=[4, 6])
        start = [r.counter for r in fast]
        got = sp._randbelow_lockstep(bounds, fast)
        want = [rng.randbelow(b) for b, rng in zip(bounds, slow)]
        assert [int(v) for v in got] == want
        assert all(same_state(a, b) for a, b in zip(fast, slow))
        assert sum(r.counter for r in fast) - sum(start) > len(bounds)  # some fell back
        with pytest.raises(ValueError):
            sp._randbelow_lockstep([3, 0], [sp.Rng(0), sp.Rng(1)])

    def test_randbelow_rejected_twice(self):
        # the middle stream is rejected twice in a row, then goes on alone
        twice = next(s for s in range(1000) if outputs_taken([HALF], ScalarRng(s)) == [3])
        bounds, seeds = [5, HALF, 9], [twice + 1, twice, twice + 2]
        fast = [sp.Rng(s) for s in seeds]
        slow = [ScalarRng(s) for s in seeds]
        got = sp._randbelow_lockstep(bounds, fast)
        assert got.tolist() == [rng.randbelow(b) for b, rng in zip(bounds, slow)]
        assert all(same_state(a, b) for a, b in zip(fast, slow))
        assert [r.counter for r in fast] == [1, 3, 1]


@pytest.fixture(scope="module")
def small_model():
    return md.init(md.MlpArchitecture(2, (4,), "tanh"), seed=0)


class TestMixupPairs:
    """The positive/unlabeled pairs that `losses.mixup_consistency_reg`
    builds, caught on their way into its penalty, and the penalty at the
    endpoints gamma 0 and 1."""

    def batches(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 2)), rng.normal(size=(n, 2))

    @staticmethod
    def reg(model, xp, xu, gamma, variant="msle_mixup_pu"):
        theta = model.params
        return ls.mixup_consistency_reg(model, theta, xp, xu, model.raw(theta, xu),
                                        gamma, variant)

    def pairs(self, model, xp, xu, gamma):
        """(x_mix, target) of the msle_mixup_pu regularizer: the rows of its
        last forward, and the argument of its penalty's first log."""
        forwards, logs = [], []
        raw, log = type(model).raw, ad.log

        def raw_capture(self, theta, x):
            forwards.append(x)
            return raw(self, theta, x)

        def log_capture(a):
            logs.append(a)
            return log(a)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(type(model), "raw", raw_capture)
            mp.setattr(ad, "log", log_capture)
            self.reg(model, xp, xu, gamma)
        assert len(logs) == 2  # log target - log phi(x_mix)
        return forwards[-1], logs[0].value

    def test_gamma_one_endpoint(self, small_model):
        xp, xu = self.batches()
        x_mix, t = self.pairs(small_model, xp, xu, 1.0)
        np.testing.assert_array_equal(x_mix, xp)
        np.testing.assert_array_equal(t, np.ones(len(xp)))
        # target 1 at every positive: the penalty is mean (log phi(p))^2
        reg = self.reg(small_model, xp, xu, 1.0)
        expected = np.mean(np.log(small_model.raw_values(xp)) ** 2)
        assert float(reg.value) == pytest.approx(expected, rel=1e-14)

    def test_gamma_zero_endpoint(self, small_model):
        xp, xu = self.batches()
        x_mix, t = self.pairs(small_model, xp, xu, 0.0)
        np.testing.assert_array_equal(x_mix, xu)
        np.testing.assert_array_equal(t, small_model.raw_values(xu))
        # target phi(u) at u itself: no penalty in either residual
        for variant in ("msle_mixup_pu", "mse_mixup_pu"):
            reg = self.reg(small_model, xp, xu, 0.0, variant)
            assert float(reg.value) == 0.0

    def test_guessed_target_value(self, small_model):
        # gamma 0.3 and phi(x'') = 0.5 gives 0.3 + 0.7*0.5 = 0.65
        xp, xu = self.batches(n=1)
        phi_u = float(small_model.raw_values(xu)[0])
        _, t = self.pairs(small_model, xp, xu, 0.3)
        assert t[0] == pytest.approx(0.3 + 0.7 * phi_u, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), seed=st.integers(0, 100))
    def test_target_dominates_unlabeled_phi(self, gamma, seed, small_model):
        xp, xu = self.batches(seed=seed)
        _, t = self.pairs(small_model, xp, xu, gamma)
        phi_u = small_model.raw_values(xu)
        assert np.all(t >= phi_u - 1e-15)
        if gamma > 0:
            assert np.all(t[phi_u < 1.0] > phi_u[phi_u < 1.0] - 1e-15)

    @settings(max_examples=50, deadline=None)
    @given(gamma=st.floats(0.0, 1.0), seed=st.integers(0, 100))
    def test_mixed_point_on_segment(self, gamma, seed, small_model):
        xp, xu = self.batches(seed=seed)
        x_mix, _ = self.pairs(small_model, xp, xu, gamma)
        lo = np.minimum(xp, xu) - 1e-12
        hi = np.maximum(xp, xu) + 1e-12
        assert np.all((x_mix >= lo) & (x_mix <= hi))

    def test_size_mismatch_rejected(self, small_model):
        xp, _ = self.batches(n=4)
        _, xu = self.batches(n=5)
        with pytest.raises(ValueError):
            self.reg(small_model, xp, xu, 0.5)

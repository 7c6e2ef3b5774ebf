import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from vpu import losses as ls
from vpu import model as md
from vpu import sampling as sp

from reference import ScalarRng, bits, normals_loop, same_state, sample_indices_loop


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
        rng = sp.Rng(7)
        assert all(0.0 < rng.uniform_open() < 1.0 for _ in range(1000))

    def test_randbelow_bounds(self):
        rng = sp.Rng(3)
        draws = [rng.randbelow(7) for _ in range(2000)]
        assert set(draws) == set(range(7))

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
            sp.sample_gamma(shape, sp.Rng(0))


class TestGamma:
    @pytest.mark.parametrize("shape", [0.3, 1.0, 4.5])
    def test_moments(self, shape):
        rng = sp.Rng(9)
        draws = np.array([sp.sample_gamma(shape, rng) for _ in range(60_000)])
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


class TestSampleIndices:
    """The vectorised draws against the one-randbelow-per-index loop."""

    @pytest.mark.parametrize("n,size", [(2000, 500), (7, 3), (1, 1), (500, 500), (8, 8),
                                        (100, 500), (3, 10)])
    def test_matches_loop(self, n, size):
        for seed in range(5):
            fast, slow = sp.Rng(seed), sp.Rng(seed)
            fast.counter = slow.counter = 17 * seed
            got = sp.sample_indices(n, size, fast)
            want = sample_indices_loop(n, size, slow)
            assert got.dtype == want.dtype and np.array_equal(got, want), seed
            assert fast.counter == slow.counter

    def test_rejection_falls_back_to_loop(self):
        # a bound just above 2^63 rejects about half of all draws
        bounds = np.array([5, 2**63 + 1, 2**64 - 3, 9] * 10, dtype=np.uint64)
        fast, slow = sp.Rng(3), sp.Rng(3)
        got = sp._randbelow_each(fast, bounds)
        want = [slow.randbelow(int(b)) for b in bounds]
        assert [int(v) for v in got] == want
        assert fast.counter == slow.counter > bounds.size


class TestBlockDraws:
    """The block-buffered `Rng` against one mixed output per draw."""

    def test_scalar_draws_across_block_boundaries(self):
        fast, slow = sp.Rng(5), ScalarRng(5)
        n = 3 * sp._BLOCK + 5
        assert [fast.next_u64() for _ in range(n)] == [slow.next_u64() for _ in range(n)]
        assert [fast.uniform() for _ in range(n)] == [slow.uniform() for _ in range(n)]
        assert fast.counter == slow.counter == 2 * n

    def test_counter_moved_by_hand(self):
        fast, slow = sp.Rng(8), ScalarRng(8)
        for start in (10, 3, 3 + sp._BLOCK, 2**40, 0):
            fast.counter = slow.counter = start
            assert [fast.next_u64() for _ in range(9)] == [slow.next_u64() for _ in range(9)]

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
        for k in (1, 7, sp._BLOCK, 2 * sp._BLOCK + 1):
            assert [fast.next_u64() for _ in range(k)] == [slow.next_u64() for _ in range(k)]
            ahead = sp._outputs(fast, 3)  # looks ahead without advancing
            taken = sp._take(fast, k)
            assert [int(v) for v in ahead[:k]] == [int(v) for v in taken[:3]]
            assert [int(v) for v in taken] == [slow.next_u64() for _ in range(k)]
            assert fast.counter == slow.counter

    def test_uniforms_block(self):
        fast, slow = sp.Rng(2), ScalarRng(2)
        fast.uniform(), slow.uniform()
        assert np.array_equal(bits(sp._uniforms(fast, 300)),
                              bits([slow.uniform() for _ in range(300)]))
        assert same_state(fast, slow)

    @pytest.mark.parametrize("cached", [False, True])
    def test_normals_block(self, cached):
        fast, slow = sp.Rng(4), ScalarRng(4)
        if cached:
            assert fast.normal() == slow.normal()
        for n in (0, 1, 2, 3, 4, 7, 1, 0, 130):
            assert np.array_equal(bits(fast.normals(n)), bits(normals_loop(slow, n))), n
            assert same_state(fast, slow), n

    @pytest.mark.parametrize("alpha", [0.3, 1.0, 4.5])
    def test_beta_draws(self, alpha):
        fast, slow = sp.Rng(6), ScalarRng(6)
        for _ in range(200):
            assert sp.sample_beta(alpha, fast) == sp.sample_beta(alpha, slow)
            assert same_state(fast, slow)


@pytest.fixture(scope="module")
def small_model():
    return md.init(md.MlpArchitecture(2, (4,), "tanh"), seed=0)


class TestMixupPairs:
    """The positive/unlabeled pairs that `losses.mixup_consistency_reg`
    builds, caught on their way into `mixup_reg_from_pairs`, and the penalty
    at the endpoints gamma 0 and 1."""

    def batches(self, n=5, seed=0):
        rng = np.random.default_rng(seed)
        return rng.normal(size=(n, 2)), rng.normal(size=(n, 2))

    @staticmethod
    def reg(model, xp, xu, gamma, variant="msle_mixup_pu"):
        theta = model.params.values
        return ls.mixup_consistency_reg(model, theta, xp, xu, model.raw(theta, xu),
                                        gamma, variant)

    def pairs(self, model, xp, xu, gamma):
        """(x_mix, target) of the msle_mixup_pu regularizer."""
        seen = []
        original = ls.mixup_reg_from_pairs

        def capture(model, theta, x_mix, phi_tilde, kind="msle"):
            seen.append((x_mix, phi_tilde))
            return original(model, theta, x_mix, phi_tilde, kind)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ls, "mixup_reg_from_pairs", capture)
            self.reg(model, xp, xu, gamma)
        [(x_mix, target)] = seen
        return x_mix, target

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

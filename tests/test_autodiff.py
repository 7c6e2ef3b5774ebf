import math

import numpy as np
import pytest

from vpu import autodiff as ad

import reference as ref


def flat_params(values):
    return np.asarray(values, dtype=np.float64)


class TestEvaluate:
    def test_constant_expression(self):
        assert ad.evaluate(lambda t: ad.Tensor(3.0), flat_params([1.0])) == 3.0

    def test_product(self):
        loss = lambda t: t[0] * t[1]
        assert ad.evaluate(loss, flat_params([2.0, 5.0])) == 10.0

    def test_log_sigmoid_zero(self):
        loss = lambda t: ad.log(ad.sigmoid(t[0]))
        assert ad.evaluate(loss, flat_params([0.0])) == pytest.approx(-math.log(2), abs=1e-12)

    def test_overflow_names_node(self):
        loss = lambda t: ad.mean(t * t)
        with pytest.raises(ad.NumericError, match="'mul'"):
            ad.evaluate(loss, flat_params([1e200]))

    def test_requires_scalar(self):
        with pytest.raises(ValueError):
            ad.evaluate(lambda t: t, flat_params([1.0, 2.0]))


class TestMean:
    def test_rows_of_a_stack_are_rows_alone(self):
        rng = np.random.default_rng(4)
        for width in (1, 7, 130, 601):
            stack = rng.normal(size=(3, 4, width))
            got = ad.mean(ad.Tensor(stack)).value
            assert got.shape == (3, 4)
            for i in np.ndindex(3, 4):
                assert ref.bits(got[i]) == ref.bits(ad.mean(ad.Tensor(stack[i])).value)


class TestGradient:
    def test_square(self):
        g = ad.gradient(lambda t: t[0] * t[0], flat_params([3.0]))
        assert g[0] == pytest.approx(6.0, abs=1e-12)

    def test_log(self):
        g = ad.gradient(lambda t: ad.log(t[0]), flat_params([2.0]))
        assert g[0] == pytest.approx(0.5, abs=1e-12)

    def test_shared_subexpression(self):
        # f = (x + x) * x -> f' = 4x
        def loss(t):
            s = t[0] + t[0]
            return s * t[0]

        g = ad.gradient(loss, flat_params([1.5]))
        assert g[0] == pytest.approx(6.0, abs=1e-12)

    def test_matmul_chain_matches_finite_diff(self):
        rng = np.random.default_rng(0)
        params = flat_params(rng.normal(size=9))

        def loss(t):
            w = ref.reshape(t[0:6], (2, 3))
            b = t[6:9]
            x = ad.Tensor(np.array([[0.3, -1.2], [1.0, 0.4]]))
            h = ref.tanh(ref.matmul(x, w) + b)
            return ad.mean(ad.mean(h * h))  # each row's mean, then theirs

        g = ad.gradient(loss, params)
        fd = ad.finite_diff_gradient(loss, params, 1e-6)
        np.testing.assert_allclose(g, fd, rtol=1e-6, atol=1e-9)

    def test_sum_linearity(self):
        rng = np.random.default_rng(1)
        params = flat_params(rng.normal(size=4))
        f = lambda t: ad.mean(ad.sigmoid(t)) * 2.0
        g = lambda t: ad.log(ad.mean(t * t + 1.0))
        combined = ad.gradient(lambda t: f(t) + g(t), params)
        separate = ad.gradient(f, params) + ad.gradient(g, params)
        np.testing.assert_allclose(combined, separate, rtol=1e-12, atol=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        params = flat_params(rng.normal(size=6))
        loss = lambda t: ad.mean(ad.log(ad.sigmoid(t * t - 0.3)))
        v1, g1 = ad.value_and_gradient(loss, params)
        v2, g2 = ad.value_and_gradient(loss, params)
        assert v1 == v2
        assert np.array_equal(g1, g2)

    def test_positive_part_branch_gradient(self):
        g = ad.gradient(lambda t: ad.positive_part(t[0]), flat_params([0.7]))
        assert g[0] == 1.0
        g = ad.gradient(lambda t: ad.positive_part(t[0]), flat_params([-0.7]))
        assert g[0] == 0.0

    def test_gradient_shape_matches(self):
        params = flat_params(np.linspace(-1, 1, 7))
        g = ad.gradient(lambda t: ad.mean(t * t), params)
        assert g.shape == params.shape
        assert np.all(np.isfinite(g))


class TestGuardedLog:
    def test_floor_applies(self):
        val = ad.evaluate(lambda t: ad.log(t[0]), flat_params([0.0]))
        assert val == pytest.approx(math.log(1e-12))

    def test_zero_gradient_below_floor(self):
        g = ad.gradient(lambda t: ad.log(t[0]), flat_params([1e-15]))
        assert g[0] == 0.0


class TestFiniteDiff:
    def test_quadratic_is_exact(self):
        fd = ad.finite_diff_gradient(lambda t: t[0] * t[0], flat_params([3.0]), 1e-6)
        assert fd[0] == pytest.approx(6.0, abs=1e-6)

    def test_exp_at_zero(self):
        # central differences need only values: a constant node carries exp
        loss = lambda t: ad.Tensor(math.exp(t.value[0]))
        fd = ad.finite_diff_gradient(loss, flat_params([0.0]), 1e-6)
        assert fd[0] == pytest.approx(1.0, abs=1e-9)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            ad.finite_diff_gradient(lambda t: t[0], flat_params([1.0]), 0.0)

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpu import autodiff as ad
from vpu import losses as ls
from vpu import model as md

from reference import bits, total_loss_two_forwards


def value(t):
    return float(t.value)


def logit(p):
    return math.log(p / (1.0 - p))


@pytest.fixture(scope="module")
def net():
    return md.init(md.MlpArchitecture(2, (4, 3), "tanh"), seed=3)


@pytest.fixture(scope="module")
def batches():
    rng = np.random.default_rng(5)
    xp = rng.normal(size=(6, 2)) + [2, 0]
    xu = rng.normal(size=(6, 2))
    return xp, xu


def saturated_model(input_dim=2):
    """All raw outputs exactly 1.0 (output bias 40)."""
    base = md.init(md.MlpArchitecture(input_dim, (4,), "relu"), seed=0)
    values = np.zeros_like(base.params)
    values[base.arch.layers[1].bias] = 40.0
    return base.with_params(values)


class TestVariationalLoss:
    def test_phi_one_gives_zero(self, batches):
        xp, xu = batches
        m = saturated_model()
        assert value(ls.variational_loss_values(m.raw_values(xp), m.raw_values(xu))) == 0.0

    def test_direct_substitution(self):
        # log mean(0.25, 0.75) - mean(log 0.5) = log 0.5 - log 0.5 = 0
        got = value(ls.variational_loss_values(np.array([0.5]), np.array([0.25, 0.75])))
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_constant_phi_is_zero(self):
        for c in (0.2, 0.7, 1.0):
            got = value(ls.variational_loss_values(np.full(5, c), np.full(9, c)))
            assert got == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.sampled_from([0.1, 0.5, 0.9]))
    def test_batch_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        phi_p = rng.uniform(1e-3, 1.0, size=rng.integers(1, 20))
        phi_u = rng.uniform(1e-3, 1.0, size=rng.integers(1, 20))
        base = value(ls.variational_loss_values(phi_p, phi_u))
        scaled = value(ls.variational_loss_values(c * phi_p, c * phi_u))
        assert abs(scaled - base) <= 1e-10

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        phi_p = rng.uniform(1e-3, 1.0, size=8)
        phi_u = rng.uniform(1e-3, 1.0, size=11)
        base = value(ls.variational_loss_values(phi_p, phi_u))
        perm = value(ls.variational_loss_values(rng.permutation(phi_p),
                                                rng.permutation(phi_u)))
        assert perm == pytest.approx(base, abs=1e-12)


def tape_or_error(phi_p, phi_u):
    """The tape's value of the loss, or the message of its NumericError."""
    try:
        return bits(ls.variational_loss_values(phi_p, phi_u).value).tolist()
    except ad.NumericError as exc:
        return str(exc)


def value_or_error(phi_p, phi_u):
    try:
        return bits(ls.variational_loss_value(phi_p, phi_u)).tolist()
    except ad.NumericError as exc:
        return str(exc)


class TestVariationalLossValue:
    """The value form against the tape it stands in for."""

    def test_tape_bits_on_random_pairs(self):
        rng = np.random.default_rng(8)
        floor_hits = 0
        for _ in range(2000):
            phi_p, phi_u = (rng.uniform(0.0, 1.0, size=rng.integers(1, 601)) for _ in range(2))
            for phi in (phi_p, phi_u):
                # some outputs at or below the log floor, exactly 0 among them
                tiny = rng.random(phi.size) < 0.02
                phi[tiny] = rng.choice([0.0, 1e-300, 1e-13, ad.LOG_FLOOR], tiny.sum())
            floor_hits += int((phi_p <= ad.LOG_FLOOR).sum())
            want = ls.variational_loss_values(phi_p, phi_u).value
            assert bits(ls.variational_loss_value(phi_p, phi_u)) == bits(want)
        assert floor_hits > 1000

    def test_rows_of_a_stack_are_pairs_alone(self):
        rng = np.random.default_rng(9)
        phi_p, phi_u = rng.uniform(1e-3, 1.0, (3, 7, 13)), rng.uniform(1e-3, 1.0, (7, 29))
        got = ls.variational_loss_value(phi_p, phi_u)
        assert got.shape == (3, 7)
        for c in range(3):
            for i in range(7):
                want = ls.variational_loss_values(phi_p[c, i], phi_u[i]).value
                assert bits(got[c, i]) == bits(want)

    @pytest.mark.parametrize("phi_p, phi_u, node", [
        ([0.5, math.nan], [0.5], "const"),
        ([0.5], [math.inf, 0.5], "const"),
        ([-math.inf], [0.5], "const"),
        ([0.5], [1.5e308, 1.5e308], "mean"),  # the unlabeled mean overflows
        ([math.nan], [1.5e308, 1.5e308], "mean"),  # the tape reaches the mean first
        ([0.5], [], "mean"),  # the mean of nothing is NaN
        ([1e-300, 0.0, -1.0], [0.0, 0.0], None),  # floored, not an error
        ([0.25, 0.5], [1e308, 1e308], None),
    ])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_raises_where_the_tape_raises(self, phi_p, phi_u, node):
        want = tape_or_error(np.array(phi_p), np.array(phi_u))
        if node is not None:
            assert want == f"non-finite value produced by node '{node}'"
        assert value_or_error(np.array(phi_p), np.array(phi_u)) == want


class TestMixupReg:
    def test_zero_residual(self):
        # phi(x_mix) == target everywhere -> penalty 0
        m = saturated_model()
        x = np.zeros((3, 2))
        assert value(ls.mixup_reg_from_pairs(m, m.params, x, np.ones(3))) == 0.0

    def test_underestimation_blows_up(self):
        # (log 0.9 - log 1e-12)^2 =~ 757: the msle penalty explodes as phi -> 0
        target = np.array([0.9])
        phi_mix = ad.Tensor(np.array([1e-12]))
        d = ad.log(ad.Tensor(target)) - ad.log(phi_mix)
        assert value(ad.mean(d * d)) > 100.0

    def test_guessed_probability_value(self, net):
        xp, xu = np.array([[1.0, 0.0]]), np.array([[0.0, 1.0]])
        # mse penalty of the single pair: (t - phi(x_mix))^2 with the mixed
        # point (0.3, 0.7) and the guessed target t = 0.3 + 0.7 phi(u)
        reg = ls.mixup_consistency_reg(net, net.params, xp, xu, net.raw_values(xu),
                                       0.3, "mse_mixup_pu")
        phi_u = float(net.raw_values(xu)[0])
        phi_mix = float(net.raw_values(np.array([[0.3, 0.7]]))[0])
        assert value(reg) == pytest.approx((0.3 + 0.7 * phi_u - phi_mix) ** 2)

    def test_msle_dominates_mse_near_zero(self):
        # at target 0.9, msle/mse -> infinity as the prediction collapses
        target, phi = 0.9, 1e-6
        msle = (math.log(target) - math.log(phi)) ** 2
        mse = (target - phi) ** 2
        assert msle / mse > 100.0

    def test_stop_gradient_default(self, net, batches):
        xp, xu = batches
        theta = ad.Tensor(net.params)
        phi_u = net.raw(theta, xu)
        frozen = ls.mixup_consistency_reg(net, theta, xp, xu, phi_u, 0.4, "msle_mixup_pu")
        # same value as the non-stop variant, but the target subtree is constant
        live = ls.mixup_consistency_reg(net, theta, xp, xu, phi_u, 0.4, "msle_mixup_pu",
                                        target_stop_gradient=False)
        assert value(frozen) == pytest.approx(value(live), abs=1e-15)

    def test_p_only_targets_one(self, net):
        xp = np.array([[1.0, 0.0], [0.0, 1.0]])
        xu = np.array([[9.9, 9.9], [9.9, 9.9]])
        reg = ls.mixup_consistency_reg(net, net.params, xp, xu, None, 0.5,
                                       "msle_mixup_p_only")
        mixed = 0.5 * xp + 0.5 * np.roll(xp, -1, axis=0)
        expected = np.mean(np.log(net.raw_values(mixed)) ** 2)
        assert value(reg) == pytest.approx(expected, abs=1e-12)

    def test_size_mismatch_rejected(self, net):
        xp, xu = np.zeros((2, 2)), np.zeros((3, 2))
        with pytest.raises(ValueError):
            ls.mixup_consistency_reg(net, net.params, xp, xu, net.raw_values(xu),
                                     0.5, "msle_mixup_pu")


class TestLargeMargin:
    def test_zero_at_confident_positive(self):
        m = saturated_model()
        xp = np.zeros((4, 2))
        assert value(ls.large_margin_values(m.raw_values(xp), alpha=1.0)) == 0.0

    def test_half_alpha_one(self):
        # phi 0.5, alpha 1 -> log 2
        got = value(ls.large_margin_values(np.array([0.5]), alpha=1.0))
        assert got == pytest.approx(math.log(2.0), abs=1e-12)

    def test_monotone_decreasing_in_phi(self):
        grid = np.linspace(0.05, 0.99, 40)
        vals = [value(ls.large_margin_values(np.array([p]), alpha=0.7)) for p in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestBaselineRisks:
    def test_upu_zero_margin(self):
        # g=0 everywhere, pi 0.5 -> 0.5*(0.5-0.5) + 0.5
        got = value(ls.upu_risk_from_margins(np.zeros(3), np.zeros(5), 0.5))
        assert got == pytest.approx(0.5, abs=1e-15)

    def test_upu_direct_substitution(self):
        # mean_p l+ = 0.2, mean_p l- = 0.8, mean_u l- = 0.6, pi 0.5 -> 0.3
        gp = np.array([logit(0.8)])
        gu = np.array([logit(0.6)])
        got = value(ls.upu_risk_from_margins(gp, gu, 0.5))
        assert got == pytest.approx(0.5 * (0.2 - 0.8) + 0.6, abs=1e-12)

    def test_nnpu_direct_substitution(self):
        gp = np.array([logit(0.8)])
        gu = np.array([logit(0.6)])
        got = value(ls.nnpu_risk_from_margins(gp, gu, 0.5))
        assert got == pytest.approx(0.5 * 0.2 + max(0.0, 0.6 - 0.4), abs=1e-12)

    def test_nnpu_clamps_to_zero(self):
        # mean_u l- < pi * mean_p l-: second term exactly 0
        gp = np.array([logit(0.9)])
        gu = np.array([logit(0.1)])
        got = value(ls.nnpu_risk_from_margins(gp, gu, 0.5))
        assert got == pytest.approx(0.5 * 0.1, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), pi=st.floats(0.05, 0.95))
    def test_nnpu_nonnegative_upu_maybe_not(self, seed, pi):
        rng = np.random.default_rng(seed)
        gp = rng.normal(size=6)
        gu = rng.normal(size=6)
        assert value(ls.nnpu_risk_from_margins(gp, gu, pi)) >= 0.0

    def test_upu_can_go_negative(self):
        # confident positives, confidently-negative unlabeled, large pi:
        # risk = pi*(0 - 1) + 0 < 0; nnpu clamps the same inputs to >= 0
        gp = np.full(4, 8.0)
        gu = np.full(4, -8.0)
        assert value(ls.upu_risk_from_margins(gp, gu, 0.9)) < 0.0
        assert value(ls.nnpu_risk_from_margins(gp, gu, 0.9)) >= 0.0

    def test_pi_required(self):
        with pytest.raises(ValueError):
            ls.upu_risk_from_margins(np.zeros(2), np.zeros(2), 1.0)


class TestLossSpec:
    def test_baseline_requires_pi(self):
        with pytest.raises(ValueError):
            ls.LossSpec(objective="nnpu", reg_variant="none", lam=0.0)

    def test_vpu_rejects_pi(self):
        with pytest.raises(ValueError):
            ls.LossSpec(objective="vpu", pi_p=0.5)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            ls.LossSpec(reg_variant="dropout")

    @pytest.mark.parametrize("key", ["lam", "alpha"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_constants(self, key, value):
        with pytest.raises(ValueError):
            ls.LossSpec(**{key: value})


class TestL2Loss:
    def test_phi_one(self):
        got = value(ls.l2_variational_loss_values(np.ones(4), np.ones(6)))
        assert got == pytest.approx(-1.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10_000), c=st.floats(0.05, 1.0))
    def test_scale_invariance(self, seed, c):
        rng = np.random.default_rng(seed)
        phi_p = rng.uniform(1e-3, 1.0, size=7)
        phi_u = rng.uniform(1e-3, 1.0, size=9)
        base = value(ls.l2_variational_loss_values(phi_p, phi_u))
        scaled = value(ls.l2_variational_loss_values(c * phi_p, c * phi_u))
        assert abs(scaled - base) <= 1e-10


def objective_value(net, xp, xu):
    return value(ls.variational_loss_values(net.raw_values(xp), net.raw_values(xu)))


class CountingModel(md.ClassifierModel):
    """A ClassifierModel that counts its `logits` calls."""

    calls = 0

    def logits(self, theta, x):
        CountingModel.calls += 1
        return super().logits(theta, x)


class TestTotalLoss:
    def test_lambda_zero_is_objective(self, net, batches):
        xp, xu = batches
        spec = ls.LossSpec("vpu", "msle_mixup_pu", lam=0.0)
        got = value(ls.total_loss(spec, net, net.params, xp, xu, gamma=0.3))
        assert got == objective_value(net, xp, xu)

    def test_zero_reg_residual_equals_objective(self, batches):
        xp, xu = batches
        m = saturated_model()
        spec = ls.LossSpec("vpu", "msle_mixup_pu", lam=0.3)
        got = value(ls.total_loss(spec, m, m.params, xp, xu, gamma=0.6))
        assert got == objective_value(m, xp, xu)

    def test_linear_combination(self, net, batches):
        xp, xu = batches
        spec = ls.LossSpec("vpu", "msle_mixup_pu", lam=0.3)
        theta = net.params
        v = objective_value(net, xp, xu)
        r = value(ls.mixup_consistency_reg(net, theta, xp, xu, net.raw_values(xu), 0.5,
                                           "msle_mixup_pu"))
        got = value(ls.total_loss(spec, net, theta, xp, xu, gamma=0.5))
        assert got == pytest.approx(v + 0.3 * r, abs=1e-12)

    def test_baselines_ignore_reg(self, net, batches):
        xp, xu = batches
        spec = ls.LossSpec("nnpu", "msle_mixup_pu", lam=0.3, pi_p=0.4)
        theta = net.params
        got = value(ls.total_loss(spec, net, theta, xp, xu, gamma=0.5))
        assert got == value(ls.nnpu_risk_from_margins(
            net.logits(theta, xp), net.logits(theta, xu), 0.4))

    def test_mixup_needs_gamma(self, net, batches):
        xp, xu = batches
        spec = ls.LossSpec("vpu", "msle_mixup_pu", lam=0.3)
        with pytest.raises(ValueError):
            ls.total_loss(spec, net, net.params, xp, xu, gamma=None)

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    def test_matches_two_forward_reference(self, activation):
        # the pu MixUp target reuses the objective's U outputs: with a
        # constant target that is the same rows through the same theta, so
        # every bit agrees; a differentiated target sums both heads'
        # gradients before the network's backward, which rounds differently
        net = md.init(md.MlpArchitecture(2, (8, 5), activation), seed=1)
        rng = np.random.default_rng(4)
        net = net.with_params(net.params + rng.normal(scale=0.3, size=len(net.params)))
        xp, xu = rng.normal(size=(7, 2)) + 1.0, rng.normal(size=(7, 2))
        for objective in ls.OBJECTIVES:
            for reg in ls.REG_VARIANTS:
                for stop in (True, False):
                    spec = ls.LossSpec(objective, reg, lam=0.3, alpha=0.3,
                                       pi_p=None if objective in ("vpu", "vpu_l2") else 0.4)
                    v_new, g_new = ad.value_and_gradient(
                        lambda th: ls.total_loss(spec, net, th, xp, xu, 0.37, stop),
                        net.params)
                    v_ref, g_ref = ad.value_and_gradient(
                        lambda th: total_loss_two_forwards(spec, net, th, xp, xu, 0.37, stop),
                        net.params)
                    case = (objective, reg, stop)
                    assert bits(v_new) == bits(v_ref), case
                    if not stop and reg in ("msle_mixup_pu", "mse_mixup_pu") \
                            and spec.variational:
                        np.testing.assert_allclose(g_new, g_ref, rtol=1e-12, atol=0.0,
                                                   err_msg=str(case))
                    else:
                        assert np.array_equal(bits(g_new), bits(g_ref)), case

    # P and U once each, plus the MixUp points or the large-margin
    # positives; the pupu target forwards the stacked union on top
    @pytest.mark.parametrize("objective, reg, calls", [
        ("vpu", "msle_mixup_pu", 3), ("vpu", "mse_mixup_pu", 3),
        ("vpu_l2", "msle_mixup_pupu", 4), ("vpu", "msle_mixup_p_only", 3),
        ("vpu", "large_margin", 3), ("vpu", "none", 2), ("upu", "none", 2),
        ("nnpu", "msle_mixup_pu", 2),
    ])
    def test_forwards_each_batch_once(self, batches, objective, reg, calls):
        xp, xu = batches
        base = md.init(md.MlpArchitecture(2, (4, 3), "tanh"), seed=3)
        m = CountingModel(base.arch, base.params)
        spec = ls.LossSpec(objective, reg, pi_p=None if objective in ("vpu", "vpu_l2") else 0.4)
        CountingModel.calls = 0
        ad.value_and_gradient(lambda th: ls.total_loss(spec, m, th, xp, xu, 0.5), m.params)
        assert CountingModel.calls == calls


class TestGradientsAgainstFiniteDiff:
    """Every loss variant passes the central-difference check."""

    CASES = {
        "vpu": lambda m, xp, xu: (lambda t: ls.variational_loss_values(
            m.raw(t, xp), m.raw(t, xu))),
        "vpu_l2": lambda m, xp, xu: (lambda t: ls.l2_variational_loss_values(
            m.raw(t, xp), m.raw(t, xu))),
        "upu": lambda m, xp, xu: (lambda t: ls.upu_risk_from_margins(
            m.logits(t, xp), m.logits(t, xu), 0.4)),
        "nnpu": lambda m, xp, xu: (lambda t: ls.nnpu_risk_from_margins(
            m.logits(t, xp), m.logits(t, xu), 0.4)),
        "large_margin": lambda m, xp, xu: (lambda t: ls.large_margin_values(m.raw(t, xp), 0.3)),
        "msle_mixup_pu": lambda m, xp, xu: (lambda t: ls.mixup_consistency_reg(
            m, t, xp, xu, m.raw(t, xu), 0.3, "msle_mixup_pu", target_stop_gradient=False)),
        "msle_mixup_p_only": lambda m, xp, xu: (lambda t: ls.mixup_consistency_reg(
            m, t, xp, xu, None, 0.3, "msle_mixup_p_only")),
        "msle_mixup_pupu": lambda m, xp, xu: (lambda t: ls.mixup_consistency_reg(
            m, t, xp, xu, None, 0.3, "msle_mixup_pupu", target_stop_gradient=False)),
        "mse_mixup_pu": lambda m, xp, xu: (lambda t: ls.mixup_consistency_reg(
            m, t, xp, xu, m.raw(t, xu), 0.3, "mse_mixup_pu", target_stop_gradient=False)),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_matches_finite_differences(self, name):
        rng = np.random.default_rng(7)
        m = md.init(md.MlpArchitecture(2, (4, 3), "tanh"), seed=7)
        for trial in range(5):
            params = rng.normal(scale=0.6, size=len(m.params))
            xp = rng.normal(size=(5, 2)) + [1.5, 0]
            xu = rng.normal(size=(5, 2))
            fn = self.CASES[name](m, xp, xu)
            g = ad.gradient(fn, params)
            fd = ad.finite_diff_gradient(fn, params, 1e-6)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8,
                                       err_msg=f"{name} trial {trial}")

    def test_stop_gradient_path_matches_frozen_pairs(self):
        # the trainer's default gradient: targets held constant
        rng = np.random.default_rng(9)
        m = md.init(md.MlpArchitecture(2, (4, 3), "tanh"), seed=9)
        xp = rng.normal(size=(5, 2)) + [1.5, 0]
        xu = rng.normal(size=(5, 2))
        x_mix = 0.4 * xp + (1.0 - 0.4) * xu
        t_const = 0.4 + (1.0 - 0.4) * m.raw_values(xu)
        fn = lambda th: ls.mixup_reg_from_pairs(m, th, x_mix, t_const, "msle")
        g = ad.gradient(fn, m.params)
        fd = ad.finite_diff_gradient(fn, m.params, 1e-6)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)
        full = ad.gradient(lambda th: ls.mixup_consistency_reg(
            m, th, xp, xu, m.raw(th, xu), 0.4, "msle_mixup_pu"), m.params)
        assert np.array_equal(g, full)

    def test_full_vpu_loss_seed7(self):
        # complete training objective on a 2-layer MLP, random params, seed 7
        rng = np.random.default_rng(7)
        m = md.init(md.MlpArchitecture(2, (6, 4), "tanh"), seed=7)
        params = rng.normal(scale=0.5, size=len(m.params))
        xp = rng.normal(size=(8, 2)) + [2, 0]
        xu = rng.normal(size=(8, 2))
        spec = ls.LossSpec("vpu", "msle_mixup_pu", lam=0.3)
        fn = lambda t: ls.total_loss(spec, m, t, xp, xu, gamma=0.35,
                                     target_stop_gradient=False)
        g = ad.gradient(fn, params)
        fd = ad.finite_diff_gradient(fn, params, 1e-6)
        big = np.abs(g) > 1e-8
        rel = np.abs(g - fd)[big] / np.abs(g)[big]
        assert np.max(rel, initial=0.0) <= 1e-5
        assert np.max(np.abs(g - fd)[~big], initial=0.0) <= 1e-8

import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from vpu import oracle as oc
from vpu.sampling import Rng, _as_uniform, _exponentials, _take

from reference import bits, one_instance, one_phi


@pytest.fixture
def two_point():
    # f_p = (1, 0), f_n = (0, 1), pi = 0.5 -> f = (0.5, 0.5), separable
    return oc.DiscreteJoint(f_p=(1.0, 0.0), f_n=(0.0, 1.0), pi_p=0.5)


class TestDiscreteJoint:
    def test_distributions_must_normalize(self):
        with pytest.raises(ValueError, match="sum to 1"):
            oc.DiscreteJoint(f_p=np.array([0.9, 0.0]), f_n=np.array([0.0, 1.0]), pi_p=0.5)

    def test_derived_marginal(self, two_point):
        assert two_point.f.tolist() == [0.5, 0.5]
        assert two_point.f_n.tolist() == [0.0, 1.0]

    @pytest.mark.parametrize("name", ["f_p", "f_n"])
    def test_one_negative_entry(self, name):
        vecs = {"f_p": np.array([1.0, 0.0]), "f_n": np.array([0.0, 1.0])}
        vecs[name] = np.array([1.0 + 1e-300, -1e-300])  # sums to 1, one entry below 0
        with pytest.raises(ValueError, match=f"^{name} must be nonnegative$"):
            oc.DiscreteJoint(pi_p=0.5, **vecs)
        # -0.0 passes the sign check
        vecs[name] = np.array([1.0, -0.0])
        assert oc.DiscreteJoint(pi_p=0.5, **vecs).k == 2

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["f_p", "f_n"])
    def test_non_finite_entry(self, name, bad):
        # NaN fails every comparison, so the sign and sum checks alone let
        # it pass
        vecs = {"f_p": np.array([1.0, 0.0]), "f_n": np.array([0.0, 1.0])}
        vecs[name] = np.array([bad, 1.0])
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            oc.DiscreteJoint(pi_p=0.3, **vecs)

    def test_sum_tolerance(self):
        for name in ("f_p", "f_n"):
            for off, ok in ((2e-12, False), (5e-13, True)):
                vecs = {"f_p": np.array([0.5, 0.5]), "f_n": np.array([0.5, 0.5])}
                vecs[name] = np.array([0.5, 0.5 + off])
                if ok:
                    assert oc.DiscreteJoint(pi_p=0.5, **vecs).k == 2
                else:
                    with pytest.raises(ValueError, match=rf"^{name} must sum to 1 "
                                                         r"\(off by 2\.000e-12\)$"):
                        oc.DiscreteJoint(pi_p=0.5, **vecs)

    def test_shape_and_prior(self):
        shape_error = r"^f_p and f_n must have one shape \(\.\.\., k\), and pi_p shape \(\.\.\.\)$"
        for f_p, f_n, pi_p in (([1.0, 0.0], [0.0, 0.5, 0.5], 0.5), (1.0, 1.0, 0.5),
                               ([[1.0, 0.0]], [[0.0, 1.0]], 0.5),
                               ([1.0, 0.0], [0.0, 1.0], [0.5])):
            with pytest.raises(ValueError, match=shape_error):
                oc.DiscreteJoint(f_p, f_n, pi_p)
        assert oc.DiscreteJoint([[1.0, 0.0]], [[0.0, 1.0]], [0.5]).k == 2
        for pi_p in (0.0, 1.0, math.nan):
            with pytest.raises(ValueError, match=r"^pi_p must be in \(0, 1\)$"):
                oc.DiscreteJoint([1.0, 0.0], [0.0, 1.0], pi_p)

    def test_from_conditionals_exact(self):
        # the second mixture sums to 1 - 2^-53, so dividing by the sum moves bits
        for f_p, f_n, pi_p in (((0.7, 0.3, 0.0), (0.0, 0.5, 0.5), 0.25),
                               ((0.1, 0.2, 0.7), (0.6, 0.3, 0.1), 0.35)):
            f_p, f_n = np.array(f_p), np.array(f_n)
            d = oc.DiscreteJoint(f_p, f_n, pi_p)
            mixture = pi_p * f_p + (1.0 - pi_p) * f_n
            assert bits(d.f).tolist() == bits(mixture / mixture.sum()).tolist()
            np.testing.assert_allclose(d.f, mixture, atol=1e-15)


def exact_quantities(d, phi, u):
    """Every exact quantity of the joints `d` with the per-point arrays phi
    (positive) and u (uniforms), by name."""
    labeled = oc._biased_labeled(d, u)
    post = oc.bayes_posterior(d)
    lhs, bound, holds = oc.theorem3_check(d, labeled)
    return {
        "f": d.f, "posterior": post, "lvar": oc.exact_lvar(d, phi),
        "lvar_posterior": oc.exact_lvar(d, post),
        "induced": oc.induced_positive_density(d, phi),
        "kl": oc.kl_divergence(d.f_p, oc.induced_positive_density(d, phi)),
        "kl_residual": oc.kl_identity_residual(d, phi),
        "minimizer": oc.exact_minimizer(d), "biased_minimizer": oc.exact_minimizer(d, labeled),
        "error": oc.misclassification_rate(d, phi), "lhs": lhs, "bound": bound, "holds": holds,
        "irreducible": oc.check_irreducibility(d), "l2": oc.exact_l2(d, phi),
        "l2_residual": oc.l2_identity_residual(d, phi),
    }


class TestStacks:
    """Each exact quantity of a stack of joints is, bit for bit, that of
    each joint alone."""

    def test_random_stacks(self):
        rngs = [Rng(70 + i) for i in range(120)]
        groups = oc.random_instances(rngs, 12, anchor=oc._coins(rngs))
        assert len(groups) == 11  # every k from 2 to 12
        phis = oc._per_point(groups, rngs)
        factors = oc._per_point(groups, rngs, lo=0.0)
        for (trials, d), phi, u in zip(groups, phis, factors):
            stacked = exact_quantities(d, phi, u)
            for j in range(len(trials)):
                alone = exact_quantities(d[j], phi[j], u[j])
                for name, got in stacked.items():
                    assert np.array_equal(bits(got[j]), bits(alone[name])), (name, d.k, j)

    def test_zero_mass_points(self):
        # joint 0 has no mass at point 2, under f_p, f_n and so f; joint 1
        # has full support
        d = oc.DiscreteJoint([[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]],
                             [[0.5, 0.5, 0.0], [0.1, 0.1, 0.8]], [0.4, 0.6])
        phi = np.array([[0.0, 0.5, 0.5], [0.3, 0.9, 0.6]])  # vanishes on joint 0's support
        post = oc.bayes_posterior(d)
        assert post[0].tolist() == [0.4, 0.4, 0.0]  # zero where f has no mass
        for name, got, alone in (
                ("lvar", oc.exact_lvar(d, phi), [oc.exact_lvar(d[j], phi[j]) for j in (0, 1)]),
                ("kl", oc.kl_divergence(d.f_p, phi),
                 [oc.kl_divergence(d.f_p[j], phi[j]) for j in (0, 1)])):
            assert got[0] == math.inf and math.isfinite(got[1]), name
            assert bits(got).tolist() == bits(alone).tolist(), name
        for j in range(2):
            assert bits(oc.exact_minimizer(d)[j]).tolist() == \
                bits(oc.exact_minimizer(d[j])).tolist()
            assert bits(oc.l2_identity_residual(d, post)[j]) == \
                bits(oc.l2_identity_residual(d[j], post[j]))
        # no mass under f: an error for the stack and for the joint alone
        # (exact_lvar gives +inf first, as phi vanishes on f_p's support)
        no_mass = np.array([[0.0, 0.0, 1.0], [0.3, 0.9, 0.6]])
        assert oc.exact_lvar(d, no_mass)[0] == oc.exact_lvar(d[0], no_mass[0]) == math.inf
        for fn in (oc.induced_positive_density, oc.exact_l2):
            for joint, arg in ((d, no_mass), (d[0], no_mass[0])):
                with pytest.raises(ValueError, match="positive mass under f"):
                    fn(joint, arg)
        labeled = np.array([[0.0, 0.0, 1.0], [0.2, 0.3, 0.5]])  # mass where f has none
        for joint, arg in ((d, labeled), (d[0], labeled[0])):
            with pytest.raises(ValueError, match="where f has none"):
                oc.exact_minimizer(joint, arg)


class TestBayesPosterior:
    def test_two_point(self, two_point):
        np.testing.assert_allclose(oc.bayes_posterior(two_point), [1.0, 0.0])

    def test_no_signal_is_prior(self):
        f_p = np.array([0.3, 0.7])
        d = oc.DiscreteJoint(f_p, f_p, pi_p=0.4)
        np.testing.assert_allclose(oc.bayes_posterior(d), [0.4, 0.4], atol=1e-15)

    def test_bounded_in_unit_interval(self):
        rng = Rng(0)
        for _ in range(200):
            d = one_instance(rng, 16)
            post = oc.bayes_posterior(d)
            assert np.all(post >= 0.0) and np.all(post <= 1.0 + 1e-12)


class TestExactLvar:
    def test_phi_one_is_zero(self, two_point):
        assert oc.exact_lvar(two_point, np.ones(2)) == 0.0

    def test_enumeration(self, two_point):
        # log(0.5*1 + 0.5*0.5) - 1*log(1) = log 0.75
        got = oc.exact_lvar(two_point, np.array([1.0, 0.5]))
        assert got == pytest.approx(math.log(0.75), abs=1e-15)

    def test_at_posterior(self, two_point):
        got = oc.exact_lvar(two_point, oc.bayes_posterior(two_point))
        assert got == pytest.approx(math.log(0.5), abs=1e-15)

    def test_infinite_when_phi_vanishes_on_support(self, two_point):
        assert oc.exact_lvar(two_point, np.array([0.0, 1.0])) == math.inf


class TestInducedDensity:
    def test_constant_phi_recovers_marginal(self, two_point):
        np.testing.assert_allclose(oc.induced_positive_density(two_point, np.full(2, 0.37)),
                                   two_point.f, atol=1e-15)

    def test_posterior_recovers_positive_conditional(self):
        rng = Rng(1)
        for _ in range(200):
            d = one_instance(rng, 16)
            f_phi = oc.induced_positive_density(d, oc.bayes_posterior(d))
            np.testing.assert_allclose(f_phi, d.f_p, atol=1e-12)

    def test_two_point_enumeration(self, two_point):
        got = oc.induced_positive_density(two_point, np.array([1.0, 0.5]))
        np.testing.assert_allclose(got, [2.0 / 3.0, 1.0 / 3.0], atol=1e-15)

    def test_sums_to_one(self, two_point):
        got = oc.induced_positive_density(two_point, np.array([0.9, 0.2]))
        assert got.sum() == pytest.approx(1.0, abs=1e-15)


class TestKlIdentity:
    def test_exact_at_posterior(self, two_point):
        assert oc.kl_identity_residual(two_point, oc.bayes_posterior(two_point)) < 1e-15

    def test_two_point_values(self, two_point):
        phi = np.array([1.0, 0.5])
        kl = oc.kl_divergence(two_point.f_p, oc.induced_positive_density(two_point, phi))
        assert kl == pytest.approx(math.log(1.5), abs=1e-15)
        gap = oc.exact_lvar(two_point, phi) - oc.exact_lvar(two_point, oc.bayes_posterior(two_point))
        assert gap == pytest.approx(math.log(1.5), abs=1e-15)

    def test_random_instances(self):
        rng = Rng(2)
        worst = 0.0
        for _ in range(300):
            d = one_instance(rng, 32)
            phi = one_phi(d.k, rng)
            worst = max(worst, oc.kl_identity_residual(d, phi))
        assert worst <= 1e-10

    def test_gap_nonnegative(self):
        rng = Rng(3)
        for _ in range(300):
            d = one_instance(rng, 32)
            gap = (oc.exact_lvar(d, one_phi(d.k, rng))
                   - oc.exact_lvar(d, oc.bayes_posterior(d)))
            assert gap >= -1e-12


class TestMinimizer:
    def test_two_point(self, two_point):
        np.testing.assert_allclose(oc.exact_minimizer(two_point), [1.0, 0.0])

    def test_matches_posterior_on_anchored(self):
        rng = Rng(4)
        for _ in range(300):
            d = one_instance(rng, 32, True)
            phi = oc.exact_minimizer(d)
            np.testing.assert_allclose(phi / phi.max(), oc.bayes_posterior(d), atol=1e-9)

    def test_minimality_against_perturbations(self):
        rng = Rng(5)
        d = one_instance(rng, 8, True)
        phi_star = oc.exact_minimizer(d)
        best = oc.exact_lvar(d, phi_star)
        for _ in range(500):
            phi = np.clip(phi_star + 0.2 * (np.array(
                [rng.uniform() for _ in range(d.k)]) - 0.5), 1e-6, 1.0)
            assert oc.exact_lvar(d, phi) >= best - 1e-12

    def test_scale_family_flat(self):
        rng = Rng(6)
        d = one_instance(rng, 16, True)
        phi = oc.exact_minimizer(d)
        base = oc.exact_lvar(d, phi)
        for c in (0.2, 0.4, 0.6, 0.8, 1.0):
            assert oc.exact_lvar(d, c * phi) == pytest.approx(base, abs=1e-10)


class TestMisclassification:
    def test_posterior_on_separable_is_zero(self, two_point):
        assert oc.misclassification_rate(two_point, oc.bayes_posterior(two_point)) == 0.0

    def test_all_positive_predictor(self):
        rng = Rng(7)
        d = one_instance(rng, 16)
        got = oc.misclassification_rate(d, np.ones(d.k))
        assert got == pytest.approx(1.0 - d.pi_p, abs=1e-12)

    def test_all_negative_predictor(self):
        rng = Rng(8)
        d = one_instance(rng, 16)
        got = oc.misclassification_rate(d, np.zeros(d.k))
        assert got == pytest.approx(d.pi_p, abs=1e-12)


class TestBiasBound:
    def test_no_bias_no_slack(self, two_point):
        lhs, bound, holds = oc.theorem3_check(two_point, two_point.f_p)
        assert lhs == 0.0 and bound == pytest.approx(0.0, abs=1e-12) and holds

    def test_arithmetic_of_bound(self):
        got = oc.bias_bound(0.9, 1.1, 0.05)
        want = max(1.1 / 0.9 - 1.0, 1.0 - 0.9 * 0.95 / 1.1)
        assert got == want == pytest.approx(0.22272727272727272, abs=1e-12)

    def test_random_biased_instances(self):
        rng = Rng(9)
        for _ in range(300):
            d = one_instance(rng, 16, rng.uniform() < 0.5)
            labeled = oc._biased_labeled(d, _as_uniform(_take(rng, d.k)))
            lhs, bound, holds = oc.theorem3_check(d, labeled)
            assert holds, (lhs, bound)


class TestIrreducibility:
    def test_disjoint_supports(self):
        d = oc.DiscreteJoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]), 0.5)
        assert oc.check_irreducibility(d)

    def test_contaminated_negative_is_reducible(self):
        # f_n = 0.3 f_p + 0.7 h: the ratio f_n/f_p >= 0.3 everywhere on support
        rng = Rng(10)
        f_p, h = (g / g.sum() for g in _exponentials(_take(rng, 12)).reshape(2, 6))
        f_n = 0.3 * f_p + 0.7 * h
        d = oc.DiscreteJoint(f_p, f_n, 0.4)
        assert not oc.check_irreducibility(d, tol=1e-9)

    def test_equivalence_with_posterior_criterion(self):
        rng = Rng(11)
        tol = 1e-9
        seen = {True: 0, False: 0}
        for _ in range(400):
            d = one_instance(rng, 32, rng.uniform() < 0.5)
            via_ratio = oc.check_irreducibility(d, tol)
            thr = oc.posterior_threshold(d.pi_p, tol)
            via_posterior = bool(np.max(oc.bayes_posterior(d)) >= thr)
            assert via_ratio == via_posterior
            seen[via_ratio] += 1
        assert seen[True] > 50 and seen[False] > 50  # both directions exercised


class TestL2Identity:
    def test_posterior_value(self):
        rng = Rng(12)
        for _ in range(100):
            d = one_instance(rng, 16)
            support = d.f > 0
            want = -float(np.sum(d.f_p[support] ** 2 / d.f[support]))
            assert oc.exact_l2(d, oc.bayes_posterior(d)) == pytest.approx(want, abs=1e-12)

    def test_identity_residual(self):
        rng = Rng(13)
        worst = 0.0
        for _ in range(300):
            d = one_instance(rng, 32)
            worst = max(worst, oc.l2_identity_residual(d, one_phi(d.k, rng)))
        assert worst <= 1e-10

    def test_gap_nonnegative(self):
        rng = Rng(14)
        for _ in range(200):
            d = one_instance(rng, 16)
            gap = oc.exact_l2(d, one_phi(d.k, rng)) - oc.exact_l2(d, oc.bayes_posterior(d))
            assert gap >= -1e-12


class TestUniqueness:
    """induced density equals f_p exactly when phi is a positive multiple of
    the posterior (on anchored instances where the family is identified)."""

    def test_scaled_posterior_recovers(self):
        rng = Rng(15)
        for _ in range(200):
            d = one_instance(rng, 16, True)
            c = 0.05 + 0.95 * rng.uniform()
            phi = c * oc.bayes_posterior(d)
            f_phi = oc.induced_positive_density(d, phi)
            assert np.max(np.abs(f_phi - d.f_p)) <= 1e-12
            assert np.max(np.abs(phi / phi.max() - oc.bayes_posterior(d))) <= 1e-9

    def test_deliberate_deviation_detected(self):
        rng = Rng(16)
        for _ in range(200):
            d = one_instance(rng, 16, True)
            phi = oc.bayes_posterior(d).copy()
            bump = int(np.argmax(d.f))  # perturb where the marginal has mass
            phi[bump] = min(1.0, phi[bump] + 0.2) if phi[bump] < 0.9 else phi[bump] - 0.2
            f_phi = oc.induced_positive_density(d, phi)
            assert np.max(np.abs(f_phi - d.f_p)) > 1e-12
            assert np.max(np.abs(phi / phi.max() - oc.bayes_posterior(d))) > 1e-9


class TestExactRisks:
    def test_all_positive_scorer_with_unit_prior(self):
        # asserting pi=1 and predicting everything positive drives the
        # estimated risk to ~0, below the risk at the true prior
        rng = Rng(17)
        for _ in range(100):
            d = one_instance(rng, 16)
            scores = np.full(d.k, 10.0)
            at_one, _ = oc.exact_pu_risks(scores, d, pi_p=1.0 - 1e-12)
            at_true, _ = oc.exact_pu_risks(scores, d, pi_p=d.pi_p)
            assert at_one <= at_true

    def test_constant_zero_scorer(self):
        rng = Rng(18)
        d = one_instance(rng, 8)
        upu, nnpu = oc.exact_pu_risks(np.zeros(d.k), d, 0.5)
        assert upu == pytest.approx(0.5, abs=1e-12)
        assert nnpu == pytest.approx(0.5, abs=1e-12)


class TestSuites:
    def test_all_pass_briefly(self):
        results = oc.run_property_suites(trials=50, seed=123)
        assert all(r.passed for r in results), [(r.name, r.failures) for r in results]

    def test_injected_bug_is_caught(self, monkeypatch):
        # drop the lvar(posterior) term: the identity residual becomes
        # |lvar(posterior)| which is visibly nonzero
        real = oc.exact_lvar

        def broken(d, phi):
            # each joint of the stack at its posterior gets 0
            at_posterior = np.all(phi == oc.bayes_posterior(d), axis=-1)
            return np.where(at_posterior, 0.0, real(d, phi))

        monkeypatch.setattr(oc, "exact_lvar", broken)
        result = oc.suite_kl_identity(trials=20, seed=0)
        assert not result.passed
        assert result.worst_residual > 1e-3

    @pytest.fixture
    def trials(self, monkeypatch):
        """The (residual, instance, phi) of every trial of every suite call,
        in trial order, one list per call."""
        calls = []
        real = oc._run_suite

        def recording(name, trials, seed, check, tol):
            seen = []
            calls.append(seen)

            def gen(rngs):
                chunk = [None] * len(rngs)
                for group in check(rngs):
                    chunk_trials, d, detail, residuals = group
                    for j, i in enumerate(chunk_trials.tolist()):
                        chunk[i] = (residuals[j], d[j], None if detail is None else detail[j])
                    yield group
                seen.extend(chunk)

            return real(name, trials, seed, gen, tol)

        monkeypatch.setattr(oc, "_run_suite", recording)
        return calls

    @pytest.mark.parametrize("suite", oc.ALL_SUITES, ids=lambda s: s.__name__)
    def test_one_trial_reruns_trial_t(self, suite, trials):
        # what the CLI's "rerun with seed" hint promises: trial t of a run
        # is the only trial of the run at seed + t
        suite(trials=40, seed=7)
        for t in (0, 1, 17, 39):
            suite(trials=1, seed=7 + t)
            [(residual, d, phi)] = trials[-1]
            want_residual, want_d, want_phi = trials[0][t]
            assert bits(residual) == bits(want_residual), t
            for a, b in ((d.f, want_d.f), (d.f_p, want_d.f_p), (d.f_n, want_d.f_n),
                         ([d.pi_p], [want_d.pi_p]), (phi, want_phi)):
                assert (a is None) == (b is None) and (a is None or
                                                       np.array_equal(bits(a), bits(b))), t

    def test_batch_of_instances_is_drawn_one_stream_at_a_time(self):
        anchors = [False, True, True, False, True]
        streams = [Rng(30 + i) for i in range(5)]
        groups = oc.random_instances(streams, 12, anchors)
        ks = [d.k for _, d in groups]
        assert ks == sorted(set(ks))  # one stack per k, in increasing order
        together = {}
        for trials, d in groups:
            assert d.f.shape == (len(trials), d.k) and trials.tolist() == sorted(trials)
            together.update((i, d[j]) for j, i in enumerate(trials.tolist()))
        assert sorted(together) == list(range(5))
        for i, rng in enumerate(streams):
            d = together[i]
            # one output each for k, the 2k exponentials, pi_p and, when
            # anchored, the planted point (no randbelow draw rejects here)
            assert rng.counter == 2 + 2 * d.k + anchors[i]
            single = Rng(30 + i)
            alone = one_instance(single, 12, anchors[i])
            assert single.counter == rng.counter
            assert np.array_equal(bits(d.f), bits(alone.f)) and d.pi_p == alone.pi_p
            assert np.array_equal(bits(d.f_p), bits(alone.f_p))
            assert (d.f_n == 0.0).any() == anchors[i]
        assert oc.random_instances([], 12) == []
        for k_max in (1, 0):
            with pytest.raises(ValueError):
                oc.random_instances([Rng(0)], k_max)

    def test_instances_are_dirichlet(self):
        # with k_max = 3, k is 2 or 3, and f_p[0] and f_n[0] of an unanchored
        # instance are each the first entry of a Dirichlet(1, ..., 1), which
        # is Beta(1, k - 1)
        groups = oc.random_instances([Rng(50_000 + i) for i in range(20_000)], 3)
        assert [d.k for _, d in groups] == [2, 3]
        for trials, d in groups:
            assert len(trials) > 9000
            for first in (d.f_p[:, 0], d.f_n[:, 0]):
                assert stats.kstest(first, stats.beta(1, d.k - 1).cdf).pvalue > 0.001, d.k

    @pytest.mark.parametrize("suite", oc.ALL_SUITES, ids=lambda s: s.__name__)
    def test_chunks_do_not_change_the_result(self, suite, monkeypatch):
        whole = suite(trials=45, seed=3)
        monkeypatch.setattr(oc, "_CHUNK", 7)
        chunked = suite(trials=45, seed=3)
        assert bits(chunked.worst_residual) == bits(whole.worst_residual)
        assert chunked == whole

    def test_memory_does_not_grow_with_trials(self):
        # a suite holds one chunk's instances at once; holding every
        # trial's, its peak grows about fourfold from 1000 to 4000 trials
        peaks = []
        for trials in (1000, 4000):
            tracemalloc.start()
            try:
                assert oc.suite_l2_identity(trials=trials, seed=0).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.2 * peaks[0], peaks

    def test_deterministic_counterexample(self, monkeypatch):
        monkeypatch.setattr(oc, "exact_lvar", lambda d, phi: 0.0)
        r1 = oc.suite_kl_identity(trials=10, seed=5)
        r2 = oc.suite_kl_identity(trials=10, seed=5)
        assert (r1.worst_trial, r1.worst_detail) == (r2.worst_trial, r2.worst_detail)

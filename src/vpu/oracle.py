"""Exact finite-support oracle.

Every quantity the learning method estimates from samples has an exact
counterpart on a discrete joint distribution: the posterior, the variational
loss, the induced positive density, the KL identity, the misclassification
rate, and the selection-bias bound.  Property suites draw random instances
and check the identities to tight tolerances, with no sampling error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .losses import variational_loss_values
from .sampling import Rng, _uniforms, sample_gamma


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite-support joint: marginal f, positive-class conditional f_p,
    class prior pi_p, and the induced negative conditional f_n.

    Invariant: f = pi_p * f_p + (1 - pi_p) * f_n with f_n >= 0 entrywise,
    and all three sum to 1 within 1e-12.
    """

    f: np.ndarray
    f_p: np.ndarray
    pi_p: float
    f_n: np.ndarray = field(default=None)  # derived when omitted

    def __post_init__(self):
        f = np.asarray(self.f, dtype=np.float64)
        f_p = np.asarray(self.f_p, dtype=np.float64)
        if f.shape != f_p.shape or f.ndim != 1:
            raise ValueError("f and f_p must be 1-D with equal length")
        if not 0.0 < self.pi_p < 1.0:
            raise ValueError("pi_p must be in (0, 1)")
        if self.f_n is None:
            f_n = (f - self.pi_p * f_p) / (1.0 - self.pi_p)
            if np.min(f_n) < -1e-12:
                raise ValueError("marginal is not a valid mixture: f_n has "
                                 f"negative mass {np.min(f_n):.3e}")
            f_n = np.maximum(f_n, 0.0)
        else:
            f_n = np.asarray(self.f_n, dtype=np.float64)
            if np.min(f_n) < 0:
                raise ValueError("f_n must be nonnegative")
        for name, vec in (("f", f), ("f_p", f_p), ("f_n", f_n)):
            if np.min(vec) < 0:
                raise ValueError(f"{name} must be nonnegative")
            if abs(vec.sum() - 1.0) > 1e-12:
                raise ValueError(f"{name} must sum to 1 (off by {vec.sum() - 1.0:.3e})")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "f_p", f_p)
        object.__setattr__(self, "f_n", f_n)

    @classmethod
    def from_conditionals(cls, f_p, f_n, pi_p: float) -> "DiscreteJoint":
        f_p = np.asarray(f_p, dtype=np.float64)
        f_n = np.asarray(f_n, dtype=np.float64)
        f = pi_p * f_p + (1.0 - pi_p) * f_n
        f = f / f.sum()
        return cls(f=f, f_p=f_p, pi_p=pi_p, f_n=f_n)

    @property
    def k(self) -> int:
        return self.f.size


def bayes_posterior(d: DiscreteJoint) -> np.ndarray:
    """The posterior pi_p * f_p / f, zero where f has no mass."""
    out = np.zeros(d.k)
    np.divide(d.pi_p * d.f_p, d.f, out=out, where=d.f > 0)
    return out


def exact_lvar(d: DiscreteJoint, phi: np.ndarray) -> float:
    """log E_f[phi] - E_{f_p}[log phi]; +inf if phi vanishes on f_p support."""
    phi = np.asarray(phi, dtype=np.float64)
    support = d.f_p > 0
    if np.any(phi[support] <= 0.0):
        return math.inf
    mean_u = float(d.f @ phi)
    if mean_u <= 0.0:
        raise ValueError("phi must have positive mass under f")
    return math.log(mean_u) - float(d.f_p[support] @ np.log(phi[support]))


def induced_positive_density(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """phi * f / E_f[phi], renormalized to sum exactly to 1."""
    phi = np.asarray(phi, dtype=np.float64)
    raw = phi * d.f
    total = raw.sum()
    if total <= 0.0:
        raise ValueError("phi must have positive mass under f")
    return raw / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    support = p > 0
    if np.any(q[support] <= 0.0):
        return math.inf
    return float(p[support] @ np.log(p[support] / q[support]))


def kl_identity_residual(d: DiscreteJoint, phi: np.ndarray) -> float:
    """|KL(f_p || f_phi) - (lvar(phi) - lvar(posterior))|; zero in exact
    arithmetic for every admissible phi."""
    kl = kl_divergence(d.f_p, induced_positive_density(d, phi))
    gap = exact_lvar(d, phi) - exact_lvar(d, bayes_posterior(d))
    return abs(kl - gap)


def exact_minimizer(d: DiscreteJoint, labeled: np.ndarray | None = None) -> np.ndarray:
    """The variational minimizer with max value 1: (l/f) / max(l/f), where
    l defaults to f_p (pass the biased labeled distribution to study bias)."""
    labeled = d.f_p if labeled is None else np.asarray(labeled, dtype=np.float64)
    if np.any((labeled > 0) & (d.f == 0)):
        raise ValueError("labeled distribution puts mass where f has none")
    ratio = np.zeros(d.k)
    np.divide(labeled, d.f, out=ratio, where=d.f > 0)
    top = ratio.max()
    if top <= 0:
        raise ValueError("labeled distribution has no mass")
    return ratio / top


def misclassification_rate(d: DiscreteJoint, phi: np.ndarray) -> float:
    """Error of the rule 'positive iff phi >= 0.5' under the true joint."""
    phi = np.asarray(phi, dtype=np.float64)
    post = bayes_posterior(d)
    per_point = np.where(phi >= 0.5, 1.0 - post, post)
    return float(d.f @ per_point)


def bias_bound(c1: float, c2: float, epsilon: float) -> float:
    """max{c2/c1 - 1, 1 - c1 (1 - eps) / c2}."""
    return max(c2 / c1 - 1.0, 1.0 - c1 * (1.0 - epsilon) / c2)


def theorem3_check(d: DiscreteJoint, f_p_prime: np.ndarray,
                   epsilon: float | None = None) -> tuple[float, float, bool]:
    """Excess misclassification of the minimizer trained on a biased labeled
    distribution versus the instance-computed bound.

    c1, c2 are the tight multiplicative envelope of f_p_prime around f_p;
    epsilon defaults to 1 - max posterior (the anchor-candidate slack).
    Returns (lhs, bound, holds).
    """
    f_p_prime = np.asarray(f_p_prime, dtype=np.float64)
    support = d.f_p > 0
    if np.any(f_p_prime < 0):
        raise ValueError("f_p_prime must be nonnegative")
    ratio = f_p_prime[support] / d.f_p[support]
    c1 = float(ratio.min())
    c2 = float(ratio.max()) if not np.any(f_p_prime[~support] > 0) else math.inf
    post = bayes_posterior(d)
    if epsilon is None:
        epsilon = 1.0 - float(post.max())
    phi = exact_minimizer(d, f_p_prime)
    lhs = abs(misclassification_rate(d, phi) - misclassification_rate(d, post))
    bound = bias_bound(c1, c2, epsilon) if math.isfinite(c2) else math.inf
    return lhs, bound, lhs <= bound + 1e-12


def check_irreducibility(d: DiscreteJoint, tol: float = 1e-9) -> bool:
    """True iff some support point of f_p has f_n/f_p <= tol, i.e. an
    almost-surely-positive anchor region exists."""
    support = d.f_p > 0
    return bool(np.any(d.f_n[support] <= tol * d.f_p[support]))


def posterior_threshold(pi_p: float, tol: float) -> float:
    """The posterior level equivalent to the density-ratio test at `tol`:
    f_n/f_p <= tol  iff  posterior >= this threshold."""
    return 1.0 / (1.0 + (1.0 - pi_p) / pi_p * tol)


def exact_l2(d: DiscreteJoint, phi: np.ndarray) -> float:
    """E_f[phi^2]/E_f[phi]^2 - 2 E_{f_p}[phi]/E_f[phi]."""
    phi = np.asarray(phi, dtype=np.float64)
    mean_u = float(d.f @ phi)
    if mean_u <= 0.0:
        raise ValueError("phi must have positive mass under f")
    return float(d.f @ (phi * phi)) / mean_u**2 - 2.0 * float(d.f_p @ phi) / mean_u


def l2_identity_residual(d: DiscreteJoint, phi: np.ndarray) -> float:
    """|(L2(phi) - L2(posterior)) - sum (f_phi - f_p)^2 / f|."""
    f_phi = induced_positive_density(d, phi)
    support = d.f > 0
    weighted = float(np.sum((f_phi[support] - d.f_p[support]) ** 2 / d.f[support]))
    gap = exact_l2(d, phi) - exact_l2(d, bayes_posterior(d))
    return abs(gap - weighted)


def exact_pu_risks(scores, d: DiscreteJoint, pi_p: float) -> tuple[float, float]:
    """Exact uPU and nnPU risks of a per-point margin vector under (f_p, f)
    for an asserted prior pi_p (which need not be the true one)."""
    l_neg = ad.sigmoid(np.asarray(scores, dtype=np.float64)).value
    l_pos = 1.0 - l_neg  # sigmoid(-g)
    mean_p_pos = float(d.f_p @ l_pos)
    mean_p_neg = float(d.f_p @ l_neg)
    mean_u_neg = float(d.f @ l_neg)
    upu = pi_p * (mean_p_pos - mean_p_neg) + mean_u_neg
    nnpu = pi_p * mean_p_pos + max(0.0, mean_u_neg - pi_p * mean_p_neg)
    return upu, nnpu


# -- random instances -------------------------------------------------------------


def random_dirichlet(k: int, rng: Rng) -> np.ndarray:
    """Dirichlet(1, ..., 1) via normalized unit exponentials.

    Every entry is positive: a Gamma(1) draw is ``d * v`` with d = 2/3 and
    ``v = (1 + c x)^3 >= 2^-159``, since a positive ``1 + c x`` is exact and
    a multiple of 2^-53.
    """
    draws = np.array([sample_gamma(1.0, rng) for _ in range(k)])
    return draws / draws.sum()


def random_instance(rng: Rng, k_max: int = 32, anchor: bool = False) -> DiscreteJoint:
    """A valid random joint, built from conditionals so the mixture identity
    holds exactly.  With `anchor`, one point gets f_n = 0 (and f_p > 0),
    which plants an almost-surely-positive region.
    """
    k = 2 + rng.randbelow(k_max - 1)
    f_p = random_dirichlet(k, rng)
    f_n = random_dirichlet(k, rng)
    pi_p = 0.1 + 0.8 * rng.uniform()
    if anchor:
        # k >= 2 positive entries: f_n keeps positive mass and f_p[i] > 0
        i = rng.randbelow(k)
        f_n[i] = 0.0
        f_n = f_n / f_n.sum()
    return DiscreteJoint.from_conditionals(f_p, f_n, pi_p)


def random_phi(k: int, rng: Rng, lo: float = 1e-3, hi: float = 1.0) -> np.ndarray:
    return lo + (hi - lo) * _uniforms(rng, k)


def random_biased_labeled(d: DiscreteJoint, rng: Rng,
                          spread: float = 0.3) -> np.ndarray:
    """A labeled distribution inside a multiplicative envelope of f_p,
    renormalized; zero exactly where f_p is zero."""
    factors = 1.0 - spread + 2.0 * spread * _uniforms(rng, d.k)
    raw = d.f_p * factors
    return raw / raw.sum()


# -- property suites ---------------------------------------------------------------


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: int
    worst_residual: float
    worst_trial: int = -1
    worst_detail: str = ""

    @property
    def passed(self) -> bool:
        return self.failures == 0


def _instance_repr(d: DiscreteJoint, phi=None) -> str:
    parts = [f"f={d.f.tolist()!r}", f"f_p={d.f_p.tolist()!r}", f"pi_p={d.pi_p!r}"]
    if phi is not None:
        parts.append(f"phi={np.asarray(phi).tolist()!r}")
    return "DiscreteJoint instance: " + ", ".join(parts)


def _run_suite(name, trials, seed, gen_and_residual, tol) -> SuiteResult:
    """`gen_and_residual(rng)` returns the trial's residual and the instance
    (and phi, or None) behind it; only a new worst trial's is formatted."""
    failures = 0
    worst = 0.0
    worst_trial = -1
    worst_detail = ""
    for t in range(trials):
        rng = Rng(seed + t)
        residual, d, phi = gen_and_residual(rng)
        if residual > worst:
            worst, worst_trial, worst_detail = residual, t, _instance_repr(d, phi)
        if residual > tol:
            failures += 1
    return SuiteResult(name, trials, failures, worst, worst_trial, worst_detail)


def suite_kl_identity(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max, anchor=rng.uniform() < 0.5)
        phi = random_phi(d.k, rng)
        return kl_identity_residual(d, phi), d, phi

    return _run_suite("kl_identity", trials, seed, check, 1e-10)


def suite_kl_nonnegative(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max)
        phi = random_phi(d.k, rng)
        gap = exact_lvar(d, phi) - exact_lvar(d, bayes_posterior(d))
        return max(0.0, -gap), d, phi

    return _run_suite("kl_nonnegative", trials, seed, check, 1e-12)


def suite_scale_invariance(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max)
        phi = random_phi(d.k, rng)
        base_exact = exact_lvar(d, phi)
        phi_p = random_phi(4 + rng.randbelow(29), rng)
        phi_u = random_phi(4 + rng.randbelow(29), rng)
        base_emp = float(variational_loss_values(phi_p, phi_u).value)
        worst = 0.0
        for c in (0.1, 0.5, 0.9):
            worst = max(worst, abs(exact_lvar(d, c * phi) - base_exact))
            emp = float(variational_loss_values(c * phi_p, c * phi_u).value)
            worst = max(worst, abs(emp - base_emp))
        return worst, d, phi

    return _run_suite("scale_invariance", trials, seed, check, 1e-10)


def suite_minimizer_family(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max, anchor=True)
        phi = exact_minimizer(d)
        residual = float(np.max(np.abs(phi / phi.max() - bayes_posterior(d))))
        return residual, d, None

    return _run_suite("minimizer_family", trials, seed, check, 1e-9)


def suite_bias_bound(trials: int = 1000, seed: int = 0, k_max: int = 16) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max, anchor=rng.uniform() < 0.5)
        labeled = random_biased_labeled(d, rng)
        lhs, bound, holds = theorem3_check(d, labeled)
        return (0.0 if holds else lhs - bound), d, labeled

    return _run_suite("bias_bound", trials, seed, check, 1e-12)


def suite_irreducibility(trials: int = 1000, seed: int = 0, k_max: int = 32,
                         tol: float = 1e-9) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max, anchor=rng.uniform() < 0.5)
        via_ratio = check_irreducibility(d, tol)
        via_posterior = bool(np.max(bayes_posterior(d)) >= posterior_threshold(d.pi_p, tol))
        return (0.0 if via_ratio == via_posterior else 1.0), d, None

    return _run_suite("irreducibility_equiv", trials, seed, check, 0.5)


def suite_l2_identity(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rng):
        d = random_instance(rng, k_max)
        phi = random_phi(d.k, rng)
        return l2_identity_residual(d, phi), d, phi

    return _run_suite("l2_identity", trials, seed, check, 1e-10)


ALL_SUITES = (
    suite_kl_identity,
    suite_kl_nonnegative,
    suite_scale_invariance,
    suite_minimizer_family,
    suite_bias_bound,
    suite_irreducibility,
    suite_l2_identity,
)


def run_property_suites(trials: int = 1000, seed: int = 0) -> list[SuiteResult]:
    return [suite(trials=trials, seed=seed) for suite in ALL_SUITES]

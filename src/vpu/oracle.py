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
from .sampling import (Rng, _exponentials, _randbelow_lockstep, _split, _take_lockstep,
                       _uniform_lockstep, _uniforms_lockstep)


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite-support joint from its class conditionals f_p and f_n and the
    class prior pi_p; the marginal f = pi_p * f_p + (1 - pi_p) * f_n is
    derived, divided by its sum.

    f_p and f_n are 1-D with equal length, finite, nonnegative and sum to 1
    within 1e-12, and 0 < pi_p < 1.
    """

    f_p: np.ndarray
    f_n: np.ndarray
    pi_p: float
    f: np.ndarray = field(init=False)

    def __post_init__(self):
        f_p = np.asarray(self.f_p, dtype=np.float64)
        f_n = np.asarray(self.f_n, dtype=np.float64)
        if f_p.shape != f_n.shape or f_p.ndim != 1:
            raise ValueError("f_p and f_n must be 1-D with equal length")
        if not 0.0 < self.pi_p < 1.0:
            raise ValueError("pi_p must be in (0, 1)")
        for name, vec in (("f_p", f_p), ("f_n", f_n)):
            if not np.isfinite(vec).all():  # NaN fails every comparison below
                raise ValueError(f"{name} must be finite")
            if vec.min() < 0:
                raise ValueError(f"{name} must be nonnegative")
            off = vec.sum() - 1.0
            if abs(off) > 1e-12:
                raise ValueError(f"{name} must sum to 1 (off by {off:.3e})")
        f = self.pi_p * f_p + (1.0 - self.pi_p) * f_n
        object.__setattr__(self, "f", f / f.sum())
        object.__setattr__(self, "f_p", f_p)
        object.__setattr__(self, "f_n", f_n)

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


def random_instances(rngs, k_max: int = 32, anchor=False) -> list[DiscreteJoint]:
    """A valid random joint for each stream in `rngs`.  With `anchor` (one
    flag for all or one per stream), one point gets f_n = 0 (and f_p > 0),
    which plants an almost-surely-positive region.

    An instance takes, in order: k = 2 + randbelow(k_max - 1); 2k unit
    exponentials, one output each, which normalized are f_p and f_n (each
    Dirichlet(1, ..., 1)); pi_p = 0.1 + 0.8 U; and, with `anchor`, the
    point randbelow(k) where f_n is set to 0.  Each stage is drawn for all
    streams at once (see `sampling`), so an instance does not depend on
    which other streams are drawn with it.
    """
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    anchors = np.broadcast_to(np.asarray(anchor, dtype=bool), (len(rngs),))
    ks = 2 + _randbelow_lockstep(np.full(len(rngs), k_max - 1), rngs)
    draws = _split(_exponentials(_take_lockstep(2 * ks, rngs)), np.cumsum(2 * ks))
    pis = (0.1 + 0.8 * _uniform_lockstep(rngs)).tolist()
    anchored = np.flatnonzero(anchors)
    points = iter(_randbelow_lockstep(ks[anchored], [rngs[i] for i in anchored]).tolist())
    instances = []
    for k, g, pi_p, planted in zip(ks.tolist(), draws, pis, anchors.tolist()):
        f_p, f_n = g.reshape(2, k)
        f_p, f_n = f_p / f_p.sum(), f_n / f_n.sum()
        if planted:
            # k >= 2 entries, each at least 1.1e-16 (see `_exponentials`):
            # f_n keeps positive mass and f_p[i] > 0
            f_n[next(points)] = 0.0
            f_n = f_n / f_n.sum()
        instances.append(DiscreteJoint(f_p, f_n, pi_p))
    return instances


def _biased_labeled(d: DiscreteJoint, u: np.ndarray, spread: float = 0.3) -> np.ndarray:
    """A labeled distribution inside a multiplicative envelope of f_p,
    renormalized; zero exactly where f_p is zero.  `u` holds one uniform
    per point."""
    raw = d.f_p * (1.0 - spread + 2.0 * spread * u)
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


_CHUNK = 1024  # trials drawn at once, so a suite's memory does not grow with `trials`


def _run_suite(name, trials, seed, gen_and_residual, tol) -> SuiteResult:
    """`gen_and_residual(rngs)` yields, for each trial in `rngs` in order,
    its residual and the instance (and phi, or None) behind it, where trial
    t draws from ``Rng(seed + t)``; only a new worst trial's is formatted.

    The checks draw one stage of every trial at a time, in the order one
    trial draws them, so a trial's draws do not depend on the others:
    ``trials=1, seed=seed + t`` reruns trial t, and the trials are drawn in
    chunks of `_CHUNK` with the same bits.
    """
    failures = 0
    worst = 0.0
    worst_trial = -1
    worst_detail = ""
    for start in range(0, trials, _CHUNK):
        rngs = [Rng(seed + t) for t in range(start, min(start + _CHUNK, trials))]
        for t, (residual, d, phi) in enumerate(gen_and_residual(rngs), start):
            if residual > worst:
                worst, worst_trial, worst_detail = residual, t, _instance_repr(d, phi)
            if residual > tol:
                failures += 1
    return SuiteResult(name, trials, failures, worst, worst_trial, worst_detail)


def _coins(rngs) -> np.ndarray:
    """``rng.uniform() < 0.5`` for each stream."""
    return _uniform_lockstep(rngs) < 0.5


def _phis(sizes, rngs) -> list[np.ndarray]:
    """A random phi in [1e-3, 1) of each size, from each stream's uniforms."""
    lo, hi = 1e-3, 1.0
    return [lo + (hi - lo) * u for u in _uniforms_lockstep(sizes, rngs)]


def suite_kl_identity(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max, anchor=_coins(rngs))
        for d, phi in zip(instances, _phis([d.k for d in instances], rngs)):
            yield kl_identity_residual(d, phi), d, phi

    return _run_suite("kl_identity", trials, seed, check, 1e-10)


def suite_kl_nonnegative(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max)
        for d, phi in zip(instances, _phis([d.k for d in instances], rngs)):
            gap = exact_lvar(d, phi) - exact_lvar(d, bayes_posterior(d))
            yield max(0.0, -gap), d, phi

    return _run_suite("kl_nonnegative", trials, seed, check, 1e-12)


def suite_scale_invariance(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def sizes(rngs):
        return 4 + _randbelow_lockstep(np.full(len(rngs), 29), rngs)

    def check(rngs):
        instances = random_instances(rngs, k_max)
        phis = _phis([d.k for d in instances], rngs)
        phis_p = _phis(sizes(rngs), rngs)
        phis_u = _phis(sizes(rngs), rngs)
        for d, phi, phi_p, phi_u in zip(instances, phis, phis_p, phis_u):
            base_exact = exact_lvar(d, phi)
            base_emp = float(variational_loss_values(phi_p, phi_u).value)
            worst = 0.0
            for c in (0.1, 0.5, 0.9):
                worst = max(worst, abs(exact_lvar(d, c * phi) - base_exact))
                emp = float(variational_loss_values(c * phi_p, c * phi_u).value)
                worst = max(worst, abs(emp - base_emp))
            yield worst, d, phi

    return _run_suite("scale_invariance", trials, seed, check, 1e-10)


def suite_minimizer_family(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        for d in random_instances(rngs, k_max, anchor=True):
            phi = exact_minimizer(d)
            residual = float(np.max(np.abs(phi / phi.max() - bayes_posterior(d))))
            yield residual, d, None

    return _run_suite("minimizer_family", trials, seed, check, 1e-9)


def suite_bias_bound(trials: int = 1000, seed: int = 0, k_max: int = 16) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max, anchor=_coins(rngs))
        factors = _uniforms_lockstep([d.k for d in instances], rngs)
        for d, u in zip(instances, factors):
            labeled = _biased_labeled(d, u)
            lhs, bound, holds = theorem3_check(d, labeled)
            yield (0.0 if holds else lhs - bound), d, labeled

    return _run_suite("bias_bound", trials, seed, check, 1e-12)


def suite_irreducibility(trials: int = 1000, seed: int = 0, k_max: int = 32,
                         tol: float = 1e-9) -> SuiteResult:
    def check(rngs):
        for d in random_instances(rngs, k_max, anchor=_coins(rngs)):
            via_ratio = check_irreducibility(d, tol)
            via_posterior = bool(np.max(bayes_posterior(d)) >= posterior_threshold(d.pi_p, tol))
            yield (0.0 if via_ratio == via_posterior else 1.0), d, None

    return _run_suite("irreducibility_equiv", trials, seed, check, 0.5)


def suite_l2_identity(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max)
        for d, phi in zip(instances, _phis([d.k for d in instances], rngs)):
            yield l2_identity_residual(d, phi), d, phi

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

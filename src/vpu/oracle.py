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
from .losses import variational_loss_value
from .sampling import (Rng, _exponentials, _randbelow_lockstep, _take_lockstep,
                       _uniform_lockstep, _uniforms_lockstep)


@dataclass(frozen=True)
class DiscreteJoint:
    """Finite-support joints from their class conditionals f_p and f_n, of
    shape (..., k), and class priors pi_p, of shape (...): a single joint is
    the 1-D case, and ``d[i]`` indexes the stack.  The marginal f = pi_p *
    f_p + (1 - pi_p) * f_n is derived, divided by its sum.  Each f_p and
    f_n is finite, nonnegative and sums to 1 within 1e-12; 0 < pi_p < 1.
    """

    f_p: np.ndarray
    f_n: np.ndarray
    pi_p: np.ndarray
    f: np.ndarray = field(init=False)

    def __post_init__(self):
        f_p = np.asarray(self.f_p, dtype=np.float64)
        f_n = np.asarray(self.f_n, dtype=np.float64)
        pi_p = np.asarray(self.pi_p, dtype=np.float64)
        if f_p.ndim < 1 or f_p.shape != f_n.shape or pi_p.shape != f_p.shape[:-1]:
            raise ValueError("f_p and f_n must have one shape (..., k), and pi_p shape (...)")
        if not np.all((0.0 < pi_p) & (pi_p < 1.0)):
            raise ValueError("pi_p must be in (0, 1)")
        for name, vec in (("f_p", f_p), ("f_n", f_n)):
            if not np.isfinite(vec).all():  # NaN fails every comparison below
                raise ValueError(f"{name} must be finite")
            if vec.min() < 0:
                raise ValueError(f"{name} must be nonnegative")
            off = (vec.sum(axis=-1) - 1.0).ravel()
            if np.any(np.abs(off) > 1e-12):
                raise ValueError(f"{name} must sum to 1 (off by {off[np.abs(off).argmax()]:.3e})")
        f = pi_p[..., None] * f_p + (1.0 - pi_p)[..., None] * f_n
        f /= f.sum(axis=-1, keepdims=True)
        for name, value in (("f", f), ("f_p", f_p), ("f_n", f_n), ("pi_p", pi_p)):
            object.__setattr__(self, name, value)

    @property
    def k(self) -> int:
        return self.f.shape[-1]

    def __getitem__(self, i) -> DiscreteJoint:
        return DiscreteJoint(self.f_p[i], self.f_n[i], self.pi_p[i])


# Each exact quantity takes a stack `d` and arrays over its points that
# broadcast against d.f, and reduces over the last axis only, with the bits
# it has on each joint alone: a sum is a row's pairwise sum, a dot product
# is `_dot`, and a log or square of a joint's scalar is Python's (numpy's
# differ in the last bit for some inputs).  A stack is never padded.
_log = np.vectorize(math.log, otypes=[np.float64])
_square = np.vectorize(lambda x: x**2, otypes=[np.float64])


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` of each pair of rows of `a` and `b`, with its bits."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def bayes_posterior(d: DiscreteJoint) -> np.ndarray:
    """The posterior pi_p * f_p / f, zero where f has no mass."""
    return np.divide(d.pi_p[..., None] * d.f_p, d.f, out=np.zeros(d.f.shape), where=d.f > 0)


def exact_lvar(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """log E_f[phi] - E_{f_p}[log phi]; +inf if phi vanishes on f_p support."""
    phi = np.asarray(phi, dtype=np.float64)
    support = d.f_p > 0
    vanishes = np.any(support & (phi <= 0.0), axis=-1)
    mean_u = _dot(d.f, phi)
    if np.any((mean_u <= 0.0) & ~vanishes):
        raise ValueError("phi must have positive mass under f")
    cross = _dot(d.f_p, np.log(np.where(support & (phi > 0.0), phi, 1.0)))
    lvar = _log(np.where(vanishes, 1.0, mean_u)) - cross
    return np.where(vanishes, math.inf, lvar)[()]


def induced_positive_density(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """phi * f / E_f[phi], renormalized to sum exactly to 1."""
    raw = np.asarray(phi, dtype=np.float64) * d.f
    total = raw.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise ValueError("phi must have positive mass under f")
    return raw / total


def kl_divergence(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    support = p > 0
    with np.errstate(divide="ignore", invalid="ignore"):
        kl = _dot(p, np.where(support, np.log(p / q), 0.0))
    return np.where(np.any(support & (q <= 0.0), axis=-1), math.inf, kl)[()]


def kl_identity_residual(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """|KL(f_p || f_phi) - (lvar(phi) - lvar(posterior))|; zero in exact
    arithmetic for every admissible phi."""
    kl = kl_divergence(d.f_p, induced_positive_density(d, phi))
    gap = exact_lvar(d, phi) - exact_lvar(d, bayes_posterior(d))
    return np.abs(kl - gap)


def exact_minimizer(d: DiscreteJoint, labeled: np.ndarray | None = None) -> np.ndarray:
    """The variational minimizer with max value 1: (l/f) / max(l/f), where
    l defaults to f_p (pass the biased labeled distribution to study bias)."""
    labeled = d.f_p if labeled is None else np.asarray(labeled, dtype=np.float64)
    if np.any((labeled > 0) & (d.f == 0)):
        raise ValueError("labeled distribution puts mass where f has none")
    ratio = np.zeros(np.broadcast_shapes(labeled.shape, d.f.shape))
    np.divide(labeled, d.f, out=ratio, where=d.f > 0)
    top = ratio.max(axis=-1, keepdims=True)
    if np.any(top <= 0):
        raise ValueError("labeled distribution has no mass")
    return ratio / top


def misclassification_rate(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """Error of the rule 'positive iff phi >= 0.5' under the true joint."""
    post = bayes_posterior(d)
    return _dot(d.f, np.where(np.asarray(phi, dtype=np.float64) >= 0.5, 1.0 - post, post))


def bias_bound(c1, c2, epsilon):
    """max{c2/c1 - 1, 1 - c1 (1 - eps) / c2}, elementwise."""
    return np.maximum(c2 / c1 - 1.0, 1.0 - c1 * (1.0 - epsilon) / c2)


def theorem3_check(d: DiscreteJoint, f_p_prime: np.ndarray, epsilon=None):
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
    ratio = np.full(np.broadcast_shapes(f_p_prime.shape, d.f.shape), math.nan)
    np.divide(f_p_prime, d.f_p, out=ratio, where=support)  # NaN off the support
    c1 = np.nanmin(ratio, axis=-1)
    c2 = np.where(np.any(~support & (f_p_prime > 0), axis=-1), math.inf, np.nanmax(ratio, axis=-1))
    post = bayes_posterior(d)
    if epsilon is None:
        epsilon = 1.0 - post.max(axis=-1)
    phi = exact_minimizer(d, f_p_prime)
    lhs = np.abs(misclassification_rate(d, phi) - misclassification_rate(d, post))
    bound = bias_bound(c1, c2, epsilon)  # +inf where c2 is
    return lhs, bound, lhs <= bound + 1e-12


def check_irreducibility(d: DiscreteJoint, tol: float = 1e-9) -> np.ndarray:
    """True iff some support point of f_p has f_n/f_p <= tol, i.e. an
    almost-surely-positive anchor region exists."""
    return np.any((d.f_p > 0) & (d.f_n <= tol * d.f_p), axis=-1)


def posterior_threshold(pi_p, tol: float):
    """The posterior level equivalent to the density-ratio test at `tol`:
    f_n/f_p <= tol  iff  posterior >= this threshold."""
    return 1.0 / (1.0 + (1.0 - pi_p) / pi_p * tol)


def exact_l2(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """E_f[phi^2]/E_f[phi]^2 - 2 E_{f_p}[phi]/E_f[phi]."""
    phi = np.asarray(phi, dtype=np.float64)
    mean_u = _dot(d.f, phi)
    if np.any(mean_u <= 0.0):
        raise ValueError("phi must have positive mass under f")
    return _dot(d.f, phi * phi) / _square(mean_u) - 2.0 * _dot(d.f_p, phi) / mean_u


def l2_identity_residual(d: DiscreteJoint, phi: np.ndarray) -> np.ndarray:
    """|(L2(phi) - L2(posterior)) - sum (f_phi - f_p)^2 / f|."""
    f_phi = induced_positive_density(d, phi)
    weighted = np.divide((f_phi - d.f_p) ** 2, d.f, out=np.zeros(f_phi.shape),
                         where=d.f > 0).sum(axis=-1)
    gap = exact_l2(d, phi) - exact_l2(d, bayes_posterior(d))
    return np.abs(gap - weighted)


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


def _runs(flat: np.ndarray, sizes: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """`flat` cut into one run per stream, of ``sizes[i]`` entries, as
    (trials, runs) for each size in increasing order: the indices of the
    streams with runs of that size, and their runs stacked."""
    starts = np.cumsum(sizes) - sizes
    # the sizes present, by count: np.unique's sort maps 1.6 MB of code (numpy 2.4, x86-64)
    groups = [np.flatnonzero(sizes == size) for size in np.flatnonzero(np.bincount(sizes))]
    return [(t, flat[starts[t, None] + np.arange(sizes[t[0]])]) for t in groups]


def random_instances(rngs, k_max: int = 32,
                     anchor=False) -> list[tuple[np.ndarray, DiscreteJoint]]:
    """A valid random joint for each stream in `rngs`, stacked by support
    size k as `_runs` groups them.  With `anchor` (one flag for all or one
    per stream), one point gets f_n = 0 (and f_p > 0), which plants an
    almost-surely-positive region.

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
    ks = (2 + _randbelow_lockstep(np.full(len(rngs), k_max - 1), rngs)).astype(np.intp)
    runs = _runs(_exponentials(_take_lockstep(2 * ks, rngs)), 2 * ks)
    pis = 0.1 + 0.8 * _uniform_lockstep(rngs)
    anchored = np.flatnonzero(anchors)
    points = np.zeros(len(rngs), dtype=np.intp)
    points[anchored] = _randbelow_lockstep(ks[anchored], [rngs[i] for i in anchored])
    instances = []
    for trials, g in runs:
        g = g.reshape(len(trials), 2, -1)
        f_p = g[:, 0] / g[:, 0].sum(axis=-1, keepdims=True)
        f_n = g[:, 1] / g[:, 1].sum(axis=-1, keepdims=True)
        # k >= 2 entries, each at least 1.1e-16 (see `_exponentials`): f_n
        # keeps positive mass and f_p > 0 at the planted point
        planted = np.flatnonzero(anchors[trials])
        f_n[planted, points[trials[planted]]] = 0.0
        f_n[planted] /= f_n[planted].sum(axis=-1, keepdims=True)
        instances.append((trials, DiscreteJoint(f_p, f_n, pis[trials])))
    return instances


def _uniform_runs(sizes, rngs, lo: float = 1e-3) -> list[tuple[np.ndarray, np.ndarray]]:
    """``sizes[i]`` draws of lo + (1 - lo) U from each ``rngs[i]``, taken for
    all streams at once, as `_runs` groups them; by default, random phis."""
    sizes = np.asarray(sizes, dtype=np.intp)
    return _runs(lo + (1.0 - lo) * _uniforms_lockstep(sizes, rngs), sizes)


def _per_point(instances, rngs, lo: float = 1e-3) -> list[np.ndarray]:
    """`_uniform_runs` of one draw per point of each trial's instance."""
    sizes = np.zeros(len(rngs), dtype=np.intp)
    for trials, d in instances:
        sizes[trials] = d.k
    return [runs for _, runs in _uniform_runs(sizes, rngs, lo)]


def _biased_labeled(d: DiscreteJoint, u: np.ndarray, spread: float = 0.3) -> np.ndarray:
    """A labeled distribution inside a multiplicative envelope of f_p,
    renormalized; zero exactly where f_p is zero.  `u` holds one uniform
    per point."""
    raw = d.f_p * (1.0 - spread + 2.0 * spread * u)
    return raw / raw.sum(axis=-1, keepdims=True)


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
    parts = [f"f={d.f.tolist()!r}", f"f_p={d.f_p.tolist()!r}", f"pi_p={float(d.pi_p)!r}"]
    if phi is not None:
        parts.append(f"phi={np.asarray(phi).tolist()!r}")
    return "DiscreteJoint instance: " + ", ".join(parts)


_CHUNK = 1024  # trials drawn at once, so a suite's memory does not grow with `trials`


def _run_suite(name, trials, seed, check, tol) -> SuiteResult:
    """`check(rngs)` yields (trials, d, detail, residuals) for each stack of
    `random_instances(rngs)`: its joints, their residuals and a per-trial
    array shown with a failing instance (phi, say) or None.  Only a new
    worst trial's instance is formatted; a NaN residual is a failure, and
    the first is the worst.  Trial t draws from ``Rng(seed + t)``, one stage
    of every trial at a time, so ``trials=1, seed=seed + t`` reruns it, and
    the trials are drawn in chunks of `_CHUNK` with the same bits.
    """
    failures, worst, worst_trial, worst_detail = 0, 0.0, -1, ""
    for start in range(0, trials, _CHUNK):
        rngs = [Rng(seed + t) for t in range(start, min(start + _CHUNK, trials))]
        groups = list(check(rngs))
        residuals = np.empty(len(rngs))
        for chunk_trials, _, _, group_residuals in groups:
            residuals[chunk_trials] = group_residuals
        failures += int(np.count_nonzero(~(residuals <= tol)))
        i = int(np.argmax(residuals))  # the first maximum, or the first NaN
        if not math.isnan(worst) and not residuals[i] <= worst:
            chunk_trials, d, detail, _ = next(g for g in groups if i in g[0])
            j = int(np.searchsorted(chunk_trials, i))
            worst, worst_trial = float(residuals[i]), start + i
            worst_detail = _instance_repr(d[j], None if detail is None else detail[j])
        del rngs, groups  # before the next chunk is drawn
    return SuiteResult(name, trials, failures, worst, worst_trial, worst_detail)


def _coins(rngs) -> np.ndarray:
    """``rng.uniform() < 0.5`` for each stream."""
    return _uniform_lockstep(rngs) < 0.5


def suite_kl_identity(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max, anchor=_coins(rngs))
        for (t, d), phi in zip(instances, _per_point(instances, rngs)):
            yield t, d, phi, kl_identity_residual(d, phi)

    return _run_suite("kl_identity", trials, seed, check, 1e-10)


def suite_kl_nonnegative(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max)
        for (t, d), phi in zip(instances, _per_point(instances, rngs)):
            gap = exact_lvar(d, phi) - exact_lvar(d, bayes_posterior(d))
            yield t, d, phi, np.maximum(0.0, -gap)

    return _run_suite("kl_nonnegative", trials, seed, check, 1e-12)


def suite_scale_invariance(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    scales = np.array([1.0, 0.1, 0.5, 0.9])[:, None, None]  # the base, then each c

    def sizes(rngs):
        return 4 + _randbelow_lockstep(np.full(len(rngs), 29), rngs)

    def check(rngs):
        instances = random_instances(rngs, k_max)
        phis = _per_point(instances, rngs)
        runs_p = _uniform_runs(sizes(rngs), rngs)
        runs_u = _uniform_runs(sizes(rngs), rngs)
        # the loss of (phi_p, 1) is -mean(log phi_p) and that of (1, phi_u) is
        # log(mean(phi_u)), exactly: their sum has the loss's bits
        emp = np.zeros((len(scales), len(rngs)))
        for t, phi_p in runs_p:
            emp[:, t] += variational_loss_value(scales * phi_p, np.ones(1))
        for t, phi_u in runs_u:
            emp[:, t] += variational_loss_value(np.ones(1), scales * phi_u)
        for (t, d), phi in zip(instances, phis):
            exact = exact_lvar(d, scales * phi)
            gaps = np.abs(np.concatenate([exact[1:] - exact[0], emp[1:, t] - emp[0, t]]))
            yield t, d, phi, gaps.max(axis=0)

    return _run_suite("scale_invariance", trials, seed, check, 1e-10)


def suite_minimizer_family(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        for t, d in random_instances(rngs, k_max, anchor=True):
            phi = exact_minimizer(d)
            scaled = phi / phi.max(axis=-1, keepdims=True)
            yield t, d, None, np.max(np.abs(scaled - bayes_posterior(d)), axis=-1)

    return _run_suite("minimizer_family", trials, seed, check, 1e-9)


def suite_bias_bound(trials: int = 1000, seed: int = 0, k_max: int = 16) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max, anchor=_coins(rngs))
        for (t, d), u in zip(instances, _per_point(instances, rngs, lo=0.0)):
            labeled = _biased_labeled(d, u)
            lhs, bound, holds = theorem3_check(d, labeled)
            yield t, d, labeled, np.where(holds, 0.0, lhs - bound)

    return _run_suite("bias_bound", trials, seed, check, 1e-12)


def suite_irreducibility(trials: int = 1000, seed: int = 0, k_max: int = 32,
                         tol: float = 1e-9) -> SuiteResult:
    def check(rngs):
        for t, d in random_instances(rngs, k_max, anchor=_coins(rngs)):
            via_ratio = check_irreducibility(d, tol)
            via_posterior = bayes_posterior(d).max(axis=-1) >= posterior_threshold(d.pi_p, tol)
            yield t, d, None, np.where(via_ratio == via_posterior, 0.0, 1.0)

    return _run_suite("irreducibility_equiv", trials, seed, check, 0.5)


def suite_l2_identity(trials: int = 1000, seed: int = 0, k_max: int = 32) -> SuiteResult:
    def check(rngs):
        instances = random_instances(rngs, k_max)
        for (t, d), phi in zip(instances, _per_point(instances, rngs)):
            yield t, d, phi, l2_identity_residual(d, phi)

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

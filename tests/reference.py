"""Reference implementations that the optimised code is tested against.

`TapeModel` builds the MLP as a tape of per-layer take / reshape / matmul /
add / activation nodes, the way `ClassifierModel.logits` did before it
became one node with a hand-written backward; the tape ops it needs beyond
those the losses use (`matmul`, `tanh`, `reshape`) are defined here.
`sample_indices_loop` draws one `ScalarRng.randbelow` per index, the way
`sampling.sample_indices` did before its draws were vectorised.
`ScalarRng` mixes one SplitMix64 output per `next_u64` call with the
reference finalizer `mix64`, and draws one bounded integer (rejecting
biased outputs in a loop), Box-Muller normal or open uniform at a time;
the row-by-row samplers, `normals_loop`,
`sample_gamma_loop`, `sample_beta_loop` and `average_ranks_loop` are the
scalar forms of the block code in `data`, `sampling`, `oracle` and
`metrics`.  All must agree with
the optimised code bit for bit, which `bits` and `same_state` compare.
`one_instance` and `one_phi` draw one oracle trial from one stream.
`mixup_penalty` is the MixUp penalty at given points and targets, and
`total_loss_two_forwards` and `total_loss_live_target` are the training
objective with a second forward of the U rows or a differentiated target.
"""

from __future__ import annotations

import math

import numpy as np

from vpu import autodiff as ad
from vpu import losses as ls
from vpu import model as md
from vpu import oracle as oc
from vpu import sampling as sp


def matmul(a, b) -> ad.Tensor:
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    with ad._quiet():  # overflow surfaces as NumericError, not a warning
        value = a.value @ b.value

    def backward(g):
        a._accumulate(g @ b.value.T)
        b._accumulate(a.value.T @ g)

    return ad.Tensor(value, (a, b), backward, "matmul")


def tanh(a) -> ad.Tensor:
    a = ad.as_tensor(a)
    value = np.tanh(a.value)

    def backward(g):
        a._accumulate(g * (1.0 - value * value))

    return ad.Tensor(value, (a,), backward, "tanh")


def reshape(a, shape) -> ad.Tensor:
    a = ad.as_tensor(a)
    value = a.value.reshape(shape)

    def backward(g):
        a._accumulate(g.reshape(a.value.shape))

    return ad.Tensor(value, (a,), backward, "reshape")


_ACTIVATIONS = {"relu": ad.positive_part, "tanh": tanh}


def tape_logits(model: md.ClassifierModel, theta, x: np.ndarray) -> ad.Tensor:
    t = ad.as_tensor(theta)
    X = np.asarray(x, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.arch.input_dim:
        raise ValueError(f"expected features of dimension {model.arch.input_dim}")
    act = _ACTIVATIONS[model.arch.activation]
    h = ad.Tensor(X, name="features")
    layers = model.arch.layers
    for i, layer in enumerate(layers):
        w = reshape(t[layer.weight], layer.shape)
        b = t[layer.bias]
        h = matmul(h, w) + b
        if i < len(layers) - 1:
            h = act(h)
    return reshape(h, (X.shape[0],))


class TapeModel(md.ClassifierModel):
    """A ClassifierModel whose logits are the per-layer tape above."""

    def logits(self, theta, x: np.ndarray) -> ad.Tensor:
        return tape_logits(self, theta, x)


def as_tape_model(model: md.ClassifierModel) -> TapeModel:
    return TapeModel(model.arch, model.params, model.normalization_scale)


def sample_indices_loop(n: int, size: int, rng) -> np.ndarray:
    if n <= 0:
        raise ValueError("empty pool")
    if size < 1:
        raise ValueError("batch size must be >= 1")
    if size > n:
        return np.array([rng.randbelow(n) for _ in range(size)], dtype=np.intp)
    idx = np.arange(n, dtype=np.intp)
    for i in range(size):
        j = i + rng.randbelow(n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return idx[:size]


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def one_instance(rng, k_max: int, anchor=False):
    """The one joint `oracle.random_instances` draws from `rng` alone."""
    [(_, d)] = oc.random_instances([rng], k_max, anchor)
    return d[0]


def one_phi(k: int, rng) -> np.ndarray:
    """The phi of k points that a suite draws from `rng` after an instance."""
    [(_, phi)] = oc._uniform_runs([k], [rng])
    return phi[0]


def mix64(z: int) -> int:
    """The SplitMix64 finalizer on one Python int."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def bits(x) -> np.ndarray:
    """Float64 values as uint64, so that equality is bit equality."""
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def same_state(fast, slow) -> bool:
    """Equal counters and bit-equal cached normals (or none on both)."""
    a, b = fast._cached_normal, slow._cached_normal
    if a is None or b is None:
        return fast.counter == slow.counter and a is b
    return fast.counter == slow.counter and bits(a) == bits(b)


class ScalarRng(sp.Rng):
    """An `Rng` that mixes each output when it is drawn."""

    def next_u64(self) -> int:
        self.counter += 1
        return mix64((self.seed + self.counter * _GOLDEN) & _MASK64)

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


def normals_loop(rng, n: int) -> np.ndarray:
    return np.array([rng.normal() for _ in range(n)], dtype=np.float64)


def sample_gamma_loop(shape: float, rng: ScalarRng, events=None) -> float:
    """One Gamma(shape, 1) draw via Marsaglia-Tsang squeeze.

    Shapes below 1 use the boost ``Gamma(shape) = Gamma(shape+1) * U^(1/shape)``.
    `events`, a `collections.Counter` when given, counts the attempts that
    ``v <= 0`` rejects (as "v<=0") and those that reach the log test ("log").
    """
    if not 0.0 < shape < math.inf:
        raise ValueError("gamma shape must be positive and finite")
    if shape < 1.0:
        return sample_gamma_loop(shape + 1.0, rng, events) * rng.uniform_open() ** (1.0 / shape)
    d = shape - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.normal()
        v = (1.0 + c * x) ** 3
        if v <= 0.0:
            if events is not None:
                events["v<=0"] += 1
            continue
        u = rng.uniform_open()
        if u < 1.0 - 0.0331 * x**4:
            return d * v
        if events is not None:
            events["log"] += 1
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            return d * v


def sample_beta_loop(alpha: float, rng: ScalarRng) -> float:
    while True:
        g1 = sample_gamma_loop(alpha, rng)
        g2 = sample_gamma_loop(alpha, rng)
        total = g1 + g2
        if total > 0.0 and 0.0 < g1 < total:
            return g1 / total


def pick_component_loop(comps, rng):
    total = sum(c.weight for c in comps)
    u = rng.uniform() * total
    acc = 0.0
    for c in comps:
        acc += c.weight
        if u < acc:
            return c
    return comps[-1]


def sample_component_loop(comp, rng) -> np.ndarray:
    z = normals_loop(rng, comp.mean.size)
    return comp.mean + np.sqrt(comp.cov_diag) * z


def sample_class_conditional_loop(spec, label: int, n: int, rng) -> np.ndarray:
    comps = [c for c in spec.components if c.label == label]
    return np.stack([sample_component_loop(pick_component_loop(comps, rng), rng)
                     for _ in range(n)])


def sample_joint_loop(spec, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for _ in range(n):
        c = pick_component_loop(spec.components, rng)
        xs.append(sample_component_loop(c, rng))
        ys.append(c.label)
    return np.stack(xs), np.array(ys, dtype=np.int64)


def average_ranks_loop(scores) -> np.ndarray:
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="mergesort")
    ranks = np.empty(scores.size, dtype=np.float64)
    i = 0
    while i < scores.size:
        j = i
        while j + 1 < scores.size and scores[order[j + 1]] == scores[order[i]]:
            j += 1
        ranks[order[i:j + 1]] = 0.5 * (i + j) + 1.0  # average of positions i..j
        i = j + 1
    return ranks


def _rotate(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a[1:], a[:1]], axis=0)


def mixup_penalty(model, theta, x_mix, target, kind="msle") -> ad.Tensor:
    """The MixUp consistency penalty at given mixed points and targets:
    mean (log target - log phi(x))^2 for msle, mean (target - phi(x))^2
    for mse, with the ops of `losses.mixup_consistency_reg` in its order."""
    phi_mix = model.raw(theta, x_mix)
    target = ad.as_tensor(target)
    d = ad.log(target) - ad.log(phi_mix) if kind == "msle" else target - phi_mix
    return ad.mean(d * d)


def _mixup_reg_two_forwards(model, t, xp, xu, gamma, variant, target_stop_gradient):
    g = np.asarray(gamma, dtype=np.float64)

    def spread(n):
        return np.full(n, float(g)) if g.ndim == 0 else g

    def phi_of(x):
        if target_stop_gradient:
            return model.raw(t.value, x).value
        return model.raw(t, x)

    if variant in ("msle_mixup_pu", "mse_mixup_pu"):
        gv = spread(xp.shape[0])
        x_mix = gv[:, None] * xp + (1.0 - gv[:, None]) * xu
        target = gv + (1.0 - gv) * phi_of(xu)
        kind = "msle" if variant == "msle_mixup_pu" else "mse"
        return mixup_penalty(model, t, x_mix, target, kind)
    if variant == "msle_mixup_p_only":
        gv = spread(xp.shape[0])
        x_mix = gv[:, None] * xp + (1.0 - gv[:, None]) * _rotate(xp)
        return mixup_penalty(model, t, x_mix, np.ones(xp.shape[0]), "msle")
    union = np.concatenate([xp, xu], axis=0)
    n = union.shape[0]
    gv = spread(n)
    x_mix = gv[:, None] * union + (1.0 - gv[:, None]) * _rotate(union)
    mask_p = np.zeros(n)
    mask_p[:xp.shape[0]] = 1.0
    if target_stop_gradient:
        labels = np.where(mask_p > 0, 1.0, np.asarray(phi_of(union), dtype=np.float64))
        target = gv * labels + (1.0 - gv) * np.concatenate([labels[1:], labels[:1]])
    else:
        labels = phi_of(union) * (1.0 - mask_p) + mask_p
        target = ad.as_tensor(gv) * labels + ad.as_tensor(1.0 - gv) * labels[np.roll(np.arange(n), -1)]
    return mixup_penalty(model, t, x_mix, target, "msle")


def total_loss_two_forwards(spec, model, theta, xp, xu, gamma=None,
                            target_stop_gradient: bool = True) -> ad.Tensor:
    """`losses.total_loss` as it was when each head forwarded its own rows:
    the MixUp target of the pu variants runs the U rows through the network
    a second time instead of reusing the objective's U outputs."""
    t = ad.as_tensor(theta)
    if spec.objective in ("upu", "nnpu"):
        risk = ls.upu_risk_from_margins if spec.objective == "upu" else ls.nnpu_risk_from_margins
        return risk(model.logits(t, xp), model.logits(t, xu), spec.pi_p)
    head = ls.variational_loss_values if spec.objective == "vpu" else ls.l2_variational_loss_values
    base = head(model.raw(t, xp), model.raw(t, xu))
    if spec.reg_variant == "none" or spec.lam == 0.0:
        return base
    if spec.reg_variant == "large_margin":
        reg = ls.large_margin_values(model.raw(t, xp), spec.alpha)
    else:
        reg = _mixup_reg_two_forwards(model, t, xp, xu, gamma, spec.reg_variant,
                                      target_stop_gradient)
    return base + spec.lam * reg


def total_loss_live_target(spec, model, theta, xp, xu, gamma=None) -> ad.Tensor:
    """`losses.total_loss` with the MixUp target left differentiable: the
    same forwards, heads and order, and the regularizer handed the unlabeled
    outputs as a Tensor rather than as their values."""
    if not spec.variational or spec.reg_variant in ("none", "large_margin") \
            or spec.lam == 0.0:
        return ls.total_loss(spec, model, theta, xp, xu, gamma)
    t = ad.as_tensor(theta)
    phi_p, phi_u = model.raw(t, xp), model.raw(t, xu)
    head = ls.variational_loss_values if spec.objective == "vpu" else ls.l2_variational_loss_values
    base = head(phi_p, phi_u)
    reg = ls.mixup_consistency_reg(model, t, xp, xu, phi_u, gamma, spec.reg_variant)
    return base + spec.lam * reg

"""Training objectives: the variational loss, MixUp consistency regularizers
and ablation variants, the large-margin regularizer, the weighted-L2
variational loss, and the uPU / nnPU baseline risks.

All functions return differentiable scalars (autodiff Tensors) built on a
flat parameter Tensor `theta`; pass `theta=None` to evaluate at the model's
own parameters.  Value-level cores (`*_values`, `*_from_margins`,
`mixup_reg_from_pairs`) operate directly on probability / margin vectors and
are what the batch-level wrappers and the exactness tests share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad

OBJECTIVES = ("vpu", "vpu_l2", "upu", "nnpu")
REG_VARIANTS = ("msle_mixup_pu", "none", "msle_mixup_p_only",
                "msle_mixup_pupu", "mse_mixup_pu", "large_margin")
_MIXUP_VARIANTS = ("msle_mixup_pu", "msle_mixup_p_only", "msle_mixup_pupu", "mse_mixup_pu")


@dataclass(frozen=True)
class Batch:
    features: np.ndarray
    origin: str  # "positive" | "unlabeled"

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] == 0:
            raise ValueError("batch must be a nonempty 2-D array")
        if self.origin not in ("positive", "unlabeled"):
            raise ValueError(f"unknown batch origin {self.origin!r}")
        object.__setattr__(self, "features", feats)

    def __len__(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class LossSpec:
    """Which objective and regularizer to train, with their constants.

    `alpha` is both the Beta shape for MixUp draws and the margin constant
    of the large-margin regularizer.  `pi_p` is required exactly for the
    baseline objectives (upu, nnpu) and must be absent otherwise.
    """

    objective: str = "vpu"
    reg_variant: str = "msle_mixup_pu"
    lam: float = 0.3
    alpha: float = 0.3
    pi_p: float | None = None

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.reg_variant not in REG_VARIANTS:
            raise ValueError(f"unknown regularizer {self.reg_variant!r}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError("lambda must be finite and >= 0")
        if not 0.0 < self.alpha < math.inf:
            raise ValueError("alpha must be finite and > 0")
        baseline = self.objective in ("upu", "nnpu")
        if baseline and (self.pi_p is None or not 0.0 < self.pi_p < 1.0):
            raise ValueError("baseline objectives require pi_p in (0, 1)")
        if not baseline and self.pi_p is not None:
            raise ValueError("pi_p is only meaningful for upu/nnpu")

    @property
    def needs_gamma(self) -> bool:
        return self.objective in ("vpu", "vpu_l2") and self.reg_variant in _MIXUP_VARIANTS


def _check_origins(batch_p: Batch, batch_u: Batch) -> None:
    if batch_p.origin != "positive" or batch_u.origin != "unlabeled":
        raise ValueError("batches passed with wrong origins")


def _theta(model, theta):
    return ad.as_tensor(model.params.values if theta is None else theta)


# -- variational objectives ----------------------------------------------------


def variational_loss_values(phi_p, phi_u) -> ad.Tensor:
    """log(mean of unlabeled phi) - mean(log of positive phi)."""
    return ad.log(ad.mean(ad.as_tensor(phi_u))) - ad.mean(ad.log(ad.as_tensor(phi_p)))


def variational_loss(model, theta, batch_p: Batch, batch_u: Batch) -> ad.Tensor:
    """Empirical variational loss on raw (pre-normalization) outputs."""
    _check_origins(batch_p, batch_u)
    t = _theta(model, theta)
    return variational_loss_values(model.raw(t, batch_p.features),
                                   model.raw(t, batch_u.features))


def l2_variational_loss_values(phi_p, phi_u) -> ad.Tensor:
    """mean_u(phi^2)/mean_u(phi)^2 - 2 mean_p(phi)/mean_u(phi)."""
    phi_p, phi_u = ad.as_tensor(phi_p), ad.as_tensor(phi_u)
    m_u = ad.mean(phi_u)
    return ad.mean(phi_u * phi_u) / (m_u * m_u) - 2.0 * ad.mean(phi_p) / m_u


def l2_variational_loss(model, theta, batch_p: Batch, batch_u: Batch) -> ad.Tensor:
    _check_origins(batch_p, batch_u)
    t = _theta(model, theta)
    return l2_variational_loss_values(model.raw(t, batch_p.features),
                                      model.raw(t, batch_u.features))


# -- regularizers ---------------------------------------------------------------


def mixup_reg_from_pairs(model, theta, x_mix: np.ndarray, phi_tilde,
                         kind: str = "msle") -> ad.Tensor:
    """Consistency penalty between guessed targets and predictions at the
    mixed points: mean (log t - log phi(x))^2 for msle, mean (t - phi(x))^2
    for mse.  `phi_tilde` may be a constant array (stop-gradient targets) or
    a Tensor when the target should stay differentiable.
    """
    phi_mix = model.raw(_theta(model, theta), x_mix)
    t = ad.as_tensor(phi_tilde)
    if kind == "msle":
        d = ad.log(t) - ad.log(phi_mix)
    elif kind == "mse":
        d = t - phi_mix
    else:
        raise ValueError(f"unknown consistency kind {kind!r}")
    return ad.mean(d * d)


def _rotate(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a[1:], a[:1]], axis=0)


def mixup_consistency_reg(model, theta, batch_p: Batch, batch_u: Batch, gamma,
                          variant: str = "msle_mixup_pu",
                          target_stop_gradient: bool = True) -> ad.Tensor:
    """MixUp consistency regularizer in one of its ablation variants.

    gamma may be a scalar (one draw per batch, the default training path) or
    a per-pair vector.  Pairing is positional; the randomness comes from
    batch sampling.  The pupu variant pairs the concatenated batch with its
    rotation, so both endpoints range over positives and unlabeled points.
    """
    if variant not in _MIXUP_VARIANTS:
        raise ValueError(f"not a mixup variant: {variant!r}")
    _check_origins(batch_p, batch_u)
    t = _theta(model, theta)
    g = np.asarray(gamma, dtype=np.float64)

    def spread(n):
        return np.full(n, float(g)) if g.ndim == 0 else g

    def phi_of(x):
        if target_stop_gradient:
            return model.raw(t.value, x).value
        return model.raw(t, x)

    if variant in ("msle_mixup_pu", "mse_mixup_pu"):
        xp, xu = batch_p.features, batch_u.features
        if xp.shape != xu.shape:
            raise ValueError("pu mixup needs equal-size batches")
        gv = spread(len(batch_p))
        x_mix = gv[:, None] * xp + (1.0 - gv[:, None]) * xu
        target = gv + (1.0 - gv) * phi_of(xu)
        kind = "msle" if variant == "msle_mixup_pu" else "mse"
        return mixup_reg_from_pairs(model, t, x_mix, target, kind)

    if variant == "msle_mixup_p_only":
        xp = batch_p.features
        gv = spread(len(batch_p))
        x_mix = gv[:, None] * xp + (1.0 - gv[:, None]) * _rotate(xp)
        target = np.ones(len(batch_p))  # both endpoints carry label 1
        return mixup_reg_from_pairs(model, t, x_mix, target, "msle")

    # msle_mixup_pupu: endpoints drawn from the union of both batches
    union = np.concatenate([batch_p.features, batch_u.features], axis=0)
    n = union.shape[0]
    gv = spread(n)
    x_mix = gv[:, None] * union + (1.0 - gv[:, None]) * _rotate(union)
    # per-point target: 1 for positive-origin points, phi(x) otherwise
    mask_p = np.zeros(n)
    mask_p[:len(batch_p)] = 1.0
    if target_stop_gradient:
        labels = np.where(mask_p > 0, 1.0, np.asarray(phi_of(union), dtype=np.float64))
        target = gv * labels + (1.0 - gv) * np.concatenate([labels[1:], labels[:1]])
    else:
        labels = phi_of(union) * (1.0 - mask_p) + mask_p
        target = ad.as_tensor(gv) * labels + ad.as_tensor(1.0 - gv) * labels[np.roll(np.arange(n), -1)]
    return mixup_reg_from_pairs(model, t, x_mix, target, "msle")


def large_margin_reg(model, theta, batch_p: Batch, alpha: float) -> ad.Tensor:
    """Smooth margin penalty on positives: mean log(1 + alpha (1-phi)/phi)."""
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if batch_p.origin != "positive":
        raise ValueError("large-margin regularizer expects the positive batch")
    phi = model.raw(_theta(model, theta), batch_p.features)
    return large_margin_values(phi, alpha)


def large_margin_values(phi, alpha: float) -> ad.Tensor:
    phi = ad.as_tensor(phi)
    floored = ad.positive_part(phi - ad.LOG_FLOOR) + ad.LOG_FLOOR  # finite ratio at phi=0
    ratio = (1.0 - phi) / floored
    return ad.mean(ad.log(1.0 + alpha * ratio))


# -- baseline risks --------------------------------------------------------------


def upu_risk_from_margins(margins_p, margins_u, pi_p: float) -> ad.Tensor:
    """Unbiased PU risk with the sigmoid surrogate pair
    l+(g) = sigmoid(-g), l-(g) = sigmoid(g); may be negative."""
    if not 0.0 < pi_p < 1.0:
        raise ValueError("pi_p must be in (0, 1)")
    gp, gu = ad.as_tensor(margins_p), ad.as_tensor(margins_u)
    pos = ad.mean(ad.sigmoid(-gp)) - ad.mean(ad.sigmoid(gp))
    return pi_p * pos + ad.mean(ad.sigmoid(gu))


def nnpu_risk_from_margins(margins_p, margins_u, pi_p: float) -> ad.Tensor:
    """Non-negative PU risk: the negative-part term is clamped at zero, with
    gradient flowing only through the selected branch."""
    if not 0.0 < pi_p < 1.0:
        raise ValueError("pi_p must be in (0, 1)")
    gp, gu = ad.as_tensor(margins_p), ad.as_tensor(margins_u)
    neg = ad.mean(ad.sigmoid(gu)) - pi_p * ad.mean(ad.sigmoid(gp))
    return pi_p * ad.mean(ad.sigmoid(-gp)) + ad.positive_part(neg)


def upu_risk(model, theta, batch_p: Batch, batch_u: Batch, pi_p: float) -> ad.Tensor:
    _check_origins(batch_p, batch_u)
    t = _theta(model, theta)
    return upu_risk_from_margins(model.logits(t, batch_p.features),
                                 model.logits(t, batch_u.features), pi_p)


def nnpu_risk(model, theta, batch_p: Batch, batch_u: Batch, pi_p: float) -> ad.Tensor:
    _check_origins(batch_p, batch_u)
    t = _theta(model, theta)
    return nnpu_risk_from_margins(model.logits(t, batch_p.features),
                                  model.logits(t, batch_u.features), pi_p)


# -- combined objective -----------------------------------------------------------


def total_loss(spec: LossSpec, model, theta, batch_p: Batch, batch_u: Batch,
               gamma=None, target_stop_gradient: bool = True) -> ad.Tensor:
    """Objective plus lambda times the configured regularizer.

    Baseline objectives (upu, nnpu) ignore the regularizer entirely.
    """
    t = _theta(model, theta)
    if spec.objective == "upu":
        return upu_risk(model, t, batch_p, batch_u, spec.pi_p)
    if spec.objective == "nnpu":
        return nnpu_risk(model, t, batch_p, batch_u, spec.pi_p)

    if spec.objective == "vpu":
        base = variational_loss(model, t, batch_p, batch_u)
    else:
        base = l2_variational_loss(model, t, batch_p, batch_u)

    if spec.reg_variant == "none" or spec.lam == 0.0:
        return base
    if spec.reg_variant == "large_margin":
        reg = large_margin_reg(model, t, batch_p, spec.alpha)
    else:
        if gamma is None:
            raise ValueError("mixup regularizers need a gamma draw")
        reg = mixup_consistency_reg(model, t, batch_p, batch_u, gamma,
                                    spec.reg_variant, target_stop_gradient)
    return base + spec.lam * reg

"""Training objectives: the variational loss, MixUp consistency regularizers
and ablation variants, the large-margin regularizer, the weighted-L2
variational loss, and the uPU / nnPU baseline risks.

`total_loss` is the one place that runs the network on a training batch:
it forwards the positive rows, then the unlabeled rows, once each, and hands
the outputs to the heads and regularizers.  The heads (`*_values`,
`*_from_margins`) take probability or margin vectors; the only rows forwarded
outside those two forwards are the MixUp points, which are new rows.
`mixup_consistency_reg` is the one builder of every MixUp variant: it picks
the mixed points and their target, and applies the penalty.  Everything
returns a differentiable scalar (an autodiff Tensor) on the flat parameter
Tensor `theta`.
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
_PU_TARGET_VARIANTS = ("msle_mixup_pu", "mse_mixup_pu")  # each P row mixed with one U row


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
        if not self.variational and (self.pi_p is None or not 0.0 < self.pi_p < 1.0):
            raise ValueError("baseline objectives require pi_p in (0, 1)")
        if self.variational and self.pi_p is not None:
            raise ValueError("pi_p is only meaningful for upu/nnpu")

    @property
    def variational(self) -> bool:
        """vpu or vpu_l2: scale-free outputs, regularized, normalized after
        training; otherwise a baseline risk on the margins."""
        return self.objective in ("vpu", "vpu_l2")

    @property
    def needs_gamma(self) -> bool:
        return self.variational and self.reg_variant in _MIXUP_VARIANTS


# -- variational objectives ----------------------------------------------------


def variational_loss_values(phi_p, phi_u) -> ad.Tensor:
    """log(mean of unlabeled phi) - mean(log of positive phi), each mean
    over the last axis: stacked rows give each pair's loss, with its bits."""
    return ad.log(ad.mean(ad.as_tensor(phi_u))) - ad.mean(ad.log(ad.as_tensor(phi_p)))


def l2_variational_loss_values(phi_p, phi_u) -> ad.Tensor:
    """mean_u(phi^2)/mean_u(phi)^2 - 2 mean_p(phi)/mean_u(phi)."""
    phi_p, phi_u = ad.as_tensor(phi_p), ad.as_tensor(phi_u)
    m_u = ad.mean(phi_u)
    return ad.mean(phi_u * phi_u) / (m_u * m_u) - 2.0 * ad.mean(phi_p) / m_u


# -- regularizers ---------------------------------------------------------------


def _rotate(a: np.ndarray) -> np.ndarray:
    return np.concatenate([a[1:], a[:1]], axis=0)


def mixup_consistency_reg(model, theta, xp: np.ndarray, xu: np.ndarray, phi_u, gamma,
                          variant: str = "msle_mixup_pu",
                          target_stop_gradient: bool = True) -> ad.Tensor:
    """MixUp consistency regularizer in one of its ablation variants: the
    mean squared gap between a guessed target and the network's output at
    mixed points, in logs (msle) or plain (mse).

    `xp` and `xu` are the positive and unlabeled rows.  The pu and pupu
    variants label each unlabeled row by its output in `phi_u`, which is
    ``model.raw(theta, xu)`` or None to forward `xu` here; p_only ignores
    it.  `gamma` is the batch's one mixing weight.  Pairing is positional;
    the randomness comes from batch sampling.  The pupu variant pairs the
    concatenated rows with their rotation, so both endpoints range over
    positives (label 1) and unlabeled points.
    """
    if variant not in _MIXUP_VARIANTS:
        raise ValueError(f"not a mixup variant: {variant!r}")
    t = ad.as_tensor(theta)
    g = float(gamma)
    if variant != "msle_mixup_p_only":
        phi_u = model.raw(t, xu) if phi_u is None else ad.as_tensor(phi_u)
        if target_stop_gradient:
            phi_u = phi_u.value

    if variant in _PU_TARGET_VARIANTS:
        if xp.shape != xu.shape:
            raise ValueError("pu mixup needs equal-size batches")
        x_mix = g * xp + (1.0 - g) * xu
        target = g + (1.0 - g) * phi_u
    elif variant == "msle_mixup_p_only":
        x_mix = g * xp + (1.0 - g) * _rotate(xp)
        target = np.ones(xp.shape[0])  # both endpoints carry label 1
    else:
        # msle_mixup_pupu: endpoints drawn from the union of both batches
        union = np.concatenate([xp, xu], axis=0)
        n, n_p = union.shape[0], xp.shape[0]
        x_mix = g * union + (1.0 - g) * _rotate(union)
        # per-point label: 1 for positive-origin points, phi(x) otherwise
        # (the positives read row 0 of phi_u, which the mask zeroes)
        mask_p = np.zeros(n)
        mask_p[:n_p] = 1.0
        labels = phi_u[np.maximum(np.arange(n) - n_p, 0)] * (1.0 - mask_p) + mask_p
        target = g * labels + (1.0 - g) * labels[np.roll(np.arange(n), -1)]

    phi_mix = model.raw(t, x_mix)
    target = ad.as_tensor(target)
    d = target - phi_mix if variant == "mse_mixup_pu" else ad.log(target) - ad.log(phi_mix)
    return ad.mean(d * d)


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


# -- combined objective -----------------------------------------------------------


def total_loss(spec: LossSpec, model, theta, xp: np.ndarray, xu: np.ndarray,
               gamma=None) -> ad.Tensor:
    """Objective plus lambda times the configured regularizer, on the
    positive rows `xp` and the unlabeled rows `xu`.

    The objective forwards each set of rows once, positives first (margins
    for the baselines, sigmoid outputs otherwise).  The regularizers reuse
    those outputs: the large-margin term reads the positive ones, and the
    MixUp target the unlabeled ones, with its gradient stopped; only the
    MixUp points are forwarded on top.  Baseline objectives (upu, nnpu)
    ignore the regularizer entirely.
    """
    t = ad.as_tensor(theta)
    if not spec.variational:
        risk = upu_risk_from_margins if spec.objective == "upu" else nnpu_risk_from_margins
        return risk(model.logits(t, xp), model.logits(t, xu), spec.pi_p)

    phi_p, phi_u = model.raw(t, xp), model.raw(t, xu)
    head = variational_loss_values if spec.objective == "vpu" else l2_variational_loss_values
    base = head(phi_p, phi_u)
    if spec.reg_variant == "none" or spec.lam == 0.0:
        return base
    if spec.reg_variant == "large_margin":
        reg = large_margin_values(phi_p, spec.alpha)
    else:
        if gamma is None:
            raise ValueError("mixup regularizers need a gamma draw")
        reg = mixup_consistency_reg(model, t, xp, xu, phi_u, gamma, spec.reg_variant)
    return base + spec.lam * reg

"""Training objectives: the variational loss, MixUp consistency regularizers
and ablation variants, the large-margin regularizer, the weighted-L2
variational loss, and the uPU / nnPU baseline risks.

`total_loss` is the one place that runs the network on a training batch:
it forwards the positive rows, then the unlabeled rows, once each, and hands
the outputs to the heads.  The heads (`*_values`, `*_from_margins`) take
probability or margin vectors; the regularizers that need outputs at other
points (`mixup_consistency_reg`, the large-margin term) forward those rows
themselves.  Everything returns a differentiable scalar (an autodiff Tensor)
on the flat parameter Tensor `theta`.
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
PU_TARGET_VARIANTS = ("msle_mixup_pu", "mse_mixup_pu")  # targets built from the U outputs


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
    """log(mean of unlabeled phi) - mean(log of positive phi)."""
    return ad.log(ad.mean(ad.as_tensor(phi_u))) - ad.mean(ad.log(ad.as_tensor(phi_p)))


def variational_loss_value(phi_p, phi_u) -> np.ndarray:
    """``variational_loss_values(phi_p, phi_u).value`` without the tape, for
    evaluation that takes no gradient: each term reduces over the last axis
    (leading axes broadcast), with the tape's bits, and NumericError names
    the node where the tape would raise it."""
    phi_u = ad._checked(np.asarray(phi_u, dtype=np.float64), "const")
    mean_u = ad._checked(phi_u.mean(axis=-1), "mean")
    phi_p = ad._checked(np.asarray(phi_p, dtype=np.float64), "const")
    mean_log_p = np.log(np.maximum(phi_p, ad.LOG_FLOOR)).mean(axis=-1)
    return np.log(np.maximum(mean_u, ad.LOG_FLOOR)) - mean_log_p


def l2_variational_loss_values(phi_p, phi_u) -> ad.Tensor:
    """mean_u(phi^2)/mean_u(phi)^2 - 2 mean_p(phi)/mean_u(phi)."""
    phi_p, phi_u = ad.as_tensor(phi_p), ad.as_tensor(phi_u)
    m_u = ad.mean(phi_u)
    return ad.mean(phi_u * phi_u) / (m_u * m_u) - 2.0 * ad.mean(phi_p) / m_u


# -- regularizers ---------------------------------------------------------------


def mixup_reg_from_pairs(model, theta, x_mix: np.ndarray, phi_tilde,
                         kind: str = "msle") -> ad.Tensor:
    """Consistency penalty between guessed targets and predictions at the
    mixed points: mean (log t - log phi(x))^2 for msle, mean (t - phi(x))^2
    for mse.  `phi_tilde` may be a constant array (stop-gradient targets) or
    a Tensor when the target should stay differentiable.
    """
    phi_mix = model.raw(theta, x_mix)
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


def mixup_consistency_reg(model, theta, xp: np.ndarray, xu: np.ndarray, phi_u, gamma,
                          variant: str = "msle_mixup_pu",
                          target_stop_gradient: bool = True) -> ad.Tensor:
    """MixUp consistency regularizer in one of its ablation variants.

    `xp` and `xu` are the positive and unlabeled rows.  `phi_u` is
    ``model.raw(theta, xu)``: the `PU_TARGET_VARIANTS` build their target
    from it (from its values when the target stops the gradient), and the
    other variants ignore it.  `gamma` is the batch's one mixing weight.
    Pairing is positional; the randomness comes from batch sampling.  The
    pupu variant pairs the concatenated rows with their rotation, so both
    endpoints range over positives and unlabeled points.
    """
    if variant not in _MIXUP_VARIANTS:
        raise ValueError(f"not a mixup variant: {variant!r}")
    t = ad.as_tensor(theta)
    g = float(gamma)

    if variant in PU_TARGET_VARIANTS:
        if xp.shape != xu.shape:
            raise ValueError("pu mixup needs equal-size batches")
        x_mix = g * xp + (1.0 - g) * xu
        phi_u = ad.as_tensor(phi_u)
        target = g + (1.0 - g) * (phi_u.value if target_stop_gradient else phi_u)
        kind = "msle" if variant == "msle_mixup_pu" else "mse"
        return mixup_reg_from_pairs(model, t, x_mix, target, kind)

    if variant == "msle_mixup_p_only":
        x_mix = g * xp + (1.0 - g) * _rotate(xp)
        target = np.ones(xp.shape[0])  # both endpoints carry label 1
        return mixup_reg_from_pairs(model, t, x_mix, target, "msle")

    # msle_mixup_pupu: endpoints drawn from the union of both batches
    union = np.concatenate([xp, xu], axis=0)
    n = union.shape[0]
    x_mix = g * union + (1.0 - g) * _rotate(union)
    # per-point target: 1 for positive-origin points, phi(x) otherwise
    mask_p = np.zeros(n)
    mask_p[:xp.shape[0]] = 1.0
    # the union's own forward: its U half matches phi_u only up to the
    # rounding that a different matrix shape gives
    if target_stop_gradient:
        labels = np.where(mask_p > 0, 1.0, model.raw(t.value, union).value)
        target = g * labels + (1.0 - g) * np.concatenate([labels[1:], labels[:1]])
    else:
        labels = model.raw(t, union) * (1.0 - mask_p) + mask_p
        target = g * labels + (1.0 - g) * labels[np.roll(np.arange(n), -1)]
    return mixup_reg_from_pairs(model, t, x_mix, target, "msle")


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
               gamma=None, target_stop_gradient: bool = True) -> ad.Tensor:
    """Objective plus lambda times the configured regularizer, on the
    positive rows `xp` and the unlabeled rows `xu`.

    The objective forwards each set of rows once, positives first (margins
    for the baselines, sigmoid outputs otherwise), and the pu MixUp target
    reuses the unlabeled outputs.  Baseline objectives (upu, nnpu) ignore
    the regularizer entirely.
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
        # its own forward of the positives: sharing phi_p would sum the two
        # heads' gradients before the network's backward and round differently
        reg = large_margin_values(model.raw(t, xp), spec.alpha)
    else:
        if gamma is None:
            raise ValueError("mixup regularizers need a gamma draw")
        reg = mixup_consistency_reg(model, t, xp, xu, phi_u, gamma,
                                    spec.reg_variant, target_stop_gradient)
    return base + spec.lam * reg

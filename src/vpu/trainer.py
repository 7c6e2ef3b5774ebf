"""The training loop: mini-batch sampling, Adam updates, validation-based
epoch selection, the lambda sweep, and final normalization.

One epoch is ceil(N/B) iterations of sample-batches / total-loss /
backward / Adam.  Epoch 0 records the untrained model, later rows follow
each epoch; when early stopping on validation loss is enabled the
parameters of the best epoch are restored before normalization.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import losses as ls
from . import metrics as mt
from . import model as md
from .data import PuDataset
from .sampling import Rng, sample_beta, sample_minibatch


class TrainingDiverged(RuntimeError):
    """Loss became non-finite; carries the failing epoch and iteration."""

    def __init__(self, epoch: int, iteration: int, cause: Exception):
        super().__init__(f"non-finite loss at epoch {epoch}, iteration "
                         f"{iteration}: {cause}")
        self.epoch = epoch
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    loss_spec: ls.LossSpec = field(default_factory=ls.LossSpec)
    batch_size: int = 500
    epochs: int = 50
    learning_rate: float = 3e-4
    adam_beta1: float = 0.5
    adam_beta2: float = 0.99
    adam_epsilon: float = 1e-8
    seed: int = 0
    early_stop_metric: str = "val_lvar"  # or "none"
    hidden_widths: tuple[int, ...] = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        if not (0.0 <= self.adam_beta1 < 1.0 and 0.0 <= self.adam_beta2 < 1.0):
            raise ValueError("adam betas must lie in [0, 1)")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ValueError("adam epsilon must be finite and positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and positive")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("bad batch size or epoch count")
        if self.early_stop_metric not in ("val_lvar", "none"):
            raise ValueError(f"unknown early-stop metric {self.early_stop_metric!r}")
        # the architecture's own checks on the hidden layers, for any input size
        md.MlpArchitecture(1, self.hidden_widths, self.activation)


@dataclass
class AdamState:
    beta1: float
    beta2: float
    epsilon: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, n: int, beta1: float, beta2: float, epsilon: float) -> "AdamState":
        return cls(beta1, beta2, epsilon, np.zeros(n), np.zeros(n))


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray,
              lr: float) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns fresh arrays."""
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grads
    v = state.beta2 * state.v + (1.0 - state.beta2) * grads * grads
    m_hat = m / (1.0 - state.beta1**t)
    v_hat = v / (1.0 - state.beta2**t)
    new_params = params - lr * m_hat / (np.sqrt(v_hat) + state.epsilon)
    return new_params, AdamState(state.beta1, state.beta2, state.epsilon, m, v, t)


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_lvar: float
    val_lvar: float  # nan when no validation split
    val_reg: float
    test_acc: float  # nan when labels withheld


@dataclass
class TrainReport:
    history: list[EpochStats]
    best_epoch: int
    final_model: md.ClassifierModel
    selected_lambda: float | None = None

    def history_csv(self) -> str:
        lines = ["epoch,train_lvar,val_lvar,val_reg,test_acc"]
        for row in self.history:
            lines.append(f"{row.epoch},{_cell(row.train_lvar)},{_cell(row.val_lvar)},"
                         f"{_cell(row.val_reg)},{_cell(row.test_acc)}")
        return "\n".join(lines) + "\n"


def _cell(v: float) -> str:
    """A CSV cell: the exact float, or empty for nan."""
    return "" if math.isnan(v) else f"{v:.17g}"


def _eval_epoch(model: md.ClassifierModel, values: np.ndarray, data: PuDataset,
                spec: ls.LossSpec, epoch: int) -> EpochStats:
    current = model.with_params(values)

    def lvar(pos, unl):
        phi_p = current.raw_values(pos)
        phi_u = current.raw_values(unl)
        return float(ls.variational_loss_value(phi_p, phi_u))

    train_lvar = lvar(data.positive, data.unlabeled)
    val_lvar = val_reg = math.nan
    if data.has_validation():
        val_lvar = lvar(data.val_positive, data.val_unlabeled)
        val_reg = _eval_reg(current, data, spec)
    test_acc = math.nan
    if data.test_x is not None:
        # baselines threshold the raw sigmoid (sign of the margin); the
        # variational objectives are scale-free and need the normalization
        snapshot = md.normalize(current, data) if spec.variational else current
        test_acc = mt.accuracy(snapshot, data.test_x, data.test_y)
    return EpochStats(epoch, train_lvar, val_lvar, val_reg, test_acc)


def _eval_reg(current: md.ClassifierModel, data: PuDataset,
              spec: ls.LossSpec) -> float:
    """Reporting-only regularizer value on the validation split (gamma fixed
    at 0.5 so the curve is deterministic); 0 when no regularizer applies."""
    if not spec.variational or spec.reg_variant == "none":
        return 0.0
    theta = current.params
    vp, vu = data.val_positive, data.val_unlabeled
    if spec.reg_variant == "large_margin":
        reg = ls.large_margin_values(current.raw(theta, vp), spec.alpha)
    else:
        k = min(vp.shape[0], vu.shape[0])
        phi_u = current.raw(theta, vu[:k]) if spec.reg_variant in ls.PU_TARGET_VARIANTS else None
        reg = ls.mixup_consistency_reg(current, theta, vp[:k], vu[:k], phi_u, 0.5,
                                       spec.reg_variant)
    return float(reg.value)


def train(config: TrainConfig, data: PuDataset) -> TrainReport:
    """Run the full stochastic-gradient loop and return the normalized model.

    Requires a validation split when `early_stop_metric` is val_lvar.
    """
    if config.early_stop_metric == "val_lvar" and not data.has_validation():
        raise ValueError("early stopping on val_lvar needs a validation split")
    spec = config.loss_spec
    rng = Rng(config.seed)
    arch = md.MlpArchitecture(input_dim=data.dim,
                              hidden_widths=config.hidden_widths,
                              activation=config.activation)
    base = md.init(arch, seed=config.seed)
    values = base.params.copy()
    adam = AdamState.zeros(values.size, config.adam_beta1, config.adam_beta2,
                           config.adam_epsilon)
    iters_per_epoch = max(1, math.ceil(data.n / config.batch_size))

    history = [_eval_epoch(base, values, data, spec, epoch=0)]
    best_epoch = 0
    best_values = values.copy()
    best_val = history[0].val_lvar

    for epoch in range(1, config.epochs + 1):
        try:
            for it in range(iters_per_epoch):
                xp = sample_minibatch(data.positive, config.batch_size, rng)
                xu = sample_minibatch(data.unlabeled, config.batch_size, rng)
                gamma = sample_beta(spec.alpha, rng) if spec.needs_gamma else None

                def loss_fn(theta):
                    return ls.total_loss(spec, base, theta, xp, xu, gamma)

                _, grads = ad.value_and_gradient(loss_fn, values)
                values, adam = adam_step(adam, values, grads, config.learning_rate)
                if not np.all(np.isfinite(values)):
                    raise ad.NumericError("parameters became non-finite")
            # an overflow here is charged to the last step, whose parameters it forwards
            stats = _eval_epoch(base, values, data, spec, epoch)
        except ad.NumericError as exc:
            raise TrainingDiverged(epoch, it, exc) from exc
        history.append(stats)
        if config.early_stop_metric == "val_lvar" and stats.val_lvar < best_val:
            best_val = stats.val_lvar
            best_epoch = epoch
            best_values = values.copy()

    if config.early_stop_metric == "val_lvar":
        final_values = best_values
    else:
        final_values = values
        best_epoch = config.epochs
    final = base.with_params(final_values)
    if spec.variational:
        final = md.normalize(final, data)
    return TrainReport(history=history, best_epoch=best_epoch, final_model=final)


def select_best(cells: list[tuple[float, float]]) -> int:
    """Index of the cell with minimal validation loss; ties go to the
    smaller lambda."""
    if not cells:
        raise ValueError("empty sweep")
    best = None
    for i, (lam, val) in enumerate(cells):
        if math.isnan(val):
            continue
        if best is None or (val, lam) < (cells[best][1], cells[best][0]):
            best = i
    if best is None:
        raise ValueError("every sweep cell failed")
    return best


@dataclass(frozen=True)
class SweepCell:
    lam: float
    val_lvar: float
    test_acc: float
    error: str = ""
    best: bool = False  # the cell the sweep selected


def sweep_csv(cells: list[SweepCell]) -> str:
    """One row per lambda; `*` marks the selected cell."""
    lines = ["lambda,val_lvar,test_acc,best"]
    for cell in cells:
        lines.append(f"{cell.lam!r},{_cell(cell.val_lvar)},{_cell(cell.test_acc)},"
                     f"{'*' if cell.best else ''}")
    return "\n".join(lines) + "\n"


def sweep_lambda(base_config: TrainConfig, grid: Sequence[float],
                 data: PuDataset) -> tuple[TrainReport, list[SweepCell]]:
    """Train once per lambda with derived seeds (seed + index); pick the cell
    with the lowest validation loss.  Failing cells are recorded and skipped;
    the sweep fails, with `NumericError`, only if every cell does."""
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    cells: list[SweepCell] = []
    reports: list[TrainReport | None] = []
    for i, lam in enumerate(grid):
        config = replace(base_config,
                         loss_spec=replace(base_config.loss_spec, lam=lam),
                         seed=base_config.seed + i)
        try:
            rep = train(config, data)
        except TrainingDiverged as exc:
            cells.append(SweepCell(lam, math.nan, math.nan, error=str(exc)))
            reports.append(None)
            continue
        at_best = rep.history[rep.best_epoch]
        cells.append(SweepCell(lam, at_best.val_lvar, at_best.test_acc))
        reports.append(rep)
    if all(rep is None for rep in reports):
        raise ad.NumericError(f"every sweep cell failed; the last: {cells[-1].error}")
    best = select_best([(c.lam, c.val_lvar) for c in cells])
    cells[best] = replace(cells[best], best=True)
    report = reports[best]
    report.selected_lambda = grid[best]
    return report, cells

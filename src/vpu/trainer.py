"""The training loop: mini-batch sampling, Adam updates, validation-based
epoch selection, the lambda sweep, and final normalization.

One epoch is ceil(N/B) iterations of sample-batches / total-loss /
backward / Adam.  Epoch 0 records the untrained model, later rows follow
each epoch; when early stopping on validation loss is enabled the
parameters of the best epoch are restored before normalization.

Training runs OpenBLAS on one thread, so its outputs do not depend on
the BLAS thread count.  Each epoch is scored right after its last step,
in the training process, on what selection reads (`_eval_epoch`, which
draws no random numbers).  The test rows are scored once, at the end.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace

import numpy as np

from . import autodiff as ad
from . import blas
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
        if not 0.0 <= self.adam_beta1 < 1.0:
            raise ValueError(f"adam_beta1 must lie in [0, 1), got {self.adam_beta1}")
        if not 0.0 <= self.adam_beta2 < 1.0:
            raise ValueError(f"adam_beta2 must lie in [0, 1), got {self.adam_beta2}")
        if not 0.0 < self.adam_epsilon < math.inf:
            raise ValueError("adam epsilon must be finite and positive")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be finite and positive")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 0:
            raise ValueError(f"epochs must be >= 0, got {self.epochs}")
        if self.early_stop_metric not in ("val_lvar", "none"):
            raise ValueError(f"unknown early-stop metric {self.early_stop_metric!r}")
        # the architecture's own checks on the hidden layers, for any input size
        md.MlpArchitecture(1, self.hidden_widths, self.activation)


@dataclass(frozen=True)
class AdamState:
    """Adam's moment estimates and step count; the constants stay in
    `TrainConfig`."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_step(config: TrainConfig, state: AdamState, params: np.ndarray,
              grads: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update with `config`'s betas, epsilon and
    learning rate; returns fresh arrays and leaves its inputs unchanged."""
    beta1, beta2 = config.adam_beta1, config.adam_beta2
    t = state.t + 1
    m = beta1 * state.m + (1.0 - beta1) * grads
    v = beta2 * state.v + (1.0 - beta2) * grads * grads
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    new_params = params - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_epsilon)
    return new_params, AdamState(m, v, t)


@dataclass(frozen=True)
class EpochStats:
    train_lvar: float
    val_lvar: float  # nan when no validation split
    val_reg: float


@dataclass(frozen=True)
class TrainReport:
    """A run's scored epochs, the chosen one, and the returned model."""

    history: list[EpochStats]
    best_epoch: int  # an index into `history`
    final_model: md.ClassifierModel
    test_acc: float  # the returned model's on the test rows; nan without them

    def history_csv(self) -> str:
        lines = ["epoch,train_lvar,val_lvar,val_reg,test_acc"]
        for epoch, row in enumerate(self.history):
            test_acc = _cell(self.test_acc) if epoch == self.best_epoch else ""
            lines.append(f"{epoch},{_cell(row.train_lvar)},{_cell(row.val_lvar)},"
                         f"{_cell(row.val_reg)},{test_acc}")
        return "\n".join(lines) + "\n"


def _cell(v: float) -> str:
    """A CSV cell: the exact float, or empty for nan."""
    return "" if math.isnan(v) else f"{v:.17g}"


def _eval_epoch(model: md.ClassifierModel, values: np.ndarray, data: PuDataset,
                spec: ls.LossSpec) -> EpochStats:
    """What selection reads of an epoch; no test row is scored here."""
    current = model.with_params(values)

    def lvar(pos, unl):
        phi_p = current.raw_values(pos)
        phi_u = current.raw_values(unl)
        return float(ls.variational_loss_values(phi_p, phi_u).value)

    train_lvar = lvar(data.positive, data.unlabeled)
    val_lvar = val_reg = math.nan
    if data.has_validation():
        val_lvar = lvar(data.val_positive, data.val_unlabeled)
        val_reg = _eval_reg(current, data, spec)
    return EpochStats(train_lvar, val_lvar, val_reg)


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
        reg = ls.mixup_consistency_reg(current, theta, vp[:k], vu[:k], None, 0.5,
                                       spec.reg_variant)
    return float(reg.value)


def train(config: TrainConfig, data: PuDataset) -> TrainReport:
    """Run the full stochastic-gradient loop and return the normalized model.

    The best epoch is the last one when `early_stop_metric` is none, and
    otherwise the first with the lowest `val_lvar` (which needs a
    validation split); the model keeps that epoch's parameters.  The test
    rows are scored once, on that model, for `TrainReport.test_acc`.

    OpenBLAS runs on one thread for the whole call (`blas.one_blas_thread`),
    so the outputs do not depend on the BLAS thread count.  Epoch 0 is
    scored before the first step and each later epoch after its last, in
    this process.  A `NumericError` in a step, or in scoring a later epoch
    (charged to its last step), raises `TrainingDiverged`; one in scoring
    the untrained model propagates as it is.
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
    adam = AdamState(np.zeros(values.size), np.zeros(values.size))
    iters_per_epoch = max(1, math.ceil(data.n / config.batch_size))
    history: list[EpochStats] = []
    best_epoch, best_values = 0, values

    with blas.one_blas_thread():
        # glibc serves a block above its mmap threshold with mmap and trims
        # free memory above twice the threshold off the heap top; freeing an
        # mmapped block raises the threshold to its size.  Left low, it has
        # every step hand its arrays back and fault them in again: a default
        # train took 117k minor faults without freeing this block, 772 with.
        np.empty((md.SCORE_ROWS, max(config.hidden_widths)))
        # epoch 0 scores the untrained model; `adam_step` returns fresh
        # arrays, so `values` is never written in place
        for epoch in range(config.epochs + 1):
            try:
                for it in range(iters_per_epoch if epoch else 0):
                    xp = sample_minibatch(data.positive, config.batch_size, rng)
                    xu = sample_minibatch(data.unlabeled, config.batch_size, rng)
                    gamma = sample_beta(spec.alpha, rng) if spec.needs_gamma else None

                    def loss_fn(theta):
                        return ls.total_loss(spec, base, theta, xp, xu, gamma)

                    _, grads = ad.value_and_gradient(loss_fn, values)
                    values, adam = adam_step(config, adam, values, grads)
                    if not np.all(np.isfinite(values)):
                        raise ad.NumericError("parameters became non-finite")
            except ad.NumericError as exc:
                raise TrainingDiverged(epoch, it, exc) from exc
            try:
                stats = _eval_epoch(base, values, data, spec)
            except ad.NumericError as exc:
                if epoch == 0:
                    raise
                # charged to the epoch's last step, whose parameters it forwards
                raise TrainingDiverged(epoch, iters_per_epoch - 1, exc) from exc
            history.append(stats)
            if config.early_stop_metric == "none" or stats.val_lvar < history[best_epoch].val_lvar:
                best_epoch, best_values = epoch, values

        final = base.with_params(best_values)
        if spec.variational:
            final = md.normalize(final, data)
        test_acc = math.nan if data.test_x is None else mt.accuracy(final, data.test_x, data.test_y)
    return TrainReport(history, best_epoch, final, test_acc)


@dataclass(frozen=True)
class SweepCell:
    lam: float
    val_lvar: float
    test_acc: float
    error: str = ""
    best: bool = False  # the cell the sweep selected


def select_best(cells: Sequence[SweepCell]) -> int:
    """Index of the cell with minimal validation loss, skipping failed (NaN)
    cells; ties go to the smaller lambda, then to the earlier cell.  Raises
    `ValueError` when every cell failed."""
    finite = [i for i, c in enumerate(cells) if not math.isnan(c.val_lvar)]
    return min(finite, key=lambda i: (cells[i].val_lvar, cells[i].lam))


def sweep_csv(cells: list[SweepCell]) -> str:
    """One row per lambda; `*` marks the selected cell."""
    lines = ["lambda,val_lvar,test_acc,best"]
    for cell in cells:
        lines.append(f"{cell.lam!r},{_cell(cell.val_lvar)},{_cell(cell.test_acc)},"
                     f"{'*' if cell.best else ''}")
    return "\n".join(lines) + "\n"


def sweep_lambda(base_config: TrainConfig, grid: Sequence[float],
                 data: PuDataset) -> tuple[TrainReport, list[SweepCell]]:
    """Train once per lambda with derived seeds (seed + index) and return
    the report of the cell `select_best` picks, with every cell; that cell
    is starred.  The data must hold a validation split, checked before the
    first cell trains.  Failing cells are recorded and skipped; the sweep
    fails, with `NumericError`, only if every cell does."""
    if not grid:
        raise ValueError("lambda grid must be nonempty")
    if not data.has_validation():
        raise ValueError("sweep selects lambda on validation loss: the data needs "
                         "VP/VU rows, which only early_stop = val_lvar splits off")
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
        cells.append(SweepCell(lam, rep.history[rep.best_epoch].val_lvar, rep.test_acc))
        reports.append(rep)
    if all(rep is None for rep in reports):
        raise ad.NumericError(f"every sweep cell failed; the last: {cells[-1].error}")
    best = select_best(cells)
    cells[best] = replace(cells[best], best=True)
    return reports[best], cells

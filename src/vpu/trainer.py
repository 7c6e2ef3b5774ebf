"""The training loop: mini-batch sampling, Adam updates, validation-based
epoch selection, the lambda sweep, and final normalization.

One epoch is ceil(N/B) iterations of sample-batches / total-loss /
backward / Adam.  Epoch 0 records the untrained model, later rows follow
each epoch; when early stopping on validation loss is enabled the
parameters of the best epoch are restored before normalization.

Training runs OpenBLAS on one thread, so its outputs do not depend on
the BLAS thread count.  Each epoch is scored (`_eval_epoch`, which reads
only that epoch's parameters and draws no random numbers) by one forked
worker while the training process runs the next epoch's steps, and is
collected when they are done: on a two-core machine the scoring leaves
the critical path.  The saving needs a free core; with every core busy
the worker only competes for it.  Without OpenBLAS, or in a daemonic
process, the epochs are scored in-process.
"""

from __future__ import annotations

import contextlib
import functools
import math
import signal
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
    test_acc: float  # nan when labels withheld


@dataclass(frozen=True)
class TrainReport:
    history: list[EpochStats]
    best_epoch: int  # an index into `history`
    final_model: md.ClassifierModel

    def history_csv(self) -> str:
        lines = ["epoch,train_lvar,val_lvar,val_reg,test_acc"]
        for epoch, row in enumerate(self.history):
            lines.append(f"{epoch},{_cell(row.train_lvar)},{_cell(row.val_lvar)},"
                         f"{_cell(row.val_reg)},{_cell(row.test_acc)}")
        return "\n".join(lines) + "\n"


def _cell(v: float) -> str:
    """A CSV cell: the exact float, or empty for nan."""
    return "" if math.isnan(v) else f"{v:.17g}"


def _eval_epoch(model: md.ClassifierModel, values: np.ndarray, data: PuDataset,
                spec: ls.LossSpec) -> EpochStats:
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
    test_acc = math.nan
    if data.test_x is not None:
        # baselines threshold the raw sigmoid (sign of the margin); the
        # variational objectives are scale-free and need the normalization
        snapshot = md.normalize(current, data) if spec.variational else current
        test_acc = mt.accuracy(snapshot, data.test_x, data.test_y)
    return EpochStats(train_lvar, val_lvar, val_reg, test_acc)


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


def _scoring_worker(conn, parent_end, base: md.ClassifierModel, data: PuDataset,
                    spec: ls.LossSpec) -> None:
    """The scoring worker's loop: answer each parameter vector from `conn` with
    `_eval_epoch`'s stats or exception until the parent closes its end."""
    # the fork copied the parent's end too; while it is open here, recv
    # never sees the parent close it
    parent_end.close()
    # Ctrl-C reaches the whole process group: the parent stops and closes
    # the pipe, and this loop then ends on its own
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            values = conn.recv()
        except (EOFError, ConnectionError):
            return
        try:
            out = _eval_epoch(base, values, data, spec)
        except Exception as exc:
            out = exc
        try:
            conn.send(out)
        except ConnectionError:  # the parent stopped without reading it
            return


@contextlib.contextmanager
def _epoch_scorer(base: md.ClassifierModel, data: PuDataset, spec: ls.LossSpec,
                  fork: bool):
    """Yield `score(values)`, which returns a call that gives `_eval_epoch`'s
    `EpochStats` on those parameters or raises what it raised.

    With `fork`, one forked worker scores an epoch while the caller runs
    the next one's steps, and no process outlives the `with` block.
    Otherwise, or in a daemonic process (which may not start children),
    the returned call scores in-process.
    """
    # glibc serves a block above its mmap threshold with mmap and trims free
    # memory above twice the threshold off the heap top; freeing an mmapped
    # block raises the threshold to its size.  Left low, it has every step
    # hand its arrays back and fault them in again: a default train took
    # 145k minor faults with the scoring in the worker, against 2k after
    # freeing one block of the scoring's size here first.
    np.empty((md.SCORE_ROWS, max(base.arch.hidden_widths)))
    if fork:
        # imported here only: it loads 19 modules that no other command needs
        import multiprocessing

        fork = not multiprocessing.current_process().daemon  # a `Pool` worker may not fork
    if not fork:
        yield lambda values: functools.partial(_eval_epoch, base, values, data, spec)
        return
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    worker = context.Process(target=_scoring_worker, name="vpu-epoch-scorer",
                             args=(child_end, parent_end, base, data, spec))
    worker.start()
    child_end.close()

    def died():
        worker.join()
        return RuntimeError(f"the epoch-scoring worker exited with code {worker.exitcode}")

    def score(values):
        try:
            parent_end.send(values)
        except ConnectionError:
            raise died() from None

        def result():
            try:
                out = parent_end.recv()
            except (EOFError, ConnectionError):
                raise died() from None
            if isinstance(out, Exception):
                raise out
            return out

        return result

    try:
        yield score
    finally:
        parent_end.close()
        worker.join()


def train(config: TrainConfig, data: PuDataset) -> TrainReport:
    """Run the full stochastic-gradient loop and return the normalized model.

    The best epoch is the last one when `early_stop_metric` is none, and
    otherwise the first with the lowest `val_lvar` (which needs a
    validation split); the model keeps that epoch's parameters.

    OpenBLAS runs on one thread for the whole call (`blas.one_blas_thread`),
    so the outputs do not depend on the BLAS thread count.  One forked
    worker scores each epoch while this process runs the next epoch's
    steps, and collects it when they are done; errors still surface in the
    serial order, an epoch's scoring before the next epoch's steps.  Where
    OpenBLAS cannot be found and pinned (another BLAS), or in a daemonic
    process, each epoch is scored in-process when it is collected.
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

    def take(scored):
        """Record the next epoch's scoring; the epochs arrive in order."""
        nonlocal best_epoch, best_values
        snapshot, result = scored
        epoch = len(history)
        try:
            stats = result()
        except ad.NumericError as exc:
            if epoch == 0:
                raise
            # charged to the epoch's last step, whose parameters it forwards
            raise TrainingDiverged(epoch, iters_per_epoch - 1, exc) from exc
        history.append(stats)
        if config.early_stop_metric == "none" or stats.val_lvar < history[best_epoch].val_lvar:
            best_epoch, best_values = epoch, snapshot

    with (blas.one_blas_thread() as one_thread,
          _epoch_scorer(base, data, spec, fork=one_thread) as score):
        # `adam_step` returns fresh arrays, so `values` is never written in place
        scored = values, score(values)
        for epoch in range(1, config.epochs + 1):
            try:
                for it in range(iters_per_epoch):
                    xp = sample_minibatch(data.positive, config.batch_size, rng)
                    xu = sample_minibatch(data.unlabeled, config.batch_size, rng)
                    gamma = sample_beta(spec.alpha, rng) if spec.needs_gamma else None

                    def loss_fn(theta):
                        return ls.total_loss(spec, base, theta, xp, xu, gamma)

                    _, grads = ad.value_and_gradient(loss_fn, values)
                    values, adam = adam_step(config, adam, values, grads)
                    if not np.all(np.isfinite(values)):
                        raise ad.NumericError("parameters became non-finite")
            except Exception as exc:
                take(scored)  # the last epoch's scoring fails first, as in serial order
                if isinstance(exc, ad.NumericError):
                    raise TrainingDiverged(epoch, it, exc) from exc
                raise
            take(scored)
            scored = values, score(values)
        take(scored)

        final = base.with_params(best_values)
        if spec.variational:
            final = md.normalize(final, data)
    return TrainReport(history=history, best_epoch=best_epoch, final_model=final)


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
        at_best = rep.history[rep.best_epoch]
        cells.append(SweepCell(lam, at_best.val_lvar, at_best.test_acc))
        reports.append(rep)
    if all(rep is None for rep in reports):
        raise ad.NumericError(f"every sweep cell failed; the last: {cells[-1].error}")
    best = select_best(cells)
    cells[best] = replace(cells[best], best=True)
    return reports[best], cells

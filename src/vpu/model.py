"""Sigmoid-output MLP classifier, post-training normalization, model files."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import autodiff as ad
from .sampling import Rng, _as_uniform, _take

_ACTIVATIONS = ("relu", "tanh")


class Layer(NamedTuple):
    weight: slice
    shape: tuple[int, int]  # (fan_in, fan_out) of the weight matrix
    bias: slice


@dataclass(frozen=True)
class MlpArchitecture:
    input_dim: int
    hidden_widths: tuple[int, ...] = (64, 64)
    activation: str = "relu"

    def __post_init__(self):
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        if len(self.hidden_widths) == 0:
            raise ValueError("at least one hidden layer is required")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))

    @cached_property
    def layers(self) -> tuple[Layer, ...]:
        """Where each layer's weights and bias sit in the flat parameter
        array: the weights row-major, then the bias, layer after layer."""
        dims = [self.input_dim, *self.hidden_widths, 1]
        table, offset = [], 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            stop = offset + fan_in * fan_out
            table.append(Layer(slice(offset, stop), (fan_in, fan_out),
                               slice(stop, stop + fan_out)))
            offset = stop + fan_out
        return tuple(table)


def parameter_count(arch: MlpArchitecture) -> int:
    return arch.layers[-1].bias.stop


# Rows scored per block by `ClassifierModel.raw_values`; the last block also
# takes the remainder, so it holds SCORE_ROWS to 2 * SCORE_ROWS - 1 rows.
# Blocked values equal those of one pass over all rows, bit for bit, with
# OpenBLAS 0.3.31 on one thread, because of two rules:
# - every block starts at a multiple of 8 rows: the gemm kernel rounds a
#   row by its position in a group of 8 (blocks of 777 rows changed 17-58
#   of 1e5 rows; blocks of 1000, 4096 and 8192 rows changed none);
# - no block is tiny: a 1-row block goes through gemv, not gemm (a 1-row
#   block after 4096 rows changed that row).
# On more threads OpenBLAS also splits the rows between them, and one pass
# over 4097, 8193 or 12289 rows can change a row against one thread; blocked
# and one-pass values then agree only to rounding.
SCORE_ROWS = 4096


@dataclass(frozen=True)
class ClassifierModel:
    """MLP with sigmoid head; output is min(raw / normalization_scale, 1)."""

    arch: MlpArchitecture
    params: np.ndarray  # flat float64, laid out by `arch.layers`
    normalization_scale: float = 1.0

    def __post_init__(self):
        params = np.asarray(self.params, dtype=np.float64)
        if params.shape != (parameter_count(self.arch),):
            raise ValueError(f"expected a flat array of {parameter_count(self.arch)} "
                             f"parameters, got shape {params.shape}")
        if not np.isfinite(params).all():
            raise ValueError("parameters contain non-finite entries")
        object.__setattr__(self, "params", params)
        if not 0.0 < self.normalization_scale < np.inf:
            raise ValueError("normalization_scale must be positive and finite")

    def logits(self, theta, x: np.ndarray) -> ad.Tensor:
        """Pre-sigmoid network output as one differentiable node on `theta`.

        `theta` is the flat parameter Tensor (or array) the node is built
        on; `x` enters as a constant.  The forward pass is plain numpy and
        keeps each layer's input; the backward rule is the chain rule through
        the layers, with the same numpy operations, in the same order, as a
        tape of per-layer matmul/add/activation nodes, so values and
        gradients are bit-identical to that tape.  Non-finite intermediates
        raise `NumericError` naming the operation (matmul, add).
        """
        t = ad.as_tensor(theta)
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.arch.input_dim:
            raise ValueError(f"expected features of dimension {self.arch.input_dim}")
        ad._checked(X, "features")
        act = self.arch.activation
        layers = [(layer, t.value[layer.weight].reshape(layer.shape), t.value[layer.bias])
                  for layer in self.arch.layers]
        inputs = []  # the input of each layer, kept for the backward pass
        h = X
        with ad._quiet():  # overflow surfaces as NumericError, not a warning
            for i, (_, w, b) in enumerate(layers):
                inputs.append(h)
                h = ad._checked(h @ w, "matmul")
                h += b
                ad._checked(h, "add")
                if i < len(layers) - 1:
                    # in place: the backward pass reads only the activations
                    # (relu: z > 0 iff relu(z) > 0; tanh' = 1 - tanh^2)
                    if act == "relu":
                        np.maximum(h, 0.0, out=h)
                    else:
                        np.tanh(h, out=h)

        def backward(g):
            grad = np.zeros_like(t.value)
            g = g.reshape((X.shape[0], 1))
            for i in range(len(layers) - 1, -1, -1):
                (layer, w, _), h_in = layers[i], inputs[i]
                grad[layer.bias] = g.sum(axis=0)
                grad[layer.weight] = (h_in.T @ g).ravel()
                if i == 0:
                    break
                g = g @ w.T
                g = g * (h_in > 0.0) if act == "relu" else g * (1.0 - h_in * h_in)
            t._accumulate(grad)

        return ad.Tensor(h.reshape((X.shape[0],)), (t,), backward, "logits")

    def raw(self, theta, x: np.ndarray) -> ad.Tensor:
        """sigmoid(logits), before normalization; used by the training losses."""
        return ad.sigmoid(self.logits(theta, x))

    def raw_values(self, x: np.ndarray) -> np.ndarray:
        """sigmoid(logits) of the rows of `x` as plain values, one block of
        rows at a time (see `SCORE_ROWS`): only one block's activations are
        alive at once, also when a block raises `NumericError`, which then
        names the first failing node of the first failing block."""
        X = np.asarray(x, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"expected a 2-D array of rows, got shape {X.shape}")
        n = X.shape[0]
        out = np.empty(n, dtype=np.float64)
        start = 0
        for stop in [*range(SCORE_ROWS, n - SCORE_ROWS + 1, SCORE_ROWS), n]:
            out[start:stop] = self.raw(self.params, X[start:stop]).value
            start = stop
        return out

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Normalized probability min(raw/scale, 1) in (0, 1] of each row."""
        return np.minimum(self.raw_values(x) / self.normalization_scale, 1.0)

    def with_params(self, values: np.ndarray) -> "ClassifierModel":
        return replace(self, params=values)


def init(arch: MlpArchitecture, seed: int) -> ClassifierModel:
    """Glorot-uniform weights, zero biases, scale 1; deterministic per seed."""
    rng = Rng(seed)
    values = np.zeros(parameter_count(arch), dtype=np.float64)
    for layer in arch.layers:
        fan_in, fan_out = layer.shape
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        values[layer.weight] = (2.0 * _as_uniform(_take(rng, fan_in * fan_out)) - 1.0) * bound
    return ClassifierModel(arch=arch, params=values)


def normalize(model: ClassifierModel, dataset) -> ClassifierModel:
    """Set the scale to the max raw output over all positive and unlabeled
    points (validation split included); predict_proba then attains 1 there."""
    points = dataset.all_inputs()
    if points.shape[0] == 0:
        raise ValueError("cannot normalize on an empty dataset")
    scale = float(np.max(model.raw_values(points)))
    return replace(model, normalization_scale=scale)


def save_model(model: ClassifierModel, path: str) -> None:
    """Flat text format: one header line, then one weight per line."""
    widths = ",".join(str(w) for w in model.arch.hidden_widths)
    values = model.params.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vpu-model v1 {model.arch.input_dim} {widths} "
                 f"{model.arch.activation} {model.normalization_scale:.17g}\n")
        fh.write(("%.17g\n" * len(values)) % tuple(values))


def load_model(path: str) -> ClassifierModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except UnicodeDecodeError as exc:  # its position counts bytes, not lines
        raise ValueError(f"{path}: {exc}") from None
    if not lines:
        raise ValueError(f"{path}: empty model file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "vpu-model" or header[1] != "v1":
        raise ValueError(f"{path}: not a vpu-model v1 file")
    values = np.empty(len(lines) - 1)
    for lineno, text in enumerate(lines[1:], start=2):
        try:
            values[lineno - 2] = float(text)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    try:
        arch = MlpArchitecture(input_dim=int(header[2]), activation=header[4],
                               hidden_widths=tuple(int(w) for w in header[3].split(",")))
        return ClassifierModel(arch=arch, params=values, normalization_scale=float(header[5]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

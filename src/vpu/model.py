"""Sigmoid-output MLP classifier, post-training normalization, model files."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .sampling import Rng, _uniforms

_ACTIVATIONS = ("relu", "tanh")


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

    @property
    def layer_dims(self) -> list[tuple[int, int]]:
        dims = [self.input_dim, *self.hidden_widths, 1]
        return list(zip(dims[:-1], dims[1:]))


def mlp_layout(arch: MlpArchitecture) -> tuple[ad.Segment, ...]:
    segments = []
    offset = 0
    for i, (fan_in, fan_out) in enumerate(arch.layer_dims):
        segments.append(ad.Segment(f"w{i}", offset, offset + fan_in * fan_out, (fan_in, fan_out)))
        offset += fan_in * fan_out
        segments.append(ad.Segment(f"b{i}", offset, offset + fan_out, (fan_out,)))
        offset += fan_out
    return tuple(segments)


def parameter_count(arch: MlpArchitecture) -> int:
    return sum(fi * fo + fo for fi, fo in arch.layer_dims)


@dataclass(frozen=True)
class ClassifierModel:
    """MLP with sigmoid head; output is min(raw / normalization_scale, 1)."""

    arch: MlpArchitecture
    params: ad.ParameterVector
    normalization_scale: float = 1.0

    def __post_init__(self):
        if not (self.normalization_scale > 0.0):
            raise ValueError("normalization_scale must be positive")

    def logits(self, theta, x: np.ndarray) -> ad.Tensor:
        """Pre-sigmoid network output as one differentiable node on `theta`.

        `theta` is the flat parameter Tensor (or array) the node is built
        on; `x` enters as a constant.  The forward pass is plain numpy and
        keeps each layer's input; the backward rule is the chain rule through
        the layers, with the same numpy operations, in the same order, as a
        tape of per-layer matmul/add/activation nodes, so values and
        gradients are bit-identical to that tape.  Non-finite intermediates
        raise `NumericError` naming the operation (matmul, add, relu, tanh).
        """
        t = ad.as_tensor(theta)
        X = np.asarray(x, dtype=np.float64)
        if X.ndim == 1:
            X = X[None, :]
        if X.ndim != 2 or X.shape[1] != self.arch.input_dim:
            raise ValueError(f"expected features of dimension {self.arch.input_dim}")
        ad._checked(X, "features")
        act = self.arch.activation
        layers = []  # (weight segment, bias segment, W, b) per layer
        for i in range(len(self.arch.layer_dims)):
            sw, sb = self.params.segment(f"w{i}"), self.params.segment(f"b{i}")
            layers.append((sw, sb, t.value[sw.start:sw.stop].reshape(sw.shape),
                           t.value[sb.start:sb.stop]))
        inputs = []  # the input of each layer, kept for the backward pass
        h = X
        with ad._quiet():  # overflow surfaces as NumericError, not a warning
            for i, (_, _, w, b) in enumerate(layers):
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
                    ad._checked(h, act)

        def backward(g):
            grad = np.zeros_like(t.value)
            g = g.reshape((X.shape[0], 1))
            for i in range(len(layers) - 1, -1, -1):
                (sw, sb, w, _), h_in = layers[i], inputs[i]
                grad[sb.start:sb.stop] = g.sum(axis=0)
                grad[sw.start:sw.stop] = (h_in.T @ g).ravel()
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
        return self.raw(self.params.values, np.atleast_2d(np.asarray(x, dtype=np.float64))).value

    def predict_proba(self, x: np.ndarray):
        """Normalized probability min(raw/scale, 1) in (0, 1]."""
        X = np.asarray(x, dtype=np.float64)
        single = X.ndim == 1
        p = np.minimum(self.raw_values(X) / self.normalization_scale, 1.0)
        return float(p[0]) if single else p

    def with_params(self, values: np.ndarray) -> "ClassifierModel":
        return replace(self, params=self.params.replaced(values))


def init(arch: MlpArchitecture, seed: int) -> ClassifierModel:
    """Glorot-uniform weights, zero biases, scale 1; deterministic per seed."""
    rng = Rng(seed)
    values = np.zeros(parameter_count(arch), dtype=np.float64)
    layout = mlp_layout(arch)
    params = ad.ParameterVector(values, layout)
    for i, (fan_in, fan_out) in enumerate(arch.layer_dims):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        seg = params.segment(f"w{i}")
        values[seg.start:seg.stop] = (2.0 * _uniforms(rng, seg.stop - seg.start) - 1.0) * bound
    return ClassifierModel(arch=arch, params=ad.ParameterVector(values, layout))


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
    values = model.params.values.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"vpu-model v1 {model.arch.input_dim} {widths} "
                 f"{model.arch.activation} {model.normalization_scale:.17g}\n")
        fh.write(("%.17g\n" * len(values)) % tuple(values))


def load_model(path: str) -> ClassifierModel:
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty model file")
    header = lines[0].split()
    if len(header) != 6 or header[0] != "vpu-model" or header[1] != "v1":
        raise ValueError(f"{path}: not a vpu-model v1 file")
    arch = MlpArchitecture(
        input_dim=int(header[2]),
        hidden_widths=tuple(int(w) for w in header[3].split(",")),
        activation=header[4],
    )
    scale = float(header[5])
    expected = parameter_count(arch)
    weights = lines[1:]
    if len(weights) != expected:
        raise ValueError(f"{path}: expected {expected} weights, found {len(weights)}")
    values = np.array([float(w) for w in weights], dtype=np.float64)
    params = ad.ParameterVector(values, mlp_layout(arch))
    return ClassifierModel(arch=arch, params=params, normalization_scale=scale)

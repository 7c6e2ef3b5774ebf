"""Reference implementations that the optimised code is tested against.

`TapeModel` builds the MLP as a tape of per-layer take / reshape / matmul /
add / activation nodes, the way `ClassifierModel.logits` did before it
became one node with a hand-written backward; the tape ops it needs beyond
those the losses use (`matmul`, `tanh`, `reshape`) are defined here.
`sample_indices_loop` draws one `Rng.randbelow` per index, the way
`sampling.sample_indices` did before its draws were vectorised.  Both must
agree with the optimised code bit for bit.
"""

from __future__ import annotations

import numpy as np

from vpu import autodiff as ad
from vpu import model as md


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
    if X.ndim == 1:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != model.arch.input_dim:
        raise ValueError(f"expected features of dimension {model.arch.input_dim}")
    act = _ACTIVATIONS[model.arch.activation]
    h = ad.Tensor(X, name="features")
    n_layers = len(model.arch.layer_dims)
    for i, (fan_in, fan_out) in enumerate(model.arch.layer_dims):
        seg_w = model.params.segment(f"w{i}")
        seg_b = model.params.segment(f"b{i}")
        w = reshape(t[seg_w.start:seg_w.stop], (fan_in, fan_out))
        b = t[seg_b.start:seg_b.stop]
        h = matmul(h, w) + b
        if i < n_layers - 1:
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

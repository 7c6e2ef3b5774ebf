"""Reverse-mode differentiation over scalar losses of a flat parameter vector.

A small tape: every operation produces a `Tensor` holding a float64 numpy
array, its parents, and a backward rule.  Calling `gradient` on a scalar
expression topologically replays the tape.  All arithmetic is 64-bit; any
non-finite intermediate raises `NumericError` naming the offending node.

The ops are the ones the training losses need: arithmetic, `log`, `mean`,
`sigmoid`, `positive_part` and indexing (`take`).  `log` is guarded as
log(max(x, LOG_FLOOR)) with LOG_FLOOR = 1e-12, so losses stay bounded when a
sigmoid output underflows; below the floor the derivative is zero
(consistent with the clamped forward value).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

LOG_FLOOR = 1e-12


class NumericError(ArithmeticError):
    """An intermediate value overflowed or became NaN."""


def _checked(value: np.ndarray, name: str) -> np.ndarray:
    if not np.isfinite(value).all():
        raise NumericError(f"non-finite value produced by node '{name}'")
    return value


def _quiet():
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("value", "parents", "_backward", "name", "grad")

    # keep numpy from absorbing `ndarray <op> Tensor`; defer to our dunders
    __array_ufunc__ = None

    def __init__(self, value, parents=(), backward=None, name="const"):
        self.value = _checked(np.asarray(value, dtype=np.float64), name)
        self.parents: tuple[Tensor, ...] = tuple(parents)
        self._backward: Callable[[np.ndarray], None] | None = backward
        self.name = name
        self.grad: np.ndarray | None = None

    # -- graph construction ------------------------------------------------

    def _accumulate(self, g: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def backward(self) -> None:
        if self.value.size != 1:
            raise ValueError("backward requires a scalar output")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                order.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node.parents:
                if id(p) not in seen:
                    stack.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.value)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- operators ----------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __getitem__(self, key):
        return take(self, key)

    def __repr__(self):
        return f"Tensor(name={self.name!r}, shape={self.value.shape})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _binary(name, a, b, forward, back_a, back_b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    with _quiet():  # overflow surfaces as NumericError, not a warning
        value = forward(a.value, b.value)

    def backward(g):
        a._accumulate(_unbroadcast(back_a(g, a.value, b.value), a.value.shape))
        b._accumulate(_unbroadcast(back_b(g, a.value, b.value), b.value.shape))

    return Tensor(value, (a, b), backward, name)


def add(a, b) -> Tensor:
    return _binary("add", a, b, lambda x, y: x + y,
                   lambda g, x, y: g, lambda g, x, y: g)


def sub(a, b) -> Tensor:
    return _binary("sub", a, b, lambda x, y: x - y,
                   lambda g, x, y: g, lambda g, x, y: -g)


def mul(a, b) -> Tensor:
    return _binary("mul", a, b, lambda x, y: x * y,
                   lambda g, x, y: g * y, lambda g, x, y: g * x)


def div(a, b) -> Tensor:
    return _binary("div", a, b, lambda x, y: x / y,
                   lambda g, x, y: g / y, lambda g, x, y: -g * x / (y * y))


def log(a) -> Tensor:
    """Guarded natural log: log(max(x, LOG_FLOOR)); zero gradient below the floor."""
    a = as_tensor(a)
    clamped = np.maximum(a.value, LOG_FLOOR)
    value = np.log(clamped)

    def backward(g):
        a._accumulate(g * np.where(a.value > LOG_FLOOR, 1.0 / clamped, 0.0))

    return Tensor(value, (a,), backward, "log")


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    x = a.value
    e = np.exp(-np.abs(x))  # in (0, 1]: neither branch overflows
    value = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g):
        a._accumulate(g * value * (1.0 - value))

    return Tensor(value, (a,), backward, "sigmoid")


def positive_part(a) -> Tensor:
    """max(0, x) with gradient flowing only through the selected branch."""
    a = as_tensor(a)
    value = np.maximum(a.value, 0.0)

    def backward(g):
        a._accumulate(g * (a.value > 0.0))

    return Tensor(value, (a,), backward, "positive_part")


def mean(a) -> Tensor:
    """Mean over the last axis: a stack of rows gives each row's mean, with
    the bits that row gives alone."""
    a = as_tensor(a)
    value = a.value.mean(axis=-1)

    def backward(g):
        a._accumulate(np.full_like(a.value, g[..., None] / a.value.shape[-1]))

    return Tensor(value, (a,), backward, "mean")


def take(a, key) -> Tensor:
    a = as_tensor(a)
    value = a.value[key]

    def backward(g):
        out = np.zeros_like(a.value)
        np.add.at(out, key, g)
        a._accumulate(out)

    return Tensor(value, (a,), backward, "take")


LossFn = Callable[[Tensor], Tensor]


def evaluate(loss_fn: LossFn, params: np.ndarray) -> float:
    """Scalar value of the expression at `params`; deterministic."""
    out = loss_fn(Tensor(np.array(params, dtype=np.float64), name="params"))
    if out.value.size != 1:
        raise ValueError("loss expression must be scalar")
    return float(out.value)


def value_and_gradient(loss_fn: LossFn, params: np.ndarray) -> tuple[float, np.ndarray]:
    leaf = Tensor(np.array(params, dtype=np.float64), name="params")
    out = loss_fn(leaf)
    if out.value.size != 1:
        raise ValueError("loss expression must be scalar")
    out.backward()
    grad = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.value)
    return float(out.value), _checked(grad, "gradient")


def gradient(loss_fn: LossFn, params: np.ndarray) -> np.ndarray:
    """Exact reverse-mode derivatives of the scalar loss at `params`."""
    return value_and_gradient(loss_fn, params)[1]


def finite_diff_gradient(loss_fn: LossFn, params: np.ndarray,
                         step: float = 1e-6) -> np.ndarray:
    """Central differences (L(x+h e_i) - L(x-h e_i)) / 2h, per coordinate."""
    if step <= 0:
        raise ValueError("step must be positive")
    base = np.asarray(params, dtype=np.float64)
    grad = np.zeros_like(base)
    for i in range(base.size):
        bumped = base.copy()
        bumped[i] = base[i] + step
        hi = evaluate(loss_fn, bumped)
        bumped[i] = base[i] - step
        lo = evaluate(loss_fn, bumped)
        grad[i] = (hi - lo) / (2.0 * step)
    return grad

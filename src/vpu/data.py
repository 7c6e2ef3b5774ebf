"""Synthetic PU tasks from Gaussian mixtures, selection-bias injection,
CSV persistence, and validation splitting.

CSV schema: header ``set,x0..x{d-1}[,y]`` with ``set`` one of P, U, VP, VU,
T; the label column y is required only for T rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .sampling import Rng, shuffled_indices

_SET_TAGS = ("P", "U", "VP", "VU", "T")


@dataclass(frozen=True)
class GaussianComponent:
    mean: np.ndarray
    cov_diag: np.ndarray
    label: int  # +1 or -1
    weight: float

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = np.asarray(self.cov_diag, dtype=np.float64)
        if mean.shape != cov.shape or mean.ndim != 1:
            raise ValueError("mean and cov_diag must be 1-D with equal length")
        if not np.isfinite(mean).all():
            raise ValueError("component mean must be finite")
        if not ((cov > 0) & (cov < math.inf)).all():
            raise ValueError("covariance diagonal must be finite and positive")
        if self.label not in (1, -1):
            raise ValueError("component label must be +1 or -1")
        if not 0.0 < self.weight < math.inf:
            raise ValueError("component weight must be finite and positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov_diag", cov)


@dataclass(frozen=True)
class GaussianMixtureSpec:
    components: tuple[GaussianComponent, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        dim = comps[0].mean.size
        if any(c.mean.size != dim for c in comps):
            raise ValueError("components must share a dimension")
        if abs(sum(c.weight for c in comps) - 1.0) > 1e-12:
            raise ValueError("mixture weights must sum to 1")
        object.__setattr__(self, "components", comps)

    @property
    def dim(self) -> int:
        return self.components[0].mean.size

    @property
    def pi_p(self) -> float:
        return sum(c.weight for c in self.components if c.label == 1)

    def positive_components(self) -> list[GaussianComponent]:
        return [c for c in self.components if c.label == 1]


def _gaussian_pdf(x: np.ndarray, comp: GaussianComponent) -> np.ndarray:
    diff = x - comp.mean
    quad = np.sum(diff * diff / comp.cov_diag, axis=-1)
    norm = np.prod(2.0 * math.pi * comp.cov_diag) ** -0.5
    return norm * np.exp(-0.5 * quad)


def mixture_pdf(spec: GaussianMixtureSpec, x: np.ndarray,
                label: int | None = None) -> np.ndarray:
    """Marginal density, or the class-conditional when `label` is given."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    comps = spec.components if label is None else [c for c in spec.components
                                                   if c.label == label]
    total_w = sum(c.weight for c in comps)
    out = np.zeros(x.shape[0])
    for c in comps:
        out += (c.weight / total_w if label is not None else c.weight) * _gaussian_pdf(x, c)
    return out


def true_posterior(spec: GaussianMixtureSpec, x: np.ndarray) -> np.ndarray:
    """P(y=+1 | x) from the mixture densities."""
    joint_pos = mixture_pdf(spec, x, label=1) * spec.pi_p
    marginal = mixture_pdf(spec, x)
    out = np.zeros_like(joint_pos)
    np.divide(joint_pos, marginal, out=out, where=marginal > 0)
    return out


@dataclass(frozen=True)
class PuDataset:
    """Positive and unlabeled training pools, optional validation split,
    optional labeled test set, optional true class prior."""

    positive: np.ndarray
    unlabeled: np.ndarray
    val_positive: np.ndarray | None = None
    val_unlabeled: np.ndarray | None = None
    test_x: np.ndarray | None = None
    test_y: np.ndarray | None = None
    pi_p: float | None = None

    def __post_init__(self):
        pos = np.asarray(self.positive, dtype=np.float64)
        unl = np.asarray(self.unlabeled, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positive set empty")
        if unl.ndim != 2 or unl.shape[0] < 1:
            raise ValueError("unlabeled set empty")
        dim = pos.shape[1]
        for name in ("positive", "unlabeled", "val_positive", "val_unlabeled", "test_x"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape[1] != dim:
                raise ValueError(f"{name} dimension differs from positive set")
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} holds a non-finite feature")
        if (self.test_x is None) != (self.test_y is None):
            raise ValueError("test features and labels must come together")
        object.__setattr__(self, "positive", pos)
        object.__setattr__(self, "unlabeled", unl)

    @property
    def dim(self) -> int:
        return self.positive.shape[1]

    @property
    def m(self) -> int:
        return self.positive.shape[0]

    @property
    def n(self) -> int:
        return self.unlabeled.shape[0]

    def has_validation(self) -> bool:
        return self.val_positive is not None and self.val_unlabeled is not None

    def all_inputs(self) -> np.ndarray:
        """Every positive and unlabeled point seen in training (val included)."""
        parts = [self.positive, self.unlabeled]
        if self.val_positive is not None:
            parts.append(self.val_positive)
        if self.val_unlabeled is not None:
            parts.append(self.val_unlabeled)
        return np.concatenate(parts, axis=0)


def _sample_component(comp: GaussianComponent, rng: Rng) -> np.ndarray:
    z = rng.normals(comp.mean.size)
    return comp.mean + np.sqrt(comp.cov_diag) * z


def _pick_component(comps, rng: Rng) -> GaussianComponent:
    total = sum(c.weight for c in comps)
    u = rng.uniform() * total
    acc = 0.0
    for c in comps:
        acc += c.weight
        if u < acc:
            return c
    return comps[-1]


def sample_class_conditional(spec: GaussianMixtureSpec, label: int, n: int,
                             rng: Rng) -> np.ndarray:
    comps = [c for c in spec.components if c.label == label]
    if not comps:
        raise ValueError(f"mixture has no components with label {label}")
    return np.stack([_sample_component(_pick_component(comps, rng), rng)
                     for _ in range(n)])


def sample_joint(spec: GaussianMixtureSpec, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    xs, ys = [], []
    for _ in range(n):
        c = _pick_component(spec.components, rng)
        xs.append(_sample_component(c, rng))
        ys.append(c.label)
    return np.stack(xs), np.array(ys, dtype=np.int64)


def generate(spec: GaussianMixtureSpec, m: int, n: int, n_test: int,
             seed: int) -> PuDataset:
    """SCAR sampling: positives from the class conditional, unlabeled from
    the marginal, test from the labeled joint."""
    if not spec.positive_components():
        raise ValueError("mixture needs at least one positive component")
    if all(c.label == 1 for c in spec.components):
        raise ValueError("mixture needs at least one negative component")
    rng = Rng(seed)
    positive = sample_class_conditional(spec, 1, m, rng)
    unlabeled, _ = sample_joint(spec, n, rng)
    test_x = test_y = None
    if n_test > 0:
        test_x, test_y = sample_joint(spec, n_test, rng)
    return PuDataset(positive=positive, unlabeled=unlabeled,
                     test_x=test_x, test_y=test_y, pi_p=spec.pi_p)


def inject_selection_bias(pools: list[np.ndarray], counts: list[int]) -> np.ndarray:
    """Take exactly counts[i] positives from subclass pool i and stack them:
    the leading rows, since the pools are already random samples."""
    if len(pools) != len(counts):
        raise ValueError("one count per subclass pool")
    taken = []
    for i, (pool, count) in enumerate(zip(pools, counts)):
        pool = np.asarray(pool, dtype=np.float64)
        if count < 0 or count > pool.shape[0]:
            raise ValueError(f"count {count} exceeds pool {i} of size {pool.shape[0]}")
        taken.append(pool[:count])
    return np.concatenate(taken, axis=0)


def check_fraction(fraction: float) -> float:
    """`fraction` itself if `split_validation` accepts it, i.e. it lies in (0, 1)."""
    if not 0.0 < fraction < 1.0:
        raise ValueError("fraction must be in (0, 1)")
    return fraction


def split_validation(data: PuDataset, fraction: float, seed: int) -> PuDataset:
    """Disjoint train/validation split, proportional for both pools."""
    check_fraction(fraction)
    rng = Rng(seed)

    def split(pool: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        n = pool.shape[0]
        n_val = int(round(n * fraction))
        if n_val < 1 or n_val >= n:
            raise ValueError(f"fraction {fraction} leaves an empty side for pool of {n}")
        idx = shuffled_indices(n, rng)
        return pool[idx[n_val:]], pool[idx[:n_val]]

    train_p, val_p = split(data.positive)
    train_u, val_u = split(data.unlabeled)
    return replace(data, positive=train_p, unlabeled=train_u,
                   val_positive=val_p, val_unlabeled=val_u)


def write_csv(data: PuDataset, path: str) -> None:
    dim = data.dim
    has_test = data.test_x is not None
    header = ["set"] + [f"x{i}" for i in range(dim)] + (["y"] if has_test else [])

    def fmt(row):
        return [f"{v:.17g}" for v in row]

    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for tag, pool in (("P", data.positive), ("U", data.unlabeled),
                          ("VP", data.val_positive), ("VU", data.val_unlabeled)):
            if pool is None:
                continue
            for row in pool:
                writer.writerow([tag] + fmt(row) + ([""] if has_test else []))
        if has_test:
            for row, label in zip(data.test_x, data.test_y):
                writer.writerow(["T"] + fmt(row) + [f"{int(label):+d}"])


def load_csv(path: str) -> PuDataset:
    pools: dict[str, list] = {tag: [] for tag in _SET_TAGS}
    labels: list[int] = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        has_label = header[-1] == "y"
        dim = len(header) - 1 - (1 if has_label else 0)
        if dim < 1 or header[0] != "set" or header[1:dim + 1] != [f"x{i}" for i in range(dim)]:
            raise ValueError(f"{path}: malformed header {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            tag = row[0]
            if tag not in _SET_TAGS:
                raise ValueError(f"{path}:{lineno}: unknown set tag {tag!r}")
            expected = 1 + dim + (1 if has_label else 0)
            if len(row) != expected:
                raise ValueError(f"{path}:{lineno}: expected {expected} fields, got {len(row)}")
            try:
                features = [float(v) for v in row[1:dim + 1]]
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad number ({exc})") from None
            pools[tag].append(features)
            if tag == "T":
                if not has_label or row[-1] == "":
                    raise ValueError(f"{path}:{lineno}: test row without label")
                labels.append(int(float(row[-1])))
    if not pools["P"]:
        raise ValueError(f"{path}: positive set empty")
    if not pools["U"]:
        raise ValueError(f"{path}: unlabeled set empty")

    def arr(tag):
        return np.array(pools[tag], dtype=np.float64) if pools[tag] else None

    test_x = arr("T")
    test_y = np.array(labels, dtype=np.int64) if labels else None
    try:
        return PuDataset(positive=arr("P"), unlabeled=arr("U"),
                         val_positive=arr("VP"), val_unlabeled=arr("VU"),
                         test_x=test_x, test_y=test_y)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

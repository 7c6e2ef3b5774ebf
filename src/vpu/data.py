"""Synthetic PU tasks from Gaussian mixtures, selection-bias injection,
CSV persistence, and validation splitting.

CSV schema: header ``set,x0..x{d-1}[,y]`` with ``set`` one of P, U, VP, VU,
T; the label column y is required only for T rows.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from itertools import accumulate, chain, compress, islice

import numpy as np

from .sampling import Rng, _as_uniform, _pairs_needed, _take, sample_indices

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
    optional labeled test set."""

    positive: np.ndarray
    unlabeled: np.ndarray
    val_positive: np.ndarray | None = None
    val_unlabeled: np.ndarray | None = None
    test_x: np.ndarray | None = None
    test_y: np.ndarray | None = None

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
        if (self.val_positive is None) != (self.val_unlabeled is None):
            raise ValueError("validation positives and unlabeled points (VP and VU rows) "
                             "must come together")
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
        return self.val_positive is not None

    def all_inputs(self) -> np.ndarray:
        """Every positive and unlabeled point seen in training (val included)."""
        parts = [self.positive, self.unlabeled]
        if self.has_validation():
            parts += [self.val_positive, self.val_unlabeled]
        return np.concatenate(parts, axis=0)


def _picks(weights: list[float], x: np.ndarray) -> np.ndarray:
    """The component index each output in `x` picks, as a uniform u: the
    first whose cumulative weight exceeds ``u * total``, the last if none
    does.  Both sums run in list order, the way a loop adds them up."""
    u = _as_uniform(x) * sum(weights)
    return np.minimum(np.searchsorted(list(accumulate(weights)), u, side="right"),
                      len(weights) - 1)


def _sample_pool(comps, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    """`n` rows from the mixture of `comps`, and each row's component index.

    The stream layout is that of drawing row by row: one uniform picks the
    component, then `dim` normals drawn one at a time give its features, the
    cached normal carrying across rows and calls.  All outputs come from one
    block; `Rng.normals` turns the Box-Muller pairs among them into normals.
    """
    if n < 1:
        raise ValueError("a pool needs at least one row")
    dim = comps[0].mean.size
    # the pairs drawn before each row's pick, and after the last row
    pairs = _pairs_needed(np.arange(n + 1) * dim, rng._cached_normal is not None)
    is_pick = np.zeros(n + 2 * int(pairs[-1]), dtype=bool)
    is_pick[np.arange(n) + 2 * pairs[:-1]] = True
    x = _take(rng, is_pick.size)
    pick = _picks([c.weight for c in comps], x[is_pick])
    z = rng.normals(n * dim, x[~is_pick]).reshape(n, dim)
    rows = np.empty((n, dim))
    for i, c in enumerate(comps):
        mask = pick == i
        rows[mask] = c.mean + np.sqrt(c.cov_diag) * z[mask]
    return rows, pick


def sample_class_conditional(spec: GaussianMixtureSpec, label: int, n: int,
                             rng: Rng) -> np.ndarray:
    comps = [c for c in spec.components if c.label == label]
    if not comps:
        raise ValueError(f"mixture has no components with label {label}")
    return _sample_pool(comps, n, rng)[0]


def sample_joint(spec: GaussianMixtureSpec, n: int, rng: Rng) -> tuple[np.ndarray, np.ndarray]:
    rows, pick = _sample_pool(spec.components, n, rng)
    labels = np.array([c.label for c in spec.components], dtype=np.int64)
    return rows, labels[pick]


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
    return PuDataset(positive=positive, unlabeled=unlabeled, test_x=test_x, test_y=test_y)


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
        idx = sample_indices(n, n, rng)
        return pool[idx[n_val:]], pool[idx[:n_val]]

    train_p, val_p = split(data.positive)
    train_u, val_u = split(data.unlabeled)
    return replace(data, positive=train_p, unlabeled=train_u,
                   val_positive=val_p, val_unlabeled=val_u)


# rows formatted, or parsed, at a time; a chunk of raw CSV fields takes
# about 0.3 MB, which bounds what a load holds beyond its arrays
_CHUNK_ROWS = 1024


def _write_rows(fh, row_format: str, x: np.ndarray, labels=None) -> None:
    """One line per row of `x`: `row_format` % (the row's values, then its
    label when `labels` is given), formatted a chunk of rows at a time."""
    for start in range(0, x.shape[0], _CHUNK_ROWS):
        rows = x[start:start + _CHUNK_ROWS].tolist()
        if labels is not None:
            for row, label in zip(rows, labels[start:start + _CHUNK_ROWS].tolist()):
                row.append(label)
        fh.write((row_format * len(rows)) % tuple(chain.from_iterable(rows)))


def write_csv(data: PuDataset, path: str) -> None:
    has_test = data.test_x is not None
    header = ["set"] + [f"x{i}" for i in range(data.dim)] + (["y"] if has_test else [])
    # "%.17g" formats a float exactly as f"{v:.17g}" does
    fields = ",".join(["%.17g"] * data.dim)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for tag, pool in (("P", data.positive), ("U", data.unlabeled),
                          ("VP", data.val_positive), ("VU", data.val_unlabeled)):
            if pool is not None:
                _write_rows(fh, f"{tag},{fields}{',' if has_test else ''}\n", pool)
        if has_test:
            _write_rows(fh, f"T,{fields},%+d\n", data.test_x, data.test_y)


def _parse_rows(rows: list[list[str]], dim: int, has_label: bool,
                pools: dict[str, list], labels: list[int]) -> None:
    """Append the features of the nonblank `rows` to their pools, a column
    at a time, and the labels of their T rows to `labels`.

    The rules run over all rows at once, in this order: a known set tag,
    the field count, numeric features, a label on every T row, and T labels
    of +1 or -1.  The first rule that fails raises ValueError with the error
    of a row that breaks it; for one row, that is the row's first error.
    """
    rows = [row for row in rows if row]
    if not rows:
        return
    columns = list(zip(*rows))
    if not set(columns[0]) <= set(_SET_TAGS):
        tag = next(t for t in columns[0] if t not in _SET_TAGS)
        raise ValueError(f"unknown set tag {tag!r}")
    expected = 1 + dim + (1 if has_label else 0)
    if set(map(len, rows)) != {expected}:
        got = next(n for n in map(len, rows) if n != expected)
        raise ValueError(f"expected {expected} fields, got {got}")
    tags = np.array(columns[0], dtype=object)
    try:
        x = np.column_stack([np.fromiter(map(float, col), np.float64, len(rows))
                             for col in columns[1:dim + 1]])
    except ValueError as exc:
        raise ValueError(f"bad number ({exc})") from None
    for tag in _SET_TAGS:
        mask = tags == tag
        if mask.any():
            pools[tag].append(x[mask])
    test_labels = list(compress(columns[-1], (tags == "T").tolist()))
    if test_labels and (not has_label or "" in test_labels):
        raise ValueError("test row without label")
    try:
        values = list(map(float, test_labels))
    except ValueError:  # a label that is no number
        values = list(map(_number_or_nan, test_labels))
    if not set(values) <= {1.0, -1.0}:
        label = next(t for t, v in zip(test_labels, values) if v not in (1.0, -1.0))
        raise ValueError(f"test label {label!r} is not +1 or -1")
    labels.extend(map(int, values))


def _number_or_nan(text: str) -> float:
    """`float(text)`, or NaN where `text` is no number."""
    try:
        return float(text)
    except ValueError:
        return math.nan


def _raise_first_bad_row(path: str, skip: int, dim: int, has_label: bool) -> None:
    """Read the CSV at `path` again, past its first `skip` records, and
    raise the error the first bad row gives on its own, named by the
    physical line the row starts on (a quoted field may hold newlines)."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, skip):
            pass
        while True:
            lineno = reader.line_num + 1
            row = next(reader, None)
            if row is None:
                return
            try:
                _parse_rows([row], dim, has_label, {tag: [] for tag in _SET_TAGS}, [])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None


def load_csv(path: str) -> PuDataset:
    pools: dict[str, list] = {tag: [] for tag in _SET_TAGS}
    labels: list[int] = []
    try:
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
            records = 1  # the header
            while rows := list(islice(reader, _CHUNK_ROWS)):
                try:
                    _parse_rows(rows, dim, has_label, pools, labels)
                except ValueError:
                    _raise_first_bad_row(path, records, dim, has_label)
                    raise
                records += len(rows)
    except UnicodeDecodeError as exc:  # its position counts bytes, not lines
        raise ValueError(f"{path}: {exc}") from None
    except csv.Error as exc:  # a field over the csv module's size limit, say
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None

    def arr(tag):
        return np.concatenate(pools[tag]) if pools[tag] else None

    test_x = arr("T")
    test_y = np.array(labels, dtype=np.int64) if labels else None
    try:
        return PuDataset(positive=arr("P"), unlabeled=arr("U"),
                         val_positive=arr("VP"), val_unlabeled=arr("VU"),
                         test_x=test_x, test_y=test_y)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None

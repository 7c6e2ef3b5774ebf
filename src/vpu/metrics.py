"""Test-set metrics: the label rule, accuracy, AUC (Mann-Whitney), confusion counts."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ClassifierModel


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    auc: float
    n_test: int
    tp: int
    fp: int
    tn: int
    fn: int

    def as_text(self) -> str:
        lines = [f"{key}={getattr(self, key)}" for key in
                 ("accuracy", "auc", "n_test", "tp", "fp", "tn", "fn")]
        return "\n".join(lines)

    def as_csv_row(self) -> str:
        return (f"{self.accuracy:.17g},{self.auc:.17g},{self.n_test},"
                f"{self.tp},{self.fp},{self.tn},{self.fn}")

    CSV_HEADER = "accuracy,auc,n_test,tp,fp,tn,fn"


def _validate_test(test_x, test_y):
    x = np.asarray(test_x, dtype=np.float64)
    y = np.asarray(test_y)
    if x.shape[0] == 0:
        raise ValueError("test set empty")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels differ in length")
    if not np.all(np.isin(y, (-1, 1))):
        raise ValueError("labels must be +1/-1")
    return x, y.astype(np.int64)


def predict_labels(scores) -> np.ndarray:
    """The label rule: +1 where the probability is >= 0.5 (ties go
    positive), -1 elsewhere; a score outside [0, 1] or NaN is an error."""
    scores = np.asarray(scores, dtype=np.float64)
    if not np.all((scores >= 0.0) & (scores <= 1.0)):
        raise ValueError("probability out of range")
    return np.where(scores >= 0.5, 1, -1)


def accuracy_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(predict_labels(scores) == np.asarray(labels)))


def average_ranks(scores: np.ndarray) -> np.ndarray:
    """1-based ranks with ties averaged (midrank convention)."""
    scores = np.asarray(scores, dtype=np.float64)
    order = np.argsort(scores, kind="mergesort")
    ordered = scores[order]
    # sorted positions i..j of each tie group (NaN ties with nothing)
    first = np.flatnonzero(np.concatenate(([True], ordered[1:] != ordered[:-1])))
    last = np.append(first[1:], scores.size) - 1
    ranks = np.empty(scores.size, dtype=np.float64)
    ranks[order] = np.repeat(0.5 * (first + last) + 1.0, last - first + 1)
    return ranks


def auc_from_scores(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(score+ > score-) + 0.5 P(tie), by rank sums in O(n log n)."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = scores.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUC needs both classes present")
    ranks = average_ranks(scores)
    rank_sum = float(ranks[pos].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def accuracy(model: ClassifierModel, test_x, test_y) -> float:
    x, y = _validate_test(test_x, test_y)
    return accuracy_from_scores(model.predict_proba(x), y)


def report(model: ClassifierModel, test_x, test_y) -> MetricsReport:
    x, y = _validate_test(test_x, test_y)
    scores = model.predict_proba(x)
    preds = predict_labels(scores)
    tp = int(np.sum((preds == 1) & (y == 1)))
    fp = int(np.sum((preds == 1) & (y == -1)))
    tn = int(np.sum((preds == -1) & (y == -1)))
    fn = int(np.sum((preds == -1) & (y == 1)))
    return MetricsReport(
        accuracy=accuracy_from_scores(scores, y),
        auc=auc_from_scores(scores, y),
        n_test=int(y.size),
        tp=tp, fp=fp, tn=tn, fn=fn,
    )

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpu import metrics as mt
from vpu import model as md

from reference import average_ranks_loop


class TestAccuracyFromScores:
    def test_perfect(self):
        scores = np.array([0.9, 0.8, 0.1, 0.2])
        labels = np.array([1, 1, -1, -1])
        assert mt.accuracy_from_scores(scores, labels) == 1.0

    def test_constant_model_on_balanced_labels(self):
        scores = np.full(10, 0.7)
        labels = np.array([1, -1] * 5)
        assert mt.accuracy_from_scores(scores, labels) == 0.5

    def test_flipping_scores_complements(self):
        rng = np.random.default_rng(0)
        scores = rng.uniform(0.0, 1.0, size=50)
        scores = np.where(np.abs(scores - 0.5) < 0.01, 0.6, scores)  # no ties
        labels = rng.choice([-1, 1], size=50)
        acc = mt.accuracy_from_scores(scores, labels)
        flipped = mt.accuracy_from_scores(1.0 - scores, -labels)
        assert flipped == pytest.approx(acc)


class TestAverageRanks:
    """Tie groups in one pass against the loop over sorted positions."""

    @pytest.mark.parametrize("scores", [
        [0.5],
        [0.5] * 1000,
        [0.0, -0.0, 0.0, 1.0, -0.0],
        [np.nan, 1.0, np.nan, 0.0, 1.0, np.nan],
        np.random.default_rng(0).integers(0, 4, 5000) / 4.0,
        np.random.default_rng(1).uniform(size=5000).round(2),
        np.random.default_rng(2).uniform(size=5000),
        np.repeat([0.9, 0.1, 0.5, 0.1], [1, 3000, 2, 1]),
    ], ids=["one", "all-tied", "signed-zeros", "nans", "four-values", "rounded",
            "distinct", "runs"])
    def test_matches_loop(self, scores):
        got = mt.average_ranks(scores)
        want = average_ranks_loop(scores)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_empty(self):
        assert mt.average_ranks(np.array([])).shape == (0,)


class TestAuc:
    def test_perfect_separation(self):
        scores = np.array([0.9, 0.8, 0.2, 0.1])
        labels = np.array([1, 1, -1, -1])
        assert mt.auc_from_scores(scores, labels) == 1.0

    def test_all_ties_is_half(self):
        scores = np.full(8, 0.5)
        labels = np.array([1, 1, 1, 1, -1, -1, -1, -1])
        assert mt.auc_from_scores(scores, labels) == 0.5

    def test_pair_enumeration(self):
        # positives (0.9, 0.4), negative (0.6): one win, one loss -> 0.5
        scores = np.array([0.9, 0.4, 0.6])
        labels = np.array([1, 1, -1])
        assert mt.auc_from_scores(scores, labels) == 0.5

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            mt.auc_from_scores(np.array([0.1, 0.9]), np.array([1, 1]))

    def test_matches_pair_counting(self):
        rng = np.random.default_rng(1)
        scores = rng.uniform(size=40).round(1)  # force some ties
        labels = rng.choice([-1, 1], size=40)
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        pos, neg = scores[labels == 1], scores[labels == -1]
        wins = sum((p > n) + 0.5 * (p == n) for p in pos for n in neg)
        assert mt.auc_from_scores(scores, labels) == pytest.approx(
            wins / (len(pos) * len(neg)), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 5000), scale=st.floats(0.05, 0.95))
    def test_invariant_under_increasing_transform(self, seed, scale):
        # division by a positive constant (no clamping) preserves ranks
        rng = np.random.default_rng(seed)
        scores = rng.uniform(0.0, scale, size=30)  # stays below 1 after /scale? no: keep raw
        labels = rng.choice([-1, 1], size=30)
        if len(set(labels)) < 2:
            labels[0] = -labels[0]
        base = mt.auc_from_scores(scores, labels)
        assert mt.auc_from_scores(scores / max(scale, 1e-6), labels) == pytest.approx(base)
        assert mt.auc_from_scores(np.exp(scores), labels) == pytest.approx(base)


class TestReport:
    @pytest.fixture
    def trained_like_model(self):
        # a linear-ish net that separates x0 > 0 from x0 < 0
        m = md.init(md.MlpArchitecture(2, (4,), "tanh"), seed=1)
        values = np.zeros_like(m.params)
        w0, w1 = m.arch.layers[0].weight, m.arch.layers[1].weight
        values[w0] = np.array([[3.0, 3.0, 3.0, 3.0], [0, 0, 0, 0]]).ravel()
        values[w1] = 2.0
        return m.with_params(values)

    def test_counts_sum(self, trained_like_model):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(100, 2)) + np.where(rng.uniform(size=(100, 1)) < 0.5, 2.0, -2.0)
        y = np.where(x[:, 0] > 0, 1, -1)
        rep = mt.report(trained_like_model, x, y)
        assert rep.tp + rep.fp + rep.tn + rep.fn == rep.n_test == 100
        assert rep.accuracy == pytest.approx((rep.tp + rep.tn) / 100)
        assert rep.accuracy > 0.95

    def test_text_and_csv_forms(self, trained_like_model):
        x = np.array([[3.0, 0.0], [-3.0, 0.0]])
        y = np.array([1, -1])
        rep = mt.report(trained_like_model, x, y)
        text = rep.as_text()
        assert "accuracy=1.0" in text
        row = rep.as_csv_row().split(",")
        assert len(row) == len(mt.MetricsReport.CSV_HEADER.split(","))

    def test_empty_test_rejected(self, trained_like_model):
        with pytest.raises(ValueError):
            mt.accuracy(trained_like_model, np.zeros((0, 2)), np.zeros(0))

    def test_counts_follow_label_rule(self, trained_like_model):
        rng = np.random.default_rng(5)
        x = rng.normal(scale=2.0, size=(300, 2))
        y = rng.choice([-1, 1], size=300)
        x[:3, 0] = 0.0  # scores near the 0.5 threshold
        rep = mt.report(trained_like_model, x, y)
        preds = np.where(trained_like_model.predict_proba(x) >= 0.5, 1, -1)
        assert (rep.tp, rep.fp, rep.tn, rep.fn) == (
            np.sum((preds == 1) & (y == 1)), np.sum((preds == 1) & (y == -1)),
            np.sum((preds == -1) & (y == -1)), np.sum((preds == -1) & (y == 1)))

    @pytest.mark.parametrize("bad", [np.nan, -0.25, 1.5])
    def test_rejects_score_outside_unit_interval(self, bad):
        class FixedScores:
            def predict_proba(self, x):
                return np.array([0.2, bad, 0.9])

        with pytest.raises(ValueError, match="out of range"):
            mt.report(FixedScores(), np.zeros((3, 2)), np.array([1, -1, 1]))

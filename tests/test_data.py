import numpy as np
import pytest

from vpu import data as dt


def two_gaussian_spec(sep=2.0):
    return dt.GaussianMixtureSpec((
        dt.GaussianComponent(np.array([sep, 0.0]), np.array([1.0, 1.0]), 1, 0.5),
        dt.GaussianComponent(np.array([-sep, 0.0]), np.array([1.0, 1.0]), -1, 0.5),
    ))


def three_cluster_spec():
    third = 1.0 / 6.0
    return dt.GaussianMixtureSpec((
        dt.GaussianComponent(np.array([-2.0, 3.0]), np.array([1.0, 1.0]), 1, third),
        dt.GaussianComponent(np.array([-2.0, 0.0]), np.array([1.0, 1.0]), 1, third),
        dt.GaussianComponent(np.array([-2.0, -3.0]), np.array([1.0, 1.0]), 1, 0.5 - 2 * third),
        dt.GaussianComponent(np.array([2.0, 0.0]), np.array([1.0, 1.0]), -1, 0.5),
    ))


class TestMixtureSpec:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dt.GaussianMixtureSpec((
                dt.GaussianComponent(np.zeros(2), np.ones(2), 1, 0.6),
                dt.GaussianComponent(np.ones(2), np.ones(2), -1, 0.6),
            ))

    def test_pi_p_is_positive_weight(self):
        assert two_gaussian_spec().pi_p == 0.5

    def test_positive_covariance_required(self):
        with pytest.raises(ValueError):
            dt.GaussianComponent(np.zeros(2), np.array([1.0, 0.0]), 1, 1.0)

    @pytest.mark.parametrize("mean, cov, weight", [
        ([np.nan, 0.0], [1.0, 1.0], 1.0),
        ([0.0, 0.0], [np.inf, 1.0], 1.0),
        ([0.0, 0.0], [1.0, 1.0], np.nan),
        ([0.0, 0.0], [1.0, 1.0], np.inf),
    ])
    def test_non_finite_component_rejected(self, mean, cov, weight):
        with pytest.raises(ValueError, match="finite"):
            dt.GaussianComponent(np.array(mean), np.array(cov), 1, weight)

    def test_posterior_midpoint(self):
        spec = two_gaussian_spec()
        post = dt.true_posterior(spec, np.array([[0.0, 0.0]]))
        assert post[0] == pytest.approx(0.5, abs=1e-12)
        assert dt.true_posterior(spec, np.array([[4.0, 0.0]]))[0] > 0.99


class TestGenerate:
    def test_prior_recorded(self):
        data = dt.generate(two_gaussian_spec(), 20, 30, 10, seed=0)
        assert data.pi_p == 0.5

    def test_sizes(self):
        data = dt.generate(two_gaussian_spec(), 20, 30, 10, seed=0)
        assert data.m == 20 and data.n == 30 and len(data.test_x) == 10

    def test_deterministic(self):
        a = dt.generate(two_gaussian_spec(), 15, 15, 5, seed=3)
        b = dt.generate(two_gaussian_spec(), 15, 15, 5, seed=3)
        assert np.array_equal(a.positive, b.positive)
        assert np.array_equal(a.unlabeled, b.unlabeled)
        assert np.array_equal(a.test_x, b.test_x)

    def test_positives_come_from_positive_class(self):
        # with 6-sigma separation, class provenance is visible in the features
        data = dt.generate(two_gaussian_spec(sep=6.0), 500, 10, 0, seed=1)
        assert np.all(data.positive[:, 0] > 0)

    def test_unlabeled_positive_fraction(self):
        spec = dt.GaussianMixtureSpec((
            dt.GaussianComponent(np.array([10.0]), np.array([1.0]), 1, 0.3),
            dt.GaussianComponent(np.array([-10.0]), np.array([1.0]), -1, 0.7),
        ))
        data = dt.generate(spec, 5, 100_000, 0, seed=2)
        frac = float(np.mean(data.unlabeled[:, 0] > 0))
        assert frac == pytest.approx(0.3, abs=0.01)

    def test_needs_both_classes(self):
        spec = dt.GaussianMixtureSpec((
            dt.GaussianComponent(np.zeros(2), np.ones(2), 1, 1.0),))
        with pytest.raises(ValueError):
            dt.generate(spec, 5, 5, 0, seed=0)


class TestScar:
    def test_labeled_matches_filtered_positives(self):
        """Energy-distance permutation test: the positive pool and the
        label-filtered joint sample are draws from the same distribution.
        Across 50 independent datasets, at most a binomial-tail number of
        p-values may fall under 0.01."""
        spec = two_gaussian_spec()
        failures = 0
        pvals = []
        np_rng = np.random.default_rng(2024)
        for trial in range(50):
            data = dt.generate(spec, 40, 10, 120, seed=1000 + trial)
            fresh_pos = data.test_x[data.test_y == 1][:40]
            a, b = data.positive, fresh_pos
            pooled = np.concatenate([a, b])
            dmat = np.linalg.norm(pooled[:, None, :] - pooled[None, :, :], axis=-1)
            na = a.shape[0]

            def energy(idx_a, idx_b):
                return (2.0 * dmat[np.ix_(idx_a, idx_b)].mean()
                        - dmat[np.ix_(idx_a, idx_a)].mean()
                        - dmat[np.ix_(idx_b, idx_b)].mean())

            observed = energy(np.arange(na), np.arange(na, pooled.shape[0]))
            exceed = 0
            n_perm = 200
            for _ in range(n_perm):
                perm = np_rng.permutation(pooled.shape[0])
                if energy(perm[:na], perm[na:]) >= observed:
                    exceed += 1
            p = (exceed + 1) / (n_perm + 1)
            pvals.append(p)
            if p <= 0.01:
                failures += 1
        assert failures <= 3, (failures, sorted(pvals)[:5])
        assert float(np.median(pvals)) > 0.1


class TestSelectionBias:
    def marker_pools(self, size=50):
        # first feature carries the subclass id, so provenance is exact
        return [np.column_stack([np.full(size, float(i)),
                                 np.arange(size, dtype=float)])
                for i in range(3)]

    def test_counts_respected_exactly(self):
        biased = dt.inject_selection_bias(self.marker_pools(), [30, 10, 10])
        assert biased.shape[0] == 50
        ids, freq = np.unique(biased[:, 0], return_counts=True)
        assert list(ids) == [0.0, 1.0, 2.0]
        assert list(freq) == [30, 10, 10]

    def test_equal_counts_is_unbiased_case(self):
        biased = dt.inject_selection_bias(self.marker_pools(), [10, 10, 10])
        _, freq = np.unique(biased[:, 0], return_counts=True)
        assert list(freq) == [10, 10, 10]

    def test_count_exceeding_pool_rejected(self):
        with pytest.raises(ValueError, match="exceeds pool"):
            dt.inject_selection_bias(self.marker_pools(), [51, 0, 0])

    def test_monotone_overrepresentation(self):
        # subclass frequencies equal counts/total exactly, for every ratio
        for ratio in (1, 2, 5, 10):
            n_small = 48 // (ratio + 2)
            counts = [48 - 2 * n_small, n_small, n_small]
            biased = dt.inject_selection_bias(self.marker_pools(), counts)
            assert biased.shape[0] == 48
            assert int(np.sum(biased[:, 0] == 0.0)) == counts[0]
            assert counts[0] >= counts[1] == counts[2]


class TestSplitValidation:
    def test_sixth_of_600(self):
        data = dt.PuDataset(positive=np.zeros((600, 2)) + np.arange(600)[:, None],
                            unlabeled=np.ones((1200, 2)))
        split = dt.split_validation(data, 1.0 / 6.0, seed=0)
        assert split.positive.shape[0] == 500
        assert split.val_positive.shape[0] == 100
        assert split.unlabeled.shape[0] == 1000
        assert split.val_unlabeled.shape[0] == 200

    def test_disjoint_and_complete(self):
        pool = np.arange(60, dtype=float).reshape(30, 2)
        data = dt.PuDataset(positive=pool, unlabeled=pool + 1000)
        split = dt.split_validation(data, 0.2, seed=1)
        train = {tuple(r) for r in split.positive}
        val = {tuple(r) for r in split.val_positive}
        assert train.isdisjoint(val)
        assert train | val == {tuple(r) for r in pool}

    def test_deterministic(self):
        pool = np.random.default_rng(0).normal(size=(40, 3))
        data = dt.PuDataset(positive=pool, unlabeled=pool)
        s1 = dt.split_validation(data, 0.25, seed=9)
        s2 = dt.split_validation(data, 0.25, seed=9)
        assert np.array_equal(s1.positive, s2.positive)
        assert np.array_equal(s1.val_positive, s2.val_positive)

    def test_empty_side_rejected(self):
        data = dt.PuDataset(positive=np.zeros((3, 2)), unlabeled=np.zeros((3, 2)))
        with pytest.raises(ValueError):
            dt.split_validation(data, 0.01, seed=0)


class TestPuDataset:
    @pytest.mark.parametrize("pool", ["positive", "unlabeled", "val_positive",
                                      "val_unlabeled", "test_x"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_feature_rejected(self, pool, value):
        pools = {name: np.zeros((3, 2)) for name in
                 ("positive", "unlabeled", "val_positive", "val_unlabeled", "test_x")}
        pools[pool][1, 0] = value
        with pytest.raises(ValueError, match=f"{pool} holds a non-finite feature"):
            dt.PuDataset(**pools, test_y=np.ones(3, dtype=np.int64))


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        data = dt.generate(two_gaussian_spec(), 12, 17, 9, seed=5)
        data = dt.split_validation(data, 0.25, seed=5)
        path = tmp_path / "d.csv"
        dt.write_csv(data, str(path))
        back = dt.load_csv(str(path))
        assert np.array_equal(back.positive, data.positive)
        assert np.array_equal(back.unlabeled, data.unlabeled)
        assert np.array_equal(back.val_positive, data.val_positive)
        assert np.array_equal(back.val_unlabeled, data.val_unlabeled)
        assert np.array_equal(back.test_x, data.test_x)
        assert np.array_equal(back.test_y, data.test_y)

    def test_minimal_schema(self, tmp_path):
        path = tmp_path / "mini.csv"
        path.write_text("set,x0,x1\nP,1.0,2.0\nU,0.0,0.0\n")
        data = dt.load_csv(str(path))
        assert data.m == 1 and data.n == 1 and data.dim == 2

    def test_labeled_test_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("set,x0,y\nP,1.0,\nU,0.0,\nT,2.0,+1\nT,-2.0,-1\n")
        data = dt.load_csv(str(path))
        assert list(data.test_y) == [1, -1]

    def test_empty_positive_rejected(self, tmp_path):
        path = tmp_path / "e.csv"
        path.write_text("set,x0\nU,0.0\n")
        with pytest.raises(ValueError, match="positive set empty"):
            dt.load_csv(str(path))

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("set,x0,x1\nP,1.0,2.0\nU,oops,0.0\n")
        with pytest.raises(ValueError, match=":3"):
            dt.load_csv(str(path))

    def test_non_finite_feature_names_file(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("set,x0,x1\nP,1.0,2.0\nU,nan,0.0\n")
        with pytest.raises(ValueError, match="nan.csv: unlabeled holds a non-finite"):
            dt.load_csv(str(path))

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "dim.csv"
        path.write_text("set,x0,x1\nP,1.0,2.0\nU,1.0\n")
        with pytest.raises(ValueError, match=":3"):
            dt.load_csv(str(path))

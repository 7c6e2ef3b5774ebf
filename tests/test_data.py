import numpy as np
import pytest

from vpu import data as dt
from vpu import sampling as sp

from reference import (ScalarRng, bits, pick_component_loop, same_state,
                       sample_class_conditional_loop, sample_joint_loop)


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


WEIGHTS = {1: [1.0], 2: [1 / 3, 2 / 3], 3: [1 / 6, 1 / 3, 0.5], 4: [1 / 6, 1 / 6, 1 / 6, 0.5]}


def mixture(dim: int, k: int) -> dt.GaussianMixtureSpec:
    """`k` components in `dim` dimensions, labels alternating from +1."""
    return dt.GaussianMixtureSpec(tuple(
        dt.GaussianComponent(np.arange(dim) * (i + 1.0) - i, 0.5 + i + 0.25 * np.arange(dim),
                             1 if i % 2 == 0 else -1, w)
        for i, w in enumerate(WEIGHTS[k])))


class FixedOutputs(sp.Rng):
    """An `Rng` that returns the given outputs, in order."""

    def __init__(self, outputs):
        super().__init__(0)
        self.outputs = iter(outputs)

    def next_u64(self) -> int:
        self.counter += 1
        return next(self.outputs)


class TestBlockSamplers:
    """One stream block per pool against the row-by-row samplers."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    @pytest.mark.parametrize("cached", [False, True])
    def test_pools_from_one_rng(self, dim, k, cached):
        # pools of 1 and 2 rows, and several pools in a row, as bias-exp
        # draws them: with an odd dim the cached normal crosses rows and calls
        spec = mixture(dim, k)
        fast, slow = sp.Rng(dim * 10 + k), ScalarRng(dim * 10 + k)
        if cached:
            assert fast.normals(1)[0] == slow.normal()
        for n in (1, 2, 37, 1):
            x, y = dt.sample_joint(spec, n, fast)
            want_x, want_y = sample_joint_loop(spec, n, slow)
            assert np.array_equal(bits(x), bits(want_x)) and np.array_equal(y, want_y)
            assert y.dtype == want_y.dtype and x.shape == want_x.shape
            assert same_state(fast, slow)
            x = dt.sample_class_conditional(spec, 1, n, fast)
            assert np.array_equal(bits(x), bits(sample_class_conditional_loop(spec, 1, n, slow)))
            assert same_state(fast, slow)

    def test_generate_matches_loop(self):
        spec = three_cluster_spec()
        data = dt.generate(spec, 50, 300, 200, seed=9)
        rng = ScalarRng(9)
        positive = sample_class_conditional_loop(spec, 1, 50, rng)
        unlabeled, _ = sample_joint_loop(spec, 300, rng)
        test_x, test_y = sample_joint_loop(spec, 200, rng)
        for got, want in ((data.positive, positive), (data.unlabeled, unlabeled),
                          (data.test_x, test_x)):
            assert np.array_equal(bits(got), bits(want))
        assert np.array_equal(data.test_y, test_y)

    @pytest.mark.parametrize("weights", [[1 / 6, 1 / 6, 1 / 6, 0.5], [1 / 3, 2 / 3], [0.1] * 10,
                                         [1e-300, 1.0], [0.7, 0.2, 0.1], [1.0]])
    def test_picks_at_the_thresholds(self, weights):
        # uniforms just below, at and above each cumulative weight, and the
        # largest uniform, which can round u * total up to the total
        total = sum(weights)
        acc, top = 0.0, 2**53 - 1
        ks = {0, top}
        for w in weights:
            acc += w
            k0 = int(acc / total * 2**53)
            ks.update(min(max(k, 0), top) for k in range(k0 - 2, k0 + 3))
        x = [(k << 11) | 0x5A5 for k in sorted(ks)]
        comps = [dt.GaussianComponent(np.full(1, i), np.ones(1), 1, w) for i, w in enumerate(weights)]
        rng = FixedOutputs(x)
        want = [int(pick_component_loop(comps, rng).mean[0]) for _ in x]
        assert dt._picks(weights, np.array(x, dtype=np.uint64)).tolist() == want

    def test_pick_past_the_last_threshold(self, monkeypatch):
        # a total above the last cumulative weight (a compensated sum() can
        # give one) lets u pass every threshold: the last component is picked
        monkeypatch.setattr(dt, "sum", lambda weights: 2.0, raising=False)
        x = np.array([0, (2**53 - 1) << 11], dtype=np.uint64)
        assert dt._picks([0.25, 0.75], x).tolist() == [0, 1]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            dt.sample_joint(two_gaussian_spec(), 0, sp.Rng(0))


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

    def test_label_spellings_of_plus_minus_one(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("set,x0,y\nP,1.0,\nU,0.0,\nT,1,1.0\nT,2,-1e0\nT,3,+1.00\n")
        assert dt.load_csv(str(path)).test_y.tolist() == [1, -1, 1]

    @pytest.mark.parametrize("label", ["1.5", "1.9", "-0.5", "0", "2", "nan", "inf"])
    def test_label_not_plus_minus_one_rejected(self, tmp_path, label):
        path = tmp_path / "t.csv"
        path.write_text(f"set,x0,y\nP,1.0,\nU,0.0,\nT,2.0,+1\nT,-2.0,{label}\n")
        with pytest.raises(ValueError) as err:
            dt.load_csv(str(path))
        assert str(err.value) == f"{path}:5: test label '{label}' is not +1 or -1"

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


@pytest.fixture(scope="module")
def long_csv(tmp_path_factory):
    """A generated file of 8501 lines (P 500, U 2000, T 6000), so the rows
    span several of the chunks that `load_csv` parses a column at a time."""
    path = tmp_path_factory.mktemp("csv") / "long.csv"
    dt.write_csv(dt.generate(two_gaussian_spec(), 500, 2000, 6000, seed=1), str(path))
    return path.read_text().splitlines(keepends=True)


class TestCsvErrorLines:
    """A bad row is named by its `path:line`, wherever it falls."""

    def load(self, tmp_path, lines):
        path = tmp_path / "d.csv"
        path.write_text("".join(lines))
        with pytest.raises(ValueError) as err:
            dt.load_csv(str(path))
        return str(err.value), str(path)

    def test_bad_number_on_late_test_row(self, tmp_path, long_csv):
        lines = list(long_csv)
        assert lines[8495].startswith("T,")
        fields = lines[8495].split(",")
        lines[8495] = ",".join([fields[0], fields[1], "1.5x", fields[3]])
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:8496: bad number (could not convert string to float: '1.5x')"

    def test_unknown_tag_after_1000_good_rows(self, tmp_path, long_csv):
        lines = long_csv[:1001] + ["Q,1.0,2.0,\n"] + long_csv[1001:]
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:1002: unknown set tag 'Q'"

    def test_first_bad_row_wins(self, tmp_path, long_csv):
        lines = list(long_csv)
        lines[7000] = "T,1.0,2.0,\n"  # a test row without label, in a later chunk
        lines[3000] = "T,1.0\n"
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:3001: expected 4 fields, got 2"

    def test_blank_lines_count(self, tmp_path, long_csv):
        lines = long_csv[:10] + ["\n"] * 5000 + long_csv[10:]
        lines[6000] = "U,1.0,x,\n"
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:6001: bad number (could not convert string to float: 'x')"

    def test_quoted_newline_counts_its_lines(self, tmp_path, long_csv):
        # a quoted field may hold a newline: a row is named by the physical
        # line it starts on, not by its record number
        lines = ["set,x0,x1\n", 'P,"1.0\n', '",2.0\n', "U,0.0,0.0\n", "U,bad,0.0\n"]
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:5: bad number (could not convert string to float: 'bad')"
        # in a later chunk than the quoted field
        lines = list(long_csv)
        fields = lines[1].split(",")
        lines[1] = f'P,"{fields[1]}\n",{",".join(fields[2:])}'
        lines[8000] = "T,1.0,x,+1\n"
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:8002: bad number (could not convert string to float: 'x')"

    def test_late_label_parse_error_is_its_own(self, tmp_path, long_csv):
        lines = list(long_csv)
        lines[8000] = "T,1.0,2.0,one\n"
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:8001: test label 'one' is not +1 or -1"

    @pytest.mark.parametrize("row, error", [
        ("Q,x\n", "unknown set tag 'Q'"),
        ("T,x\n", "expected 4 fields, got 2"),
        ("T,x,2.0,\n", "bad number (could not convert string to float: 'x')"),
        ("T,1.0,2.0,\n", "test row without label"),
        ("T,1.0,2.0,one\n", "test label 'one' is not +1 or -1"),
        ("T,1.0,2.0,1.5\n", "test label '1.5' is not +1 or -1"),
    ])
    def test_a_rule_gives_one_message_anywhere(self, tmp_path, long_csv, row, error):
        # each row breaks the rule named, and only rules after it: a chunk
        # of rows and a single row are checked in the same order
        lines = list(long_csv)
        lines[3000] = row
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:3001: {error}"
        message, path = self.load(tmp_path, [long_csv[0], row])
        assert message == f"{path}:2: {error}"

    def test_non_integral_label_on_late_test_row(self, tmp_path, long_csv):
        lines = list(long_csv)
        lines[8000] = "T,1.0,2.0,1.5\n"
        message, path = self.load(tmp_path, lines)
        assert message == f"{path}:8001: test label '1.5' is not +1 or -1"

    def test_roundtrip_bits_over_chunks(self, tmp_path, long_csv):
        path = tmp_path / "long.csv"
        path.write_text("".join(long_csv))
        got = dt.load_csv(str(path))
        want = dt.generate(two_gaussian_spec(), 500, 2000, 6000, seed=1)
        for name in ("positive", "unlabeled", "test_x"):
            assert np.array_equal(bits(getattr(got, name)), bits(getattr(want, name))), name
        assert np.array_equal(got.test_y, want.test_y) and got.test_y.dtype == np.int64

    def test_blank_lines_and_mixed_tags_load(self, tmp_path, long_csv):
        # rows of every tag interleaved and blank lines between them load
        # in file order within each set
        head, body = long_csv[0], long_csv[1:]
        p_rows, u_rows, t_rows = body[:500], body[500:2500], body[2500:]
        mixed = [head]
        for i in range(2000):
            mixed += [u_rows[i], "\n", t_rows[i]] + ([p_rows[i // 4]] if i % 4 == 0 else [])
        path = tmp_path / "mixed.csv"
        path.write_text("".join(mixed))
        got = dt.load_csv(str(path))
        path.write_text("".join([head] + p_rows + u_rows + t_rows[:2000]))
        want = dt.load_csv(str(path))
        for name in ("positive", "unlabeled", "test_x", "test_y"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

import re
import tracemalloc

import numpy as np
import pytest

from vpu import autodiff as ad
from vpu import losses as ls
from vpu import metrics as mt
from vpu import model as md
from vpu.blas import one_blas_thread
from vpu.data import PuDataset

from reference import as_tape_model, total_loss_live_target
from test_golden import FINGERPRINT, environment_fingerprint


def constant_output_model(bias_logit: float, input_dim: int = 2) -> md.ClassifierModel:
    """Zero weights everywhere, output bias fixed: raw = sigmoid(bias_logit)."""
    base = md.init(md.MlpArchitecture(input_dim, (4,), "relu"), seed=0)
    values = np.zeros_like(base.params)
    values[base.arch.layers[1].bias] = bias_logit
    return base.with_params(values)


class TestArchitecture:
    def test_requires_hidden_layer(self):
        with pytest.raises(ValueError):
            md.MlpArchitecture(2, ())

    def test_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            md.MlpArchitecture(2, (8,), "gelu")

    def test_parameter_count_by_layer_arithmetic(self):
        # oracle: sum over layers of fan_in*fan_out + fan_out
        assert md.parameter_count(md.MlpArchitecture(2, (64, 64))) == 4417
        assert md.parameter_count(md.MlpArchitecture(4, (64, 64))) == 4545
        assert md.parameter_count(md.MlpArchitecture(3, (5,))) == 3 * 5 + 5 + 5 + 1

    def test_layer_table_tiles_the_parameters(self):
        # each layer: its weights, row-major, then its bias, back to back
        layers = md.MlpArchitecture(3, (5, 4)).layers
        assert [layer.shape for layer in layers] == [(3, 5), (5, 4), (4, 1)]
        offset = 0
        for layer in layers:
            fan_in, fan_out = layer.shape
            assert layer.weight == slice(offset, offset + fan_in * fan_out)
            offset += fan_in * fan_out
            assert layer.bias == slice(offset, offset + fan_out)
            offset += fan_out
        assert offset == md.parameter_count(md.MlpArchitecture(3, (5, 4)))


class TestParams:
    def test_rejects_non_finite(self):
        arch = md.MlpArchitecture(2, (4,))
        values = np.zeros(md.parameter_count(arch))
        for bad in (np.nan, np.inf, -np.inf):
            values[3] = bad
            with pytest.raises(ValueError, match="non-finite"):
                md.ClassifierModel(arch, values)

    def test_rejects_wrong_length(self):
        arch = md.MlpArchitecture(2, (4,))
        with pytest.raises(ValueError, match=r"expected a flat array of 17 parameters"):
            md.ClassifierModel(arch, np.zeros(16))
        with pytest.raises(ValueError, match=r"expected a flat array of 17 parameters"):
            md.ClassifierModel(arch, np.zeros((1, 17)))


class TestInit:
    def test_deterministic_per_seed(self):
        arch = md.MlpArchitecture(2, (8, 8))
        a = md.init(arch, seed=5)
        b = md.init(arch, seed=5)
        assert np.array_equal(a.params, b.params)

    def test_seeds_differ(self):
        arch = md.MlpArchitecture(2, (8, 8))
        assert not np.array_equal(md.init(arch, 1).params,
                                  md.init(arch, 2).params)

    def test_biases_zero(self):
        m = md.init(md.MlpArchitecture(3, (16, 8)), seed=9)
        for layer in m.arch.layers:
            assert np.all(m.params[layer.bias] == 0.0)

    def test_glorot_bounds(self):
        m = md.init(md.MlpArchitecture(10, (20,)), seed=2)
        w0 = m.params[m.arch.layers[0].weight]
        bound = np.sqrt(6.0 / 30.0)
        assert np.all(np.abs(w0) <= bound)
        assert np.abs(w0).max() > 0.5 * bound  # actually spread out

    def test_scale_starts_at_one(self):
        assert md.init(md.MlpArchitecture(2, (4,)), 0).normalization_scale == 1.0


class TestPredict:
    def test_zero_network_is_half(self):
        m = constant_output_model(0.0)
        x = np.array([[3.0, -1.0], [0.0, 0.0]])
        np.testing.assert_allclose(m.predict_proba(x), [0.5, 0.5])

    def test_scale_divides(self):
        # raw 0.4 with scale 0.8 -> 0.5
        from dataclasses import replace
        m = replace(constant_output_model(np.log(0.4 / 0.6)), normalization_scale=0.8)
        assert m.predict_proba(np.zeros((1, 2)))[0] == pytest.approx(0.5, abs=1e-12)

    def test_clamped_at_one(self):
        from dataclasses import replace
        m = replace(constant_output_model(np.log(0.9 / 0.1)), normalization_scale=0.8)
        assert m.predict_proba(np.zeros((1, 2)))[0] == 1.0

    def test_dimension_mismatch(self):
        m = constant_output_model(0.0)
        with pytest.raises(ValueError):
            m.predict_proba(np.zeros((1, 3)))

    @pytest.mark.parametrize("shape", [(2,), ()])
    def test_input_not_rows_raises(self, shape):
        # one row is passed as a (1, dim) array, as `logits` takes it
        m = constant_output_model(0.0)
        with pytest.raises(ValueError, match="2-D"):
            m.predict_proba(np.zeros(shape))

    def test_outputs_in_unit_interval(self):
        m = md.init(md.MlpArchitecture(2, (16, 16)), seed=8)
        x = np.random.default_rng(4).normal(scale=5.0, size=(200, 2))
        p = m.predict_proba(x)
        assert np.all(p > 0.0) and np.all(p <= 1.0)


class TestNormalize:
    def dataset(self, points):
        pts = np.asarray(points, dtype=float)
        return PuDataset(positive=pts[:1], unlabeled=pts[1:])

    def test_scale_is_max_raw(self):
        m = md.init(md.MlpArchitecture(2, (8,)), seed=3)
        data = self.dataset(np.random.default_rng(0).normal(size=(10, 2)))
        normalized = md.normalize(m, data)
        assert normalized.normalization_scale == pytest.approx(
            float(np.max(m.raw_values(data.all_inputs()))))

    def test_attains_one(self):
        m = md.init(md.MlpArchitecture(2, (8,)), seed=3)
        data = self.dataset(np.random.default_rng(1).normal(size=(12, 2)))
        normalized = md.normalize(m, data)
        assert np.max(normalized.predict_proba(data.all_inputs())) == 1.0

    def test_idempotent(self):
        m = md.init(md.MlpArchitecture(2, (8,)), seed=4)
        data = self.dataset(np.random.default_rng(2).normal(size=(6, 2)))
        once = md.normalize(m, data)
        twice = md.normalize(once, data)
        assert once.normalization_scale == twice.normalization_scale

    def test_saturated_output_keeps_scale_one(self):
        # logit 40 -> sigmoid rounds to exactly 1.0, so the model is unchanged
        m = constant_output_model(40.0)
        data = self.dataset(np.zeros((4, 2)))
        assert md.normalize(m, data).normalization_scale == 1.0

    def test_threshold_commutes_with_normalization(self):
        m = md.init(md.MlpArchitecture(2, (8,)), seed=5)
        pts = np.random.default_rng(3).normal(size=(20, 2))
        data = self.dataset(pts)
        normalized = md.normalize(m, data)
        direct = mt.predict_labels(normalized.predict_proba(pts))
        by_hand = mt.predict_labels(
            np.minimum(m.raw_values(pts) / normalized.normalization_scale, 1.0))
        assert np.array_equal(direct, by_hand)


class TestPredictLabel:
    # the label rule lives in metrics, shared by accuracy and report
    def test_positive(self):
        assert mt.predict_labels([0.7]).tolist() == [1]

    def test_negative(self):
        assert mt.predict_labels([0.3]).tolist() == [-1]

    def test_tie_goes_positive(self):
        assert mt.predict_labels([0.5]).tolist() == [1]
        assert mt.accuracy_from_scores([0.5], [1]) == 1.0

    def test_range_checked(self):
        for bad in (1.5, -0.25, np.nan):
            with pytest.raises(ValueError, match="out of range"):
                mt.predict_labels([0.2, bad])
            with pytest.raises(ValueError, match="out of range"):
                mt.accuracy_from_scores([0.2, bad], [1, 1])


class TestSerialization:
    def test_roundtrip_bit_exact(self, tmp_path):
        m = md.init(md.MlpArchitecture(3, (7, 5), "tanh"), seed=11)
        from dataclasses import replace
        m = replace(m, normalization_scale=0.8437261234567)
        path = tmp_path / "model.txt"
        md.save_model(m, str(path))
        back = md.load_model(str(path))
        assert back.arch == m.arch
        assert back.normalization_scale == m.normalization_scale
        assert np.array_equal(back.params, m.params)

    def test_header_format(self, tmp_path):
        m = md.init(md.MlpArchitecture(2, (4, 4)), seed=0)
        path = tmp_path / "model.txt"
        md.save_model(m, str(path))
        header = path.read_text().splitlines()[0].split()
        assert header[:5] == ["vpu-model", "v1", "2", "4,4", "relu"]

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_bad_scale_rejected(self, tmp_path, scale):
        # an infinite scale would load and turn every prediction into 0
        m = md.init(md.MlpArchitecture(2, (4,)), seed=0)
        path = tmp_path / "model.txt"
        md.save_model(m, str(path))
        lines = path.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:5] + [scale])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match="normalization_scale"):
            md.load_model(str(path))

    @pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        m = md.init(md.MlpArchitecture(2, (4,)), seed=0)
        path = tmp_path / "model.txt"
        md.save_model(m, str(path))
        lines = path.read_text().splitlines()
        lines[5] = weight
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: parameters contain non-finite")):
            md.load_model(str(path))

    def test_truncated_file_rejected(self, tmp_path):
        m = md.init(md.MlpArchitecture(2, (4,)), seed=0)
        path = tmp_path / "model.txt"
        md.save_model(m, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(ValueError, match=r"expected a flat array of 17 parameters, "
                                             r"got shape \(15,\)"):
            md.load_model(str(path))


def _bits(a) -> np.ndarray:
    """Raw float64 bit patterns, so equality includes the sign of zero."""
    return np.asarray(a, dtype=np.float64).view(np.uint64)


LOSS_CASES = [(obj, reg, stop) for obj in ls.OBJECTIVES for reg in ls.REG_VARIANTS
              for stop in (True, False)]


class TestLogitsNode:
    """The one-node MLP against the per-layer tape it replaced."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    @pytest.mark.parametrize("batch", [3, 500])
    def test_bit_identical_to_tape(self, activation, depth, batch):
        widths, dim = ((64, 64, 64), 2) if batch == 500 else ((4, 3, 5), 3)
        net = md.init(md.MlpArchitecture(dim, widths[:depth], activation), seed=depth)
        rng = np.random.default_rng(10 * depth + batch)
        net = net.with_params(net.params + rng.normal(scale=0.3, size=len(net.params)))
        tape = as_tape_model(net)
        xp = rng.normal(size=(batch, dim)) + 1.0
        xu = rng.normal(size=(batch, dim))
        x = rng.normal(scale=3.0, size=(4 * batch, dim))
        assert np.array_equal(_bits(net.raw_values(x)), _bits(tape.raw_values(x)))
        for objective, reg, stop in LOSS_CASES:
            spec = ls.LossSpec(objective, reg, lam=0.3, alpha=0.3,
                               pi_p=0.4 if objective in ("upu", "nnpu") else None)
            loss = ls.total_loss if stop else total_loss_live_target
            (v_new, g_new), (v_ref, g_ref) = (
                ad.value_and_gradient(
                    lambda th, m=m: loss(spec, m, th, xp, xu, 0.37), m.params)
                for m in (net, tape))
            case = (objective, reg, stop)
            assert _bits(v_new) == _bits(v_ref), case
            assert np.array_equal(_bits(g_new), _bits(g_ref)), case

    def test_one_tensor_per_call(self):
        net = md.init(md.MlpArchitecture(2, (4, 4)), seed=0)
        theta = ad.Tensor(net.params)
        out = net.logits(theta, np.ones((3, 2)))
        assert out.parents == (theta,) and out.value.shape == (3,)

    @pytest.mark.parametrize("weight,node", [(1e200, "matmul"), (1e308, "add")])
    def test_overflow_names_node(self, weight, node):
        # 1e200: the second layer's product overflows; 1e308: the first
        # layer's product is finite and adding the bias overflows
        net = md.init(md.MlpArchitecture(2, (8, 8)), seed=0)
        net = net.with_params(np.full(len(net.params), weight))
        x = np.array([[1.0, 0.0], [0.5, 0.0]])
        for m in (net, as_tape_model(net)):
            with pytest.raises(ad.NumericError, match=f"'{node}'"):
                m.raw_values(x)


BLOCK_ROWS = [1, 7, 4095, 4096, 4097, 8191, 8192, 8193, 12289, 100_000]


class TestBlockScoring:
    """`raw_values` scores `SCORE_ROWS` rows at a time; the values are those
    of one pass over all rows."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("width", [64, 128])
    def test_blocked_equals_one_pass(self, activation, width):
        net = md.init(md.MlpArchitecture(2, (width, width), activation), seed=1)
        rng = np.random.default_rng(width)
        net = net.with_params(net.params + rng.normal(scale=0.3, size=len(net.params)))
        x = rng.normal(scale=3.0, size=(BLOCK_ROWS[-1], 2))
        # BLAS rounding depends on the CPU, the kernel and how the rows are
        # split between threads: the bits are asserted where the golden
        # outputs were recorded, on one thread, and closeness elsewhere
        with one_blas_thread() as one_thread:
            exact = one_thread and environment_fingerprint() == FINGERPRINT
            for n in BLOCK_ROWS:
                blocked = net.raw_values(x[:n])
                one_pass = net.raw(net.params, x[:n]).value
                assert blocked.shape == (n,)
                if exact:
                    assert np.array_equal(_bits(blocked), _bits(one_pass)), n
                else:
                    np.testing.assert_allclose(blocked, one_pass, rtol=1e-12, atol=0.0)
                    assert np.array_equal(_bits(net.raw_values(x[:n])), _bits(blocked)), n

    @pytest.mark.parametrize("n,sizes", [
        (0, [0]), (1, [1]), (4096, [4096]), (4097, [4097]), (8191, [8191]),
        (8192, [4096, 4096]), (12289, [4096, 4096, 4097]),
        (100_000, [4096] * 23 + [5792])])
    def test_block_sizes(self, monkeypatch, n, sizes):
        # every block starts at a multiple of 8 rows and none is tiny: the
        # last one takes the remainder
        net = md.init(md.MlpArchitecture(2, (4,)), seed=0)
        seen = []
        raw = md.ClassifierModel.raw

        def recording(self, theta, x):
            seen.append(x.shape[0])
            return raw(self, theta, x)

        monkeypatch.setattr(md.ClassifierModel, "raw", recording)
        assert net.raw_values(np.zeros((n, 2))).shape == (n,)
        assert seen == sizes and md.SCORE_ROWS % 8 == 0

    def test_peak_memory_is_one_block(self):
        # one pass over 1e5 rows kept both 1e5 x 64 activations alive: a
        # tracemalloc peak of about 109 MB
        net = md.init(md.MlpArchitecture(2, (64, 64)), seed=0)
        x = np.random.default_rng(0).normal(size=(100_000, 2))
        tracemalloc.start()
        try:
            net.raw_values(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    @staticmethod
    def overflow_net(case):
        """A 2 -> 8 -> 8 -> 1 relu net that is finite on zero rows and
        overflows as `case` describes on a row (1e200, 0), or (1e308, 0)
        for "add"."""
        net = md.init(md.MlpArchitecture(2, (8, 8)), seed=0)
        (w0, b0), (w1, _), (w2, _) = [(layer.weight, layer.bias) for layer in net.arch.layers]
        p = np.zeros(len(net.params))
        p[w0] = p[w1] = p[w2] = 0.5
        w0m, w1m, w2m = (p[w].reshape(layer.shape) for w, layer in zip((w0, w1, w2),
                                                                        net.arch.layers))
        if case == "inf":  # hidden unit 0 overflows to +inf ...
            w0m[0, 0] = 1e200
        elif case == "-inf":  # ... to -inf, which relu maps to 0
            w0m[0, 0] = -1e200
        elif case == "zero-out":  # +inf, and all its outgoing weights are 0.0
            w0m[0, 0] = 1e200
            w1m[0, :] = 0.0
        elif case == "last-zero-out":  # +inf in the last hidden layer, output weight 0.0
            w0m[0, 0] = 1e-100
            w1m[0, 0] = 1e300
            w2m[0, 0] = 0.0
        elif case == "add":  # finite product, the bias overflows
            w0m[0, :] = 1.0
            p[b0] = 1e308
            w1m[:] = 0.0
        return net.with_params(p)

    @pytest.mark.parametrize("case,node", [("inf", "matmul"), ("-inf", "matmul"),
                                           ("zero-out", "matmul"),
                                           ("last-zero-out", "matmul"), ("add", "add")])
    def test_overflow_in_third_block_names_node(self, case, node):
        net = self.overflow_net(case)
        x = np.zeros((3 * md.SCORE_ROWS + 10, 2))
        assert np.isfinite(net.raw_values(x)).all()
        x[2 * md.SCORE_ROWS + 5, 0] = 1e200 if case != "add" else 1e308
        for score in (net.raw_values, lambda x: net.raw(net.params, x),
                      as_tape_model(net).raw_values):
            with pytest.raises(ad.NumericError, match=f"'{node}'"):
                score(x)

    def test_first_failing_node_over_all_rows(self):
        # a row of the first block overflows only at `+ b`, a row of the
        # third block at the matmul before it: one pass over all rows, and
        # so the blocked one, names 'matmul'
        net = self.overflow_net("add")
        net.params[net.arch.layers[0].weight].reshape(2, 8)[1, :] = 4.0
        x = np.zeros((3 * md.SCORE_ROWS + 10, 2))
        x[5, 0] = 1e308
        with pytest.raises(ad.NumericError, match="'add'"):
            net.raw_values(x[:md.SCORE_ROWS])
        x[2 * md.SCORE_ROWS + 5, 1] = 1e308
        for score in (net.raw_values, lambda x: net.raw(net.params, x),
                      as_tape_model(net).raw_values):
            with pytest.raises(ad.NumericError, match="'matmul'"):
                score(x)

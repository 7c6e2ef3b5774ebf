import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from vpu import autodiff as ad
from vpu import blas
from vpu import losses as ls
from vpu import metrics as mt
from vpu import trainer as tr
from vpu.data import GaussianComponent, GaussianMixtureSpec, generate, split_validation


def quick_task(seed=0, m=60, n=240, n_test=200, sep=2.0):
    spec = GaussianMixtureSpec((
        GaussianComponent(np.array([sep, 0.0]), np.array([1.0, 1.0]), 1, 0.5),
        GaussianComponent(np.array([-sep, 0.0]), np.array([1.0, 1.0]), -1, 0.5),
    ))
    data = generate(spec, m, n, n_test, seed=seed)
    return split_validation(data, 1.0 / 6.0, seed=seed)


def quick_config(**kw):
    defaults = dict(
        loss_spec=ls.LossSpec("vpu", "msle_mixup_pu", lam=0.3, alpha=0.3),
        batch_size=64, epochs=5, hidden_widths=(8, 8), seed=0)
    defaults.update(kw)
    return tr.TrainConfig(**defaults)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "adam_epsilon"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_step_constants_finite_and_positive(self, field, value):
        with pytest.raises(ValueError, match="finite and positive"):
            quick_config(**{field: value})

    @pytest.mark.parametrize("hidden, activation", [((), "relu"), ((8, 0), "relu"),
                                                    ((8,), "foo")])
    def test_architecture_checked_up_front(self, hidden, activation):
        with pytest.raises(ValueError):
            quick_config(hidden_widths=hidden, activation=activation)


class TestDivergence:
    def test_overflowing_weights_raise_training_diverged(self):
        # the first Adam step moves every weight by about the learning rate,
        # so the second step's forward pass overflows
        with pytest.raises(tr.TrainingDiverged, match="'matmul'") as info:
            tr.train(quick_config(learning_rate=1e200), quick_task())
        assert (info.value.epoch, info.value.iteration) == (1, 1)

    def test_overflow_in_epoch_eval_is_training_diverged(self):
        # one step per epoch: the step itself stays finite, and the epoch's
        # evaluation is the first forward pass with the overflowing weights
        with pytest.raises(tr.TrainingDiverged, match="'matmul'") as info:
            tr.train(quick_config(learning_rate=1e200, batch_size=500), quick_task())
        assert (info.value.epoch, info.value.iteration) == (1, 0)


def zero_adam(n):
    return tr.AdamState(np.zeros(n), np.zeros(n))


class TestAdam:
    def test_first_step_is_signed_step(self):
        # m_hat = g, v_hat = g^2 -> delta = -lr * g / (|g| + eps) ~ -lr*sign(g)
        params = np.zeros(3)
        grads = np.array([0.2, -3.0, 1e-3])
        new, state = tr.adam_step(quick_config(learning_rate=0.1), zero_adam(3), params, grads)
        np.testing.assert_allclose(new, -0.1 * np.sign(grads), rtol=1e-4)

    def test_zero_gradient_keeps_params(self):
        params = np.array([1.0, -2.0, 0.5, 0.0])
        new, _ = tr.adam_step(quick_config(learning_rate=0.1), zero_adam(4), params,
                              np.zeros(4))
        np.testing.assert_array_equal(new, params)

    def test_identical_runs_identical_trajectories(self):
        rng = np.random.default_rng(0)
        grads = [rng.normal(size=5) for _ in range(10)]
        config = quick_config(learning_rate=0.01)

        def run():
            state = zero_adam(5)
            params = np.zeros(5)
            for g in grads:
                params, state = tr.adam_step(config, state, params, g)
            return params

        assert np.array_equal(run(), run())

    def test_bias_correction_counter(self):
        config = quick_config(adam_beta1=0.9, adam_beta2=0.999, learning_rate=0.1)
        _, state = tr.adam_step(config, zero_adam(1), np.zeros(1), np.ones(1))
        assert state.t == 1
        _, state = tr.adam_step(config, state, np.zeros(1), np.ones(1))
        assert state.t == 2


class TestTrain:
    def test_zero_epochs_returns_normalized_init(self):
        data = quick_task()
        report = tr.train(quick_config(epochs=0), data)
        assert len(report.history) == 1
        assert report.best_epoch == 0
        # normalization postcondition even without training
        assert np.max(report.final_model.predict_proba(data.all_inputs())) == 1.0

    def test_bit_reproducible(self):
        data = quick_task()
        r1 = tr.train(quick_config(), data)
        r2 = tr.train(quick_config(), data)
        assert np.array_equal(r1.final_model.params, r2.final_model.params)
        assert r1.history == r2.history
        assert r1.test_acc == r2.test_acc

    def test_history_rows(self):
        data = quick_task()
        report = tr.train(quick_config(epochs=3), data)
        epochs = [line.split(",", 1)[0] for line in report.history_csv().splitlines()[1:]]
        assert epochs == ["0", "1", "2", "3"]
        assert all(math.isfinite(h.train_lvar) for h in report.history)
        assert all(math.isfinite(h.val_lvar) for h in report.history)
        # the test rows are scored once, for the chosen epoch
        cells = [line.split(",")[4] for line in report.history_csv().splitlines()[1:]]
        assert [i for i, cell in enumerate(cells) if cell] == [report.best_epoch]
        assert math.isfinite(report.test_acc)
        assert float(cells[report.best_epoch]) == report.test_acc

    def test_best_epoch_is_argmin_val(self):
        data = quick_task()
        report = tr.train(quick_config(epochs=6), data)
        vals = [h.val_lvar for h in report.history]
        assert vals[report.best_epoch] == min(vals)

    def test_requires_validation_for_early_stop(self):
        spec = GaussianMixtureSpec((
            GaussianComponent(np.array([2.0, 0.0]), np.ones(2), 1, 0.5),
            GaussianComponent(np.array([-2.0, 0.0]), np.ones(2), -1, 0.5),
        ))
        data = generate(spec, 20, 40, 0, seed=0)
        with pytest.raises(ValueError, match="validation"):
            tr.train(quick_config(), data)

    def test_no_early_stop_keeps_last(self):
        data = quick_task()
        report = tr.train(quick_config(early_stop_metric="none", epochs=4), data)
        assert report.best_epoch == 4

    def test_normalization_postcondition(self):
        data = quick_task()
        report = tr.train(quick_config(), data)
        assert np.max(report.final_model.predict_proba(data.all_inputs())) == 1.0

    def test_baseline_skips_normalization(self):
        data = quick_task()
        cfg = quick_config(loss_spec=ls.LossSpec("nnpu", "none", lam=0.0, pi_p=0.5))
        report = tr.train(cfg, data)
        assert report.final_model.normalization_scale == 1.0

    def test_divergence_reports_iteration(self, monkeypatch):
        from vpu import autodiff as ad
        data = quick_task()
        real = tr.ls.total_loss
        calls = {"n": 0}

        def exploding(*args, **kw):
            calls["n"] += 1
            if calls["n"] == 3:
                raise ad.NumericError("non-finite value produced by node 'exp'")
            return real(*args, **kw)

        monkeypatch.setattr(tr.ls, "total_loss", exploding)
        with pytest.raises(tr.TrainingDiverged, match=r"epoch 1, iteration 2"):
            tr.train(quick_config(epochs=2), data)

    def test_learns_the_separable_task(self):
        data = quick_task(m=120, n=480, n_test=400)
        cfg = quick_config(epochs=40, batch_size=120, learning_rate=1e-3,
                           hidden_widths=(16, 16))
        report = tr.train(cfg, data)
        acc = mt.accuracy(report.final_model, data.test_x, data.test_y)
        assert acc > 0.9

    def test_history_csv_format(self):
        data = quick_task()
        report = tr.train(quick_config(epochs=2), data)
        lines = report.history_csv().strip().splitlines()
        assert lines[0] == "epoch,train_lvar,val_lvar,val_reg,test_acc"
        assert [line.split(",", 1)[0] for line in lines[1:]] == ["0", "1", "2"]


def without_openblas(monkeypatch):
    """Find no OpenBLAS, as with another BLAS, and fail on any fork."""
    def no_fork():
        raise AssertionError("a process was forked")

    monkeypatch.setattr(blas, "_openblas_threads", lambda: None)
    monkeypatch.setattr(os, "fork", no_fork)


def needs_openblas():
    if blas._openblas_threads() is None:
        pytest.skip("no OpenBLAS to pin, so no scoring worker")


@pytest.fixture(params=["worker", "in-process"])
def scoring(request, monkeypatch):
    """Run the test with epochs scored by the forked worker, and again
    in-process, as where no OpenBLAS is found."""
    if request.param == "worker":
        needs_openblas()
    else:
        without_openblas(monkeypatch)
    return request.param


def kill_scoring_worker(monkeypatch, code):
    """Make the forked worker exit with `code` at its first scoring call;
    epochs scored in the training process, if any, pass."""
    trainer_pid = os.getpid()
    real = tr._eval_epoch

    def dying(*args):
        if os.getpid() == trainer_pid:
            return real(*args)
        os._exit(code)

    monkeypatch.setattr(tr, "_eval_epoch", dying)


def fail_scoring_at(monkeypatch, at, error):
    """Make `_eval_epoch` raise `error` at epoch `at`; the forked worker
    inherits the patch.  Each process scores its epochs in order, so epoch
    `at` is its call `at` there.  The message names the process that
    scored."""
    real = tr._eval_epoch
    calls: dict[int, int] = {}  # process id -> `_eval_epoch` calls

    def failing(*args):
        epoch = calls.get(os.getpid(), 0)
        calls[os.getpid()] = epoch + 1
        if epoch == at:
            raise error(f"epoch {epoch} scored in process {os.getpid()}")
        return real(*args)

    monkeypatch.setattr(tr, "_eval_epoch", failing)


class TestScoring:
    """Each epoch is scored while the next one trains; the report and the
    errors are those of scoring each epoch before the next one's steps."""

    def test_same_report_in_process(self, monkeypatch):
        data = quick_task()
        config = quick_config(epochs=4)
        forked = tr.train(config, data)
        without_openblas(monkeypatch)
        local = tr.train(config, data)
        assert local.history == forked.history
        assert local.best_epoch == forked.best_epoch
        assert local.test_acc == forked.test_acc
        assert np.array_equal(local.final_model.params, forked.final_model.params)
        assert local.final_model.normalization_scale == forked.final_model.normalization_scale

    def test_no_child_after_return(self):
        tr.train(quick_config(epochs=2), quick_task())
        assert multiprocessing.active_children() == []

    def test_no_child_after_a_step_diverges(self):
        with pytest.raises(tr.TrainingDiverged):
            tr.train(quick_config(learning_rate=1e200), quick_task())
        assert multiprocessing.active_children() == []

    def test_no_child_after_scoring_diverges(self, monkeypatch):
        fail_scoring_at(monkeypatch, 2, ad.NumericError)
        with pytest.raises(tr.TrainingDiverged, match="epoch 2, iteration"):
            tr.train(quick_config(epochs=4), quick_task())
        assert multiprocessing.active_children() == []

    def test_scoring_error_comes_before_next_epochs_step_error(self, scoring, monkeypatch):
        data = quick_task()
        iters = math.ceil(data.n / 64)
        fail_scoring_at(monkeypatch, 1, ad.NumericError)
        real = tr.ls.total_loss
        calls = {"n": 0}

        def exploding(*args, **kw):  # the first step of epoch 2
            calls["n"] += 1
            if calls["n"] == iters + 1:
                raise ad.NumericError("step failed")
            return real(*args, **kw)

        monkeypatch.setattr(tr.ls, "total_loss", exploding)
        with pytest.raises(tr.TrainingDiverged, match="scored in process") as info:
            tr.train(quick_config(epochs=3), data)
        assert (info.value.epoch, info.value.iteration) == (1, iters - 1)

    def test_epoch_zero_numeric_error_stays_unwrapped(self, scoring, monkeypatch):
        fail_scoring_at(monkeypatch, 0, ad.NumericError)
        with pytest.raises(ad.NumericError, match="epoch 0 scored") as info:
            tr.train(quick_config(), quick_task())
        assert not isinstance(info.value, tr.TrainingDiverged)

    def test_other_errors_keep_type_and_message(self, scoring, monkeypatch):
        fail_scoring_at(monkeypatch, 2, ValueError)
        with pytest.raises(ValueError, match=r"^epoch 2 scored in process \d+$") as info:
            tr.train(quick_config(), quick_task())
        scored_here = str(info.value).endswith(f" {os.getpid()}")
        assert scored_here == (scoring == "in-process")

    def test_worker_death_names_its_exit_code(self, monkeypatch):
        needs_openblas()
        kill_scoring_worker(monkeypatch, 7)
        with pytest.raises(ChildProcessError, match="exited with code 7"):
            tr.train(quick_config(), quick_task())
        assert multiprocessing.active_children() == []

    def test_test_rows_scored_once(self, monkeypatch):
        # counted in-process, where every scoring call is seen
        without_openblas(monkeypatch)
        real = mt.accuracy
        calls = []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mt, "accuracy", counted)
        report = tr.train(quick_config(epochs=3), quick_task())
        assert len(calls) == 1
        assert report.test_acc == real(*calls[0])

    def test_blas_thread_count_restored(self):
        needs_openblas()
        get, set_ = blas._openblas_threads()
        before = get()
        set_(2)
        try:
            tr.train(quick_config(epochs=1), quick_task())
            assert get() == 2
        finally:
            set_(before)

    def test_blas_thread_count_restored_after_a_step_diverges(self):
        needs_openblas()
        get, set_ = blas._openblas_threads()
        before = get()
        set_(2)
        try:
            with pytest.raises(tr.TrainingDiverged):
                tr.train(quick_config(learning_rate=1e200), quick_task())
            assert get() == 2
        finally:
            set_(before)

    def test_same_reports_in_a_daemonic_pool_worker(self):
        # a `multiprocessing.Pool` worker is daemonic and may not fork, so
        # it scores in-process
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            pooled = pool.map(train_seed, [0, 1])
        finally:
            pool.close()
            pool.join()
        for seed, report in enumerate(pooled):
            direct = train_seed(seed)
            assert report.history == direct.history
            assert report.best_epoch == direct.best_epoch
            assert report.test_acc == direct.test_acc
            assert np.array_equal(report.final_model.params, direct.final_model.params)
            assert (report.final_model.normalization_scale
                    == direct.final_model.normalization_scale)


def train_seed(seed):
    return tr.train(quick_config(epochs=3, seed=seed), quick_task(seed))


def sweep_cells(*lam_val):
    return [tr.SweepCell(lam, val, math.nan) for lam, val in lam_val]


class TestSelectBest:
    def test_argmin(self):
        assert tr.select_best(sweep_cells((0.1, 2.0), (0.3, 1.0), (1.0, 3.0))) == 1

    def test_tie_prefers_smaller_lambda(self):
        assert tr.select_best(sweep_cells((0.3, 1.0), (0.1, 1.0))) == 1
        assert tr.select_best(sweep_cells((0.1, 1.0), (0.3, 1.0))) == 0

    def test_full_tie_prefers_earlier_cell(self):
        assert tr.select_best(sweep_cells((0.3, 1.0), (0.3, 1.0))) == 0

    def test_nan_cells_skipped(self):
        assert tr.select_best(sweep_cells((0.1, math.nan), (0.3, 5.0))) == 1

    def test_all_failed_raises(self):
        with pytest.raises(ValueError):
            tr.select_best(sweep_cells((0.1, math.nan)))


class TestSweep:
    def test_single_cell_equals_train(self):
        data = quick_task()
        cfg = quick_config(epochs=3)
        report, cells = tr.sweep_lambda(cfg, [0.3], data)
        direct = tr.train(replace(cfg, loss_spec=replace(cfg.loss_spec, lam=0.3)), data)
        assert np.array_equal(report.final_model.params, direct.final_model.params)
        assert [(c.lam, c.best) for c in cells] == [(0.3, True)]

    def test_selected_val_is_minimal(self):
        data = quick_task()
        report, cells = tr.sweep_lambda(quick_config(epochs=3), [0.01, 0.1, 1.0], data)
        vals = [c.val_lvar for c in cells]
        best = report.history[report.best_epoch].val_lvar
        assert best == min(vals)

    def test_full_grid_runs_all_cells(self):
        data = quick_task(m=30, n=60, n_test=0)
        grid = [1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 0.1, 0.3, 1.0, 3.0]
        _, cells = tr.sweep_lambda(quick_config(epochs=1, batch_size=32), grid, data)
        assert len(cells) == 10
        assert [c.lam for c in cells] == grid

    def test_failed_cell_recorded_and_skipped(self, monkeypatch):
        data = quick_task()
        calls = {"n": 0}
        real_train = tr.train

        def flaky(config, d):
            calls["n"] += 1
            if calls["n"] == 1:
                raise tr.TrainingDiverged(1, 0, ArithmeticError("boom"))
            return real_train(config, d)

        monkeypatch.setattr(tr, "train", flaky)
        report, cells = tr.sweep_lambda(quick_config(epochs=2), [0.1, 0.3], data)
        assert math.isnan(cells[0].val_lvar) and cells[0].error
        assert [(c.lam, c.best) for c in cells] == [(0.1, False), (0.3, True)]

    def test_needs_validation_before_any_cell(self, monkeypatch):
        # with early stopping off, nothing splits validation rows off: the
        # sweep used to train every cell before failing
        data = replace(quick_task(), val_positive=None, val_unlabeled=None)
        calls = []
        real_train = tr.train

        def counted(config, d):
            calls.append(config)
            return real_train(config, d)

        monkeypatch.setattr(tr, "train", counted)
        with pytest.raises(ValueError, match="early_stop"):
            tr.sweep_lambda(quick_config(early_stop_metric="none", epochs=1),
                            [0.1, 0.3, 1.0], data)
        assert calls == []


class TestPriorSweepPathology:
    def test_unit_prior_minimizes_estimated_risk(self):
        """Treating the class prior as sweepable drives selection to pi = 1:
        with an all-positive scorer the estimated risk collapses to ~0, below
        the risk at the true prior.  Exact computation on the oracle."""
        from vpu import oracle as oc
        from vpu.sampling import Rng

        from reference import one_instance

        rng = Rng(21)
        for _ in range(50):
            d = one_instance(rng, 12)
            scores = np.full(d.k, 12.0)
            near_one, _ = oc.exact_pu_risks(scores, d, pi_p=1.0 - 1e-9)
            at_true, _ = oc.exact_pu_risks(scores, d, pi_p=d.pi_p)
            assert near_one <= at_true
            assert near_one == pytest.approx(0.0, abs=1e-4)

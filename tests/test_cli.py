import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vpu import blas, cli
from vpu import metrics as mt
from vpu import model as md
from vpu import trainer as tr
from vpu.data import load_csv
from vpu.losses import LossSpec
from vpu.trainer import TrainConfig

from test_trainer import needs_openblas


def run(*args):
    return cli.main(list(args))


QUICK = ["--m", "40", "--n", "120", "--n_test", "60", "--epochs", "2",
         "--batch_size", "40", "--hidden", "8,8"]
BIAS_QUICK = ["--ratios", "1,4", "--bias_total", "120", "--n", "240", "--n_test", "120",
              "--epochs", "2", "--batch_size", "60", "--hidden", "8,8"]


def make_dataset(tmp_path, name="data", extra=()):
    out = tmp_path / name
    code = run("generate", "--out", str(out), *QUICK, *extra)
    assert code == 0
    return out / "dataset.csv"


class TestGenerate:
    def test_default_sizes(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--out", str(out)) == 0
        text = (out / "dataset.csv").read_text().splitlines()
        tags = [line.split(",", 1)[0] for line in text[1:]]
        assert tags.count("P") == 500
        assert tags.count("U") == 2000
        assert tags.count("T") == 2000

    def test_byte_identical_per_seed(self, tmp_path):
        a = make_dataset(tmp_path, "a", ("--seed", "9"))
        b = make_dataset(tmp_path, "b", ("--seed", "9"))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("message", ["Unable to allocate 7.28 TiB for an array", ""])
    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch, message):
        def out_of_memory(*args, **kw):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "generate", out_of_memory)
        assert run("generate", "--out", str(tmp_path / "g"), "--m", "1000000000000") == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: out of memory{': ' if message else ''}{message}\n"
        assert not (tmp_path / "g").exists()

    def test_missing_out_is_usage_error(self, capsys):
        assert run("generate") == 2
        assert "out" in capsys.readouterr().err

    def test_prints_summary(self, tmp_path, capsys):
        make_dataset(tmp_path)
        assert "pi_p=0.5" in capsys.readouterr().out


class TestConfigHandling:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("epochs = 3\nwarp_speed = 9\n")
        assert run("generate", "--config", str(cfg), "--out", str(tmp_path / "o")) == 2
        assert "warp_speed" in capsys.readouterr().err

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "ok.cfg"
        cfg.write_text("# a comment\n\nm = 40\nn = 120  # trailing\nn_test = 0\n")
        out = tmp_path / "o"
        assert run("generate", "--config", str(cfg), "--out", str(out)) == 0
        data = load_csv(str(out / "dataset.csv"))
        assert data.m == 40 and data.n == 120

    def test_flag_overrides_file(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("m = 40\nn = 120\nn_test = 0\n")
        out = tmp_path / "o"
        assert run("generate", "--config", str(cfg), "--m", "25", "--out", str(out)) == 0
        assert load_csv(str(out / "dataset.csv")).m == 25

    def test_train_defaults_are_the_dataclass_defaults(self):
        # criterion 7 trains TrainConfig(loss_spec=LossSpec()) as "the
        # defaults": it must be what `vpu train` runs with no training flag
        argv = ["train", "--data", "d.csv", "--out", "o"]
        cfg = cli.resolve_config(cli.build_parser("train").parse_args(argv))
        assert cfg.train == TrainConfig(loss_spec=LossSpec())

    def test_resolved_config_echoed(self, tmp_path):
        out = tmp_path / "o"
        make_dataset(tmp_path, "o")
        resolved = (out / "config.resolved").read_text()
        assert "m = 40" in resolved
        assert sorted(line.split(" = ")[0] for line in resolved.strip().splitlines()) \
            == sorted(cli.KEYS)

    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    def test_rerun_from_resolved_config_reproduces_every_output(self, tmp_path, command):
        dataset = make_dataset(tmp_path)
        model_dir = tmp_path / "model"
        assert run("train", "--data", str(dataset), "--out", str(model_dir), *QUICK) == 0
        args = {
            "generate": QUICK,
            "train": ["--data", str(dataset), *QUICK],
            "sweep": ["--data", str(dataset), "--lambda_grid", "0.01,0.3", *QUICK],
            "eval": ["--data", str(dataset), "--model", str(model_dir / "model.txt")],
            "oracle-check": ["--trials", "5", "--seed", "3"],
            "bias-exp": BIAS_QUICK,
        }[command]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(command, "--out", str(out_a), *args) == 0
        assert run(command, "--config", str(out_a / "config.resolved"),
                   "--out", str(out_b)) == 0
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        for name in names:
            expected = (out_a / name).read_text()
            if name == "config.resolved":
                expected = expected.replace(f"out = {out_a}", f"out = {out_b}")
            assert (out_b / name).read_text() == expected, name

    def test_fraction_values_accepted(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "t"
        assert run("train", "--data", str(dataset), "--out", str(out),
                   "--val_fraction", "1/4", *QUICK) == 0


class TestTrain:
    def test_writes_artifacts(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "t"
        assert run("train", "--data", str(dataset), "--out", str(out), *QUICK) == 0
        for name in ("model.txt", "history.csv", "metrics.txt", "metrics.csv",
                     "config.resolved"):
            assert (out / name).exists(), name

    def test_history_header(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "t"
        run("train", "--data", str(dataset), "--out", str(out), *QUICK)
        head = (out / "history.csv").read_text().splitlines()[0]
        assert head == "epoch,train_lvar,val_lvar,val_reg,test_acc"

    def test_missing_data_usage_error(self, tmp_path):
        assert run("train", "--out", str(tmp_path / "t")) == 2

    def test_nnpu_needs_explicit_prior(self, tmp_path, capsys):
        dataset = make_dataset(tmp_path)
        code = run("train", "--data", str(dataset), "--out", str(tmp_path / "t"),
                   "--objective", "nnpu", *QUICK)
        assert code == 2
        assert "pi_p" in capsys.readouterr().err

    def test_nnpu_with_prior_completes(self, tmp_path, capsys):
        dataset = make_dataset(tmp_path)
        code = run("train", "--data", str(dataset), "--out", str(tmp_path / "t"),
                   "--objective", "nnpu", "--pi_p", "0.5", *QUICK)
        assert code == 0
        assert "test_acc=" in capsys.readouterr().out

    def test_numeric_failure_exit_code(self, tmp_path, monkeypatch):
        from vpu.trainer import TrainingDiverged
        dataset = make_dataset(tmp_path)

        def boom(config, data):
            raise TrainingDiverged(2, 1, ArithmeticError("nan loss"))

        monkeypatch.setattr(cli, "train", boom)
        assert run("train", "--data", str(dataset),
                   "--out", str(tmp_path / "t"), *QUICK) == 3

    def test_scoring_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        dataset = make_dataset(tmp_path)

        def out_of_memory(*args):
            raise MemoryError("Unable to allocate 7.28 TiB for an array")

        monkeypatch.setattr(tr, "_eval_epoch", out_of_memory)
        capsys.readouterr()
        assert run("train", "--data", str(dataset), "--out", str(tmp_path / "t"), *QUICK) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 7.28 TiB for an array\n"

    @pytest.mark.parametrize("early_stop", ["val_lvar", "none"])
    def test_history_test_acc_on_the_chosen_row_only(self, tmp_path, early_stop):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "t"
        assert run("train", "--data", str(dataset), "--out", str(out),
                   "--early_stop", early_stop, *QUICK, "--epochs", "4") == 0
        rows = [r.split(",") for r in (out / "history.csv").read_text().splitlines()[1:]]
        if early_stop == "none":
            chosen = len(rows) - 1
        else:
            vals = [float(r[2]) for r in rows]
            chosen = vals.index(min(vals))
        assert [i for i, r in enumerate(rows) if r[4]] == [chosen]
        accuracy = (out / "metrics.csv").read_text().splitlines()[1].split(",")[0]
        assert rows[chosen][4] == accuracy

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_metrics_on_one_blas_thread(self, tmp_path, monkeypatch, command):
        # train writes its metrics after `train` returns and eval trains
        # nothing: both score inside the command's pin
        needs_openblas()
        dataset = make_dataset(tmp_path)
        model = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(model))
        get, set_ = blas._openblas_threads()
        real = mt.report
        threads = []

        def recorded(*args):
            threads.append(get())
            return real(*args)

        monkeypatch.setattr(mt, "report", recorded)
        before = get()
        set_(2)
        try:
            assert get() == 2
            assert run(command, "--data", str(dataset), "--model", str(model),
                       "--out", str(tmp_path / "o"), *QUICK) == 0
            assert get() == 2
        finally:
            set_(before)
        assert threads == [1]

    def test_bare_objective_overfits_in_history(self, tmp_path):
        # lambda 0 / reg none on the overlapping task: the history file
        # records a validation curve that turns upward after its minimum
        out_g = tmp_path / "overlap"
        assert run("generate", "--out", str(out_g), "--m", "100",
                   "--mixture", "+1 0.5 1,0 1,1; -1 0.5 -1,0 1,1") == 0
        out = tmp_path / "overfit"
        assert run("train", "--data", str(out_g / "dataset.csv"),
                   "--out", str(out), "--lambda", "0", "--reg", "none",
                   "--hidden", "128,128", "--epochs", "100") == 0
        rows = (out / "history.csv").read_text().strip().splitlines()[1:]
        vals = [float(r.split(",")[2]) for r in rows]
        assert vals[-1] > min(vals)

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["train", "--alpha", "nan"], "finite", id="nan-alpha"),
        pytest.param(["train", "--alpha", "inf"], "finite", id="inf-alpha"),
        pytest.param(["train", "--lambda", "nan"], "finite", id="nan-lambda"),
        pytest.param(["train", "--lambda", "inf"], "finite", id="inf-lambda"),
        pytest.param(["train", "--val_fraction", "0"], "(0, 1)", id="zero-val_fraction"),
        pytest.param(["train", "--val_fraction", "0.001"], "empty side",
                     id="tiny-val_fraction"),
        pytest.param(["train", "--hidden", "0"], "hidden widths", id="zero-hidden"),
        pytest.param(["train", "--hidden", ""], "'hidden'", id="empty-hidden"),
        pytest.param(["train", "--activation", "foo"], "activation", id="foo-activation"),
        pytest.param(["train", "--learning_rate", "nan"], "learning rate",
                     id="nan-learning_rate"),
        pytest.param(["train", "--adam_epsilon", "nan"], "epsilon", id="nan-adam_epsilon"),
        pytest.param(["train", "--data", "{nan_csv}"], "nan.csv", id="nan-feature"),
        pytest.param(["train", "--data", "{one_class_csv}"], "T rows", id="train-one-class-test"),
        pytest.param(["sweep", "--data", "{one_class_csv}"], "T rows", id="sweep-one-class-test"),
        pytest.param(["eval", "--data", "{one_class_csv}"], "one_class.csv: the T rows",
                     id="eval-one-class-test"),
        pytest.param(["eval", "--data", "{no_test_csv}"], "no_test.csv: dataset has no labeled",
                     id="eval-no-test-rows"),
        pytest.param(["train", "--data", "{long_csv}"], "long.csv:3: field larger",
                     id="over-long-field"),
        pytest.param(["train", "--data", "{bytes_csv}"], "bytes.csv: 'utf-8' codec",
                     id="non-utf8-csv"),
        pytest.param(["train", "--config", "{bytes_cfg}"], "bytes.cfg: 'utf-8' codec",
                     id="non-utf8-config"),
        pytest.param(["eval", "--model", "{bytes_model_txt}"], "bytes_model.txt: 'utf-8' codec",
                     id="non-utf8-model"),
        pytest.param(["generate", "--m", "0"], "'m'", id="generate-zero-m"),
        pytest.param(["generate", "--n", "-5"], "'n'", id="generate-negative-n"),
        pytest.param(["oracle-check", "--trials", "0"], "'trials'", id="zero-trials"),
        pytest.param(["oracle-check", "--trials", "-3"], "'trials'", id="negative-trials"),
        pytest.param(["sweep", "--early_stop", "none"], "early_stop",
                     id="sweep-without-validation"),
        pytest.param(["generate", "--lambda_grid", "1,-1"], "'lambda_grid'",
                     id="negative-lambda-in-grid"),
        pytest.param(["generate", "--lambda_grid", ","], "'lambda_grid'", id="empty-lambda_grid"),
        pytest.param(["bias-exp", "--ratios", ","], "'ratios'", id="empty-ratios"),
        pytest.param(["train", "--hidden", ","], "'hidden'", id="comma-hidden"),
        pytest.param(["train", "--batch_size", "0"], "batch_size", id="zero-batch_size"),
        pytest.param(["train", "--epochs", "-1"], "epochs", id="negative-epochs"),
        pytest.param(["train", "--adam_beta1", "1"], "adam_beta1", id="unit-adam_beta1"),
        pytest.param(["train", "--adam_beta2", "1"], "adam_beta2", id="unit-adam_beta2"),
        pytest.param(["bias-exp", "--n_test", "0"], "'n_test'", id="bias-exp-zero-n_test"),
    ])
    def test_non_finite_constant_is_usage_error(self, tmp_path, capsys, argv, message):
        # every bad config value or input exits 2 before any work, naming
        # the bad file: --alpha nan used to hang in the Beta sampler, others
        # ended in a traceback (exit 1), failed late as numeric errors
        # (exit 3), were accepted, or named no file
        command, *flags = argv
        dataset = make_dataset(tmp_path)
        rows = dataset.read_text().splitlines()
        model = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(model))
        u_row = next(i for i, r in enumerate(rows) if r.startswith("U,"))
        long_row = rows[u_row].split(",")
        long_row[1] = "1" * 200000  # over the csv module's field limit, on line 3
        nan_row = ",".join(["P", "nan"] + rows[1].split(",")[2:])
        contents = {
            "one_class.csv": "\n".join(
                r for r in rows if not (r.startswith("T,") and r.endswith(",-1"))) + "\n",
            "no_test.csv": "\n".join(r for r in rows if r[:2] != "T,") + "\n",
            "long.csv": "\n".join([*rows[:2], ",".join(long_row), *rows[u_row + 1:]]) + "\n",
            "nan.csv": "\n".join([rows[0], nan_row, *rows[2:]]) + "\n",
            "bytes.csv": dataset.read_bytes() + b"\xff\n",
            "bytes.cfg": b"epochs = 2\n# \xff\n",
            "bytes_model.txt": model.read_bytes() + b"\xff\n",
        }
        inputs = {}
        for name, content in contents.items():
            path = inputs[name.replace(".", "_")] = tmp_path / name
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
        flags = [f.format(**inputs) for f in flags]
        if command in ("train", "sweep"):
            flags = ["--data", str(dataset), "--out", str(tmp_path / "t"), *QUICK, *flags]
        elif command == "eval":
            flags = ["--model", str(model), "--data", str(dataset), "--out", str(tmp_path / "t"),
                     *flags]
        elif command in ("generate", "bias-exp"):
            flags = ["--out", str(tmp_path / "g"), *flags]
        capsys.readouterr()
        assert run(command, *flags) == 2
        captured = capsys.readouterr()
        assert message in captured.err and "Traceback" not in captured.err
        assert captured.out == ""
        assert not (tmp_path / "t").exists() and not (tmp_path / "g").exists()

    def test_overflowing_weights_exit_3(self, tmp_path, capsys):
        # the first Adam step moves every weight by about the learning rate,
        # so the next forward pass overflows
        dataset = make_dataset(tmp_path)
        code = run("train", "--data", str(dataset), "--out", str(tmp_path / "t"),
                   *QUICK, "--learning_rate", "1e200")
        assert code == 3
        assert "'matmul'" in capsys.readouterr().err

    def test_rerun_from_resolved_config_is_bit_exact(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out_a = tmp_path / "a"
        assert run("train", "--data", str(dataset), "--out", str(out_a), *QUICK) == 0
        out_b = tmp_path / "b"
        assert run("train", "--config", str(out_a / "config.resolved"),
                   "--out", str(out_b)) == 0
        for name in ("model.txt", "history.csv", "metrics.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestSweep:
    def test_single_cell_equals_train(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out_s = tmp_path / "s"
        assert run("sweep", "--data", str(dataset), "--out", str(out_s),
                   "--lambda_grid", "0.3", *QUICK) == 0
        out_t = tmp_path / "t"
        assert run("train", "--data", str(dataset), "--out", str(out_t),
                   "--lambda", "0.3", *QUICK) == 0
        assert (out_s / "model.txt").read_bytes() == (out_t / "model.txt").read_bytes()

    def test_full_default_grid_has_ten_rows(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "s"
        assert run("sweep", "--data", str(dataset), "--out", str(out),
                   "--epochs", "1", *QUICK[:-2]) == 0
        lines = (out / "sweep.csv").read_text().strip().splitlines()
        assert lines[0] == "lambda,val_lvar,test_acc,best"
        assert len(lines) == 11

    def test_best_row_marked(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "s"
        run("sweep", "--data", str(dataset), "--out", str(out),
            "--lambda_grid", "0.01,0.3", *QUICK)
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().strip().splitlines()[1:]]
        stars = [r for r in rows if r[-1] == "*"]
        assert len(stars) == 1
        starred_val = float(stars[0][1])
        assert starred_val == min(float(r[1]) for r in rows)

    def test_repeated_lambda_marks_one_row(self, tmp_path):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "s"
        assert run("sweep", "--data", str(dataset), "--out", str(out),
                   "--lambda_grid", "0.3,0.3", *QUICK) == 0
        rows = [l.split(",") for l in (out / "sweep.csv").read_text().strip().splitlines()[1:]]
        assert [r[-1] for r in rows].count("*") == 1


    @pytest.mark.parametrize("batch_size", ["10", "500"])
    def test_every_cell_diverging_exits_3(self, tmp_path, capsys, batch_size):
        # batch 10 overflows in a training step; batch 500, one step per
        # epoch, overflows in the evaluation that follows the step
        dataset = make_dataset(tmp_path)
        code = run("sweep", "--data", str(dataset), "--out", str(tmp_path / "s"), *QUICK,
                   "--batch_size", batch_size, "--epochs", "1",
                   "--learning_rate", "1e200", "--lambda_grid", "0.1,0.3")
        assert code == 3
        assert "every sweep cell failed" in capsys.readouterr().err


class TestEval:
    def test_reports_metrics(self, tmp_path, capsys):
        dataset = make_dataset(tmp_path)
        out = tmp_path / "t"
        run("train", "--data", str(dataset), "--out", str(out), *QUICK)
        capsys.readouterr()
        code = run("eval", "--model", str(out / "model.txt"),
                   "--data", str(dataset), "--out", str(tmp_path / "e"))
        assert code == 0
        assert "accuracy=" in capsys.readouterr().out
        assert (tmp_path / "e" / "metrics.csv").exists()

    def test_needs_test_rows(self, tmp_path, capsys):
        dataset = make_dataset(tmp_path, "nolabels", ("--n_test", "0"))
        out = tmp_path / "t"
        run("train", "--data", str(dataset), "--out", str(out), *QUICK)
        assert run("eval", "--model", str(out / "model.txt"),
                   "--data", str(dataset)) == 2

    def test_infinite_scale_is_usage_error(self, tmp_path, capsys):
        # such a model used to load and score every test row -1 (exit 0)
        dataset = make_dataset(tmp_path)
        path = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(path))
        lines = path.read_text().splitlines()
        lines[0] = " ".join(lines[0].split()[:5] + ["inf"])
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("eval", "--model", str(path), "--data", str(dataset),
                   "--out", str(tmp_path / "e")) == 2
        assert "normalization_scale" in capsys.readouterr().err
        assert not (tmp_path / "e").exists()

    def test_weights_that_overflow_on_the_data_exit_3(self, tmp_path, capsys):
        # finite weights, so the file loads; the first matmul overflows
        dataset = make_dataset(tmp_path)
        net = md.init(md.MlpArchitecture(2, (8, 8)), seed=0)
        params = net.params.copy()
        params[net.arch.layers[0].weight] = 1e308
        path = tmp_path / "model.txt"
        md.save_model(net.with_params(params), str(path))
        capsys.readouterr()
        assert run("eval", "--model", str(path), "--data", str(dataset),
                   "--out", str(tmp_path / "e")) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric failure: ") and "'matmul'" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not list((tmp_path / "e").glob("metrics.*"))

    def test_model_of_another_input_size_is_usage_error(self, tmp_path, capsys):
        dataset = make_dataset(tmp_path)
        path = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(3, (8,)), seed=0), str(path))
        capsys.readouterr()
        assert run("eval", "--model", str(path), "--data", str(dataset),
                   "--out", str(tmp_path / "e")) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: model {path} takes 3 features, "
                                f"but dataset {dataset} has 2\n")
        assert captured.out == ""
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_is_usage_error(self, tmp_path, capsys, weight):
        dataset = make_dataset(tmp_path)
        path = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(path))
        lines = path.read_text().splitlines()
        lines[7] = weight
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("eval", "--model", str(path), "--data", str(dataset),
                   "--out", str(tmp_path / "e")) == 2
        captured = capsys.readouterr()
        assert f"{path}: parameters contain non-finite entries" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("line, text, where", [
        (7, "abc", ":8: could not convert string to float: 'abc'"),
        (None, "", ":{end}: could not convert string to float: ''"),
        (0, "vpu-model v1 x 8,8 relu 1", ": invalid literal for int() with base 10: 'x'"),
        (0, "vpu-model v1 2 8,y relu 1", ": invalid literal for int() with base 10: 'y'"),
    ])
    def test_bad_model_field_names_file_and_line(self, tmp_path, capsys, line, text, where):
        dataset = make_dataset(tmp_path)
        path = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(path))
        lines = path.read_text().splitlines()
        if line is None:  # a trailing blank line
            lines.append(text)
        else:
            lines[line] = text
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run("eval", "--model", str(path), "--data", str(dataset),
                   "--out", str(tmp_path / "e")) == 2
        captured = capsys.readouterr()
        assert f"error: {path}{where.format(end=len(lines))}\n" == captured.err
        assert captured.out == ""
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_non_integral_label_is_usage_error(self, tmp_path, capsys, command):
        # a label of 1.5 used to load as +1
        dataset = make_dataset(tmp_path)
        lines = dataset.read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if line.startswith("T,"))
        lines[row] = lines[row].rsplit(",", 1)[0] + ",1.5"
        dataset.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(model))
        capsys.readouterr()
        assert run(command, "--model", str(model), "--data", str(dataset),
                   "--out", str(tmp_path / "e"), *QUICK) == 2
        captured = capsys.readouterr()
        assert f"{dataset}:{row + 1}: test label '1.5' is not +1 or -1" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "e").exists()

    @pytest.mark.parametrize("command", ["train", "sweep", "eval"])
    @pytest.mark.parametrize("pool, tag", [("P", "VP"), ("U", "VU")])
    def test_validation_rows_of_one_pool_are_usage_error(self, tmp_path, capsys, command,
                                                         pool, tag):
        # 10 P rows relabelled VP, with no VU rows, used to be dropped by the
        # validation split (or, with early_stop none, never validated)
        dataset = make_dataset(tmp_path)
        lines = dataset.read_text().splitlines()
        rows = [i for i, line in enumerate(lines) if line.startswith(f"{pool},")][:10]
        for i in rows:
            lines[i] = tag + lines[i][len(pool):]
        dataset.write_text("\n".join(lines) + "\n")
        model = tmp_path / "model.txt"
        md.save_model(md.init(md.MlpArchitecture(2, (8, 8)), seed=0), str(model))
        capsys.readouterr()
        assert run(command, "--model", str(model), "--data", str(dataset),
                   "--out", str(tmp_path / "e"), *QUICK) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {dataset}: ") and "VP and VU" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "e").exists()


class TestOracleCheck:
    def test_passes_and_prints_table(self, capsys):
        assert run("oracle-check", "--trials", "40") == 0
        out = capsys.readouterr().out
        assert "kl_identity" in out
        assert "all suites passed" in out

    def test_failure_exit_code_and_counterexample(self, capsys, monkeypatch):
        from vpu import oracle as oc

        def broken(trials, seed):
            return [oc.SuiteResult("kl_identity", trials, 2, 0.5, worst_trial=7,
                                   worst_detail="DiscreteJoint instance: ...")]

        monkeypatch.setattr(cli.oracle, "run_property_suites", broken)
        assert run("oracle-check", "--trials", "10") == 1
        out = capsys.readouterr().out
        assert "FAILED kl_identity" in out
        assert "DiscreteJoint instance" in out

    def test_nan_residual_is_the_worst_failure(self, capsys, monkeypatch):
        # NaN fails every comparison: it must still count as a failure, and
        # the first NaN trial must be the worst even after a larger finite
        # residual
        from vpu import oracle as oc
        from vpu.sampling import Rng

        from reference import one_instance

        real = oc.kl_identity_residual

        def broken(d, phi):  # NaN where pi_p < 0.5, a failure where pi_p >= 0.8
            return np.where(d.pi_p < 0.5, np.nan, np.where(d.pi_p >= 0.8, 1e-3, real(d, phi)))

        seed, pis = 3, []
        for t in range(20):  # each trial's pi_p, drawn as suite_kl_identity does
            rng = Rng(seed + t)
            pis.append(float(one_instance(rng, 32, oc._coins([rng])[0]).pi_p))
        first_nan = next(t for t, pi in enumerate(pis) if pi < 0.5)
        assert any(pi >= 0.8 for pi in pis[:first_nan])
        failures = sum(pi < 0.5 or pi >= 0.8 for pi in pis)
        monkeypatch.setattr(oc, "kl_identity_residual", broken)
        assert run("oracle-check", "--trials", "20", "--seed", str(seed)) == 1
        out = capsys.readouterr().out
        assert f"kl_identity                20  {failures:>8}             nan" in out
        assert (f"FAILED kl_identity: worst trial {first_nan} "
                f"(rerun with seed {seed + first_nan})") in out
        assert out.count("FAILED") == 1

    def test_default_trial_count_is_fast(self, capsys):
        import time
        start = time.time()
        assert run("oracle-check") == 0  # default 1000 trials per suite
        assert time.time() - start < 30.0
        capsys.readouterr()

    def test_seed_flag_reproduces_output(self, capsys):
        assert run("oracle-check", "--trials", "25", "--seed", "4") == 0
        first = capsys.readouterr().out
        assert run("oracle-check", "--trials", "25", "--seed", "4") == 0
        assert capsys.readouterr().out == first


class TestBiasExperiment:
    def test_row_count_and_bounds(self, tmp_path):
        out = tmp_path / "bias"
        code = run("bias-exp", "--out", str(out), *BIAS_QUICK)
        assert code == 0
        rows = (out / "bias.csv").read_text().strip().splitlines()
        assert rows[0] == "ratio,method,accuracy"
        assert len(rows) == 1 + 2 * 2
        bounds = (out / "bias_bounds.csv").read_text().strip().splitlines()
        assert bounds[0] == "ratio,c1,c2,epsilon,bound"
        assert len(bounds) == 3
        # ratio 1 is the unbiased case: envelope collapses, bound ~ epsilon
        _, c1, c2, eps, bound = (float(v) for v in bounds[1].split(","))
        assert c1 == pytest.approx(1.0, abs=0.01)
        assert c2 == pytest.approx(1.0, abs=0.01)
        assert bound < 0.05

    def test_bad_ratio_fails_before_training(self, tmp_path, monkeypatch, capsys):
        # ratio 10000 leaves the small subclasses empty at bias_total=60; every
        # ratio is checked before ratio 1 samples or trains anything
        def refuse(*args, **kwargs):
            raise AssertionError("sampled or trained before the ratios were checked")

        monkeypatch.setattr(cli, "sample_class_conditional", refuse)
        monkeypatch.setattr(cli, "train", refuse)
        code = run("bias-exp", "--out", str(tmp_path / "b"), "--ratios", "1,10000",
                   "--bias_total", "60", "--n", "300", "--n_test", "100", "--epochs", "20")
        assert code == 2
        assert "ratio 10000 leaves an empty subclass at bias_total=60" in capsys.readouterr().err

    def test_no_negative_component_fails_before_training(self, tmp_path, monkeypatch,
                                                         capsys):
        # nnpu needs pi_p < 1: a mixture of positives alone used to train the
        # first ratio's VPU model before its nnpu model was refused
        calls = []
        real = cli.train

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "train", counting)
        capsys.readouterr()
        code = run("bias-exp", "--out", str(tmp_path / "b"), *BIAS_QUICK,
                   "--mixture", "+1 0.5 -2,3 1,1; +1 0.5 -2,0 1,1")
        captured = capsys.readouterr()
        assert code == 2 and calls == []
        assert "key 'mixture'" in captured.err and "negative component" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not (tmp_path / "b").exists()

    def test_needs_multiple_positive_subclasses(self, tmp_path, capsys):
        code = run("bias-exp", "--out", str(tmp_path / "b"),
                   "--mixture", cli.DEFAULT_MIXTURE)
        assert code == 2
        assert "positive" in capsys.readouterr().err


# Config texts for the property test: a few valid values per key that keep
# every command tiny, mixed with values that are invalid for most keys.
VALID_TEXT = {
    "seed": ["0", "5"],
    "mixture": [cli.DEFAULT_MIXTURE, cli.BIAS_MIXTURE],
    "m": ["30"], "n": ["60"], "n_test": ["0", "20"],
    "objective": ["vpu", "vpu_l2", "nnpu", "upu"],
    "reg": ["none", "large_margin", "msle_mixup_pupu"],
    "lambda": ["0", "1"], "alpha": ["0.5", "1/3"], "pi_p": ["auto", "0.5"],
    "batch_size": ["1", "30"], "epochs": ["0", "1"], "learning_rate": ["1e-2"],
    "adam_beta1": ["0", "0.9"], "adam_beta2": ["0.999"], "adam_epsilon": ["1e-6"],
    "early_stop": ["none", "val_lvar"], "val_fraction": ["0.5", "1/3"],
    "hidden": ["4", "3,3"], "activation": ["tanh"], "lambda_grid": ["0.1", "0,1"],
    "trials": ["1", "2"], "ratios": ["1", "2,3"], "bias_total": ["40"],
    # paths get only the invalid texts, which name no file; "out" keeps its
    # base value, since an invalid text there would name a directory to create
    "data": [], "model": [],
}
INVALID_TEXT = ["nan", "inf", "-inf", "0", "-1", "", "x!"]


@st.composite
def commands(draw):
    command = draw(st.sampled_from(sorted(cli.HANDLERS)))
    keys = draw(st.lists(st.sampled_from(sorted(VALID_TEXT)), max_size=4, unique=True))
    return command, {key: draw(st.sampled_from(VALID_TEXT[key] + INVALID_TEXT))
                     for key in keys}


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tiny")
    assert run("generate", "--out", str(root / "data"), *QUICK) == 0
    assert run("train", "--data", str(root / "data" / "dataset.csv"),
               "--out", str(root / "model"), *QUICK) == 0
    return root


class TestAnyConfig:
    @settings(max_examples=60, deadline=5000)
    @given(commands())
    def test_exits_0_2_or_3(self, tiny_run, command_and_texts):
        command, texts = command_and_texts
        base = {"data": str(tiny_run / "data" / "dataset.csv"),
                "model": str(tiny_run / "model" / "model.txt"),
                "out": str(tiny_run / "out"), "m": "30", "n": "60", "n_test": "20",
                "epochs": "1", "batch_size": "30", "hidden": "4", "lambda_grid": "0.3",
                "trials": "1", "ratios": "1", "bias_total": "40"}
        argv = [f"--{key}={value}" for key, value in {**base, **texts}.items()]
        code = run(command, *argv)
        assert code in (0, 2, 3)
        if any(not _parses(key, text) for key, text in texts.items()):
            assert code == 2, texts
        if code == 3:  # only training overflows
            assert command in ("train", "sweep", "bias-exp")


def _parses(key: str, text: str) -> bool:
    try:
        cli.KEYS[key][1](text)
    except ValueError:
        return False
    return True


class TestUsage:
    """Usage errors exit 2 and print the usage to stderr; help exits 0 and
    prints it to stdout.  Only the invoked command's parser gets its flags."""

    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("frobnicate")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: vpu") and "invalid choice: 'frobnicate'" in err

    def test_missing_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: vpu") and "required: command" in err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: vpu") and all(name in out for name in cli.HANDLERS)

    @pytest.mark.parametrize("command", sorted(cli.HANDLERS))
    def test_command_help_lists_every_flag(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            run(command, "--help")
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: vpu {command}") and "--config" in out
        assert all(f"--{key} " in out for key in cli.KEYS)

    def test_flags_of_another_command_are_not_built(self, capsys):
        parser = cli.build_parser("eval")
        assert parser.parse_args(["eval", "--seed", "1"]).key_seed == "1"
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(["train", "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err

    def test_unknown_flag(self):
        with pytest.raises(SystemExit) as exc:
            run("train", "--warp", "9")
        assert exc.value.code == 2

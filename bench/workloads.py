"""The benchmark's workloads: what each sets up, times and checks.

Every workload drives vpu through its own entry point, `vpu.cli.main`, with
an argv built here; the program sees only the generated files and flags.
One closed-loop client runs one command at a time.  Inputs come from the
seed, and repeating a command on the same inputs must reproduce its output
files byte for byte, which every iteration checks.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from collections import defaultdict

from vpu import cli
from vpu import metrics as mt
from vpu import model as md
from vpu import oracle
from vpu.data import load_csv

# A trained model's test accuracy must lie within this distance of the
# generator's Bayes accuracy, Phi(separation): 2000 test rows put the
# sampling error alone near 0.01, and the ablation shape trains on only 83
# labelled positives.
BAYES_MARGIN = 0.05
DEFAULT_SEPARATION = 2.0  # vpu.cli.DEFAULT_MIXTURE: unit Gaussians at (+-2, 0)


def bayes_accuracy(separation: float) -> float:
    return 0.5 * (1.0 + math.erf(separation / math.sqrt(2.0)))


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_csv_row(path: str, row: int = 0) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return dict(zip(lines[0].split(","), lines[1 + row].split(",")))


class Run:
    """Operations attempted and failed in one benchmark run.

    A failed command or check is counted and recorded, never raised, so one
    bad output cannot stop the harness.
    """

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.recording = True  # False during the warm-up iteration
        self.values: dict[str, float] = {}
        self.hashes: dict[str, str] = {}

    def path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.errors.append(what)

    def command(self, argv: list[str]) -> float | None:
        """Run one vpu command in-process; its seconds, or None if it failed."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
        if code != 0:
            self._fail(f"vpu {argv[0]} exited {code}: {err.getvalue().strip()[-300:]}")
            return None
        return seconds

    def timed(self, what: str, fn) -> float | None:
        """Run a library call as one operation; its seconds, or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            fn()
        except Exception as exc:
            self._fail(f"{what}: {type(exc).__name__}: {exc}")
            return None
        return time.perf_counter() - start

    def check(self, name: str, fn) -> None:
        """One output check: `fn` returns None when it holds, else a reason."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self._fail(f"check {name}: {problem}")

    def same_bytes(self, label: str, path: str) -> None:
        """Check that `path` holds what it held the first time it was seen."""

        def compare():
            digest = sha256(path)
            first = self.hashes.setdefault(label, digest)
            return None if digest == first else f"{label} changed between repeats"

        self.check(f"{label} repeats", compare)


def _check_round_trip(run: Run, model_path: str) -> None:
    def round_trip():
        copy = run.path("round_trip.txt")
        md.save_model(md.load_model(model_path), copy)
        return None if sha256(copy) == sha256(model_path) else "load+save changed model.txt"

    run.check("model round trip", round_trip)


def _check_eval_matches(run: Run, model_path: str, data_path: str, eval_dir: str) -> None:
    def matches():
        data = load_csv(data_path)
        direct = mt.accuracy(md.load_model(model_path), data.test_x, data.test_y)
        reported = float(read_csv_row(os.path.join(eval_dir, "metrics.csv"))["accuracy"])
        return None if reported == direct else f"eval {reported!r} != metrics.accuracy {direct!r}"

    run.check("eval accuracy", matches)


def _check_rows(run: Run, data_path: str, expected: dict[str, int]) -> None:
    def rows():
        counts: dict[str, int] = defaultdict(int)
        with open(data_path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                counts[line.split(",", 1)[0]] += 1
        got = {tag: counts.get(tag, 0) for tag in expected}
        return None if got == expected else f"dataset rows {got} != {expected}"

    run.check("dataset rows", rows)


def _rate(run: Run, key: str, amount: float, seconds: float | None) -> None:
    if seconds and run.recording:
        run.samples[key].append(amount / seconds)


class TrainWorkload:
    """Set-up generates a dataset; the timed part is one `train` on it."""

    setups_per_round = 12  # a `generate` set-up takes 50 to 100 ms
    # Per-layer metrics that stay 0 by design: a train runs no oracle suite.
    idle_layers = frozenset({
        "oracle.kl_identity_s", "oracle.kl_nonnegative_s", "oracle.scale_invariance_s",
        "oracle.minimizer_family_s", "oracle.bias_bound_s", "oracle.irreducibility_s",
        "oracle.l2_identity_s", "oracle.failures",
    })

    def __init__(self, name, why, separation, m, train_flags, epochs, n=2000, n_test=2000):
        self.name = name
        self.why = why
        self.separation = separation
        self.m, self.n, self.n_test = m, n, n_test
        self.train_flags = list(train_flags)
        self.epochs = epochs

    def tiny(self) -> "TrainWorkload":
        return TrainWorkload(self.name, self.why, self.separation, self.m, self.train_flags,
                             epochs=12, n=self.n, n_test=self.n_test)

    @property
    def steps(self) -> int:
        """Adam steps per train: the default 1/6 validation split and batch 500."""
        return self.epochs * max(1, math.ceil((self.n - round(self.n / 6)) / 500))

    def setup(self, run: Run) -> float | None:
        argv = ["generate", "--out", run.path("data"), "--seed", str(run.seed),
                "--m", str(self.m), "--n", str(self.n), "--n_test", str(self.n_test)]
        if self.separation != DEFAULT_SEPARATION:
            s = f"{self.separation:g}"
            argv += ["--mixture", f"+1 0.5 {s},0 1,1; -1 0.5 -{s},0 1,1"]
        seconds = run.command(argv)
        _rate(run, "generate_rows_per_s", self.m + self.n + self.n_test, seconds)
        return seconds

    def check_setup(self, run: Run, first: bool) -> None:
        dataset = run.path("data", "dataset.csv")
        run.same_bytes("dataset.csv", dataset)
        if first:
            _check_rows(run, dataset, {"P": self.m, "U": self.n, "T": self.n_test})

    def iteration(self, run: Run) -> float | None:
        seconds = run.command(["train", "--data", run.path("data", "dataset.csv"),
                               "--out", run.path("train"), "--seed", str(run.seed),
                               "--epochs", str(self.epochs)] + self.train_flags)
        _rate(run, "train_steps_per_s", self.steps, seconds)
        return seconds

    def check_iteration(self, run: Run, first: bool) -> None:
        out = run.path("train")
        for name in ("model.txt", "history.csv", "metrics.csv"):
            run.same_bytes(name, os.path.join(out, name))
        model_path = os.path.join(out, "model.txt")
        data_path = run.path("data", "dataset.csv")
        seconds = run.command(["eval", "--model", model_path, "--data", data_path,
                               "--out", run.path("eval")])
        _rate(run, "eval_rows_per_s", self.n_test, seconds)
        if not first:
            return

        def history_rows():
            with open(os.path.join(out, "history.csv"), encoding="utf-8") as fh:
                rows = fh.read().splitlines()[1:]
            lvar = [float(r.split(",")[2]) for r in rows]
            run.values["best_val_lvar"] = min(lvar)
            return None if len(rows) == self.epochs + 1 else \
                f"{len(rows)} history rows for {self.epochs} epochs"

        def near_bayes():
            acc = float(read_csv_row(os.path.join(out, "metrics.csv"))["accuracy"])
            run.values["test_acc"] = acc
            bayes = bayes_accuracy(self.separation)
            return None if abs(acc - bayes) <= BAYES_MARGIN else \
                f"test_acc {acc} is more than {BAYES_MARGIN} from Bayes {bayes:.4f}"

        run.check("history rows", history_rows)
        run.check("test_acc near Bayes", near_bayes)
        _check_round_trip(run, model_path)
        _check_eval_matches(run, model_path, data_path, run.path("eval"))

    def outputs(self, run: Run) -> list[str]:
        return [run.path("data", "dataset.csv")] + [
            run.path("train", f) for f in ("model.txt", "history.csv", "metrics.csv")]


class ToolkitWorkload:
    """Set-up writes an untrained model; the timed part is `generate`, `eval`
    of that model on the generated rows, and `oracle-check`."""

    INIT_SEED = 0  # one fixed model, so test_acc varies only with the rows
    setups_per_round = 80  # a set-up takes 10 to 15 ms
    # Per-layer metrics that stay 0 by design: no train (so no tape
    # backward, loss, minibatch, Adam or validation split), and `eval`
    # reports through metrics.report without metrics.accuracy.
    idle_layers = frozenset({
        "autodiff.backward_s", "autodiff.tensors_per_step", "model.logits_calls_per_step",
        "losses.total_loss_s", "losses.mixup_reg_s", "sampling.minibatch_s",
        "sampling.beta_s", "trainer.adam_s", "trainer.eval_s", "trainer.self_s",
        "data.split_validation_s", "metrics.accuracy_s",
    })

    def __init__(self, name, why, n_test=100_000, trials=1000, m=500, n=2000):
        self.name = name
        self.why = why
        self.n_test, self.trials, self.m, self.n = n_test, trials, m, n

    def tiny(self) -> "ToolkitWorkload":
        return ToolkitWorkload(self.name, self.why, n_test=2000, trials=50)

    def setup(self, run: Run) -> float | None:
        os.makedirs(run.path("model"), exist_ok=True)
        arch = md.MlpArchitecture(input_dim=2, hidden_widths=(64, 64))
        return run.timed("write init model", lambda: md.save_model(
            md.init(arch, seed=self.INIT_SEED), run.path("model", "model.txt")))

    def check_setup(self, run: Run, first: bool) -> None:
        run.same_bytes("model.txt", run.path("model", "model.txt"))
        if first:
            _check_round_trip(run, run.path("model", "model.txt"))

    def iteration(self, run: Run) -> float | None:
        seed = str(run.seed)
        data_path = run.path("gen", "dataset.csv")
        t_gen = run.command(["generate", "--out", run.path("gen"), "--seed", seed,
                             "--m", str(self.m), "--n", str(self.n),
                             "--n_test", str(self.n_test)])
        t_eval = run.command(["eval", "--model", run.path("model", "model.txt"),
                              "--data", data_path, "--out", run.path("eval")])
        t_oracle = run.command(["oracle-check", "--trials", str(self.trials), "--seed", seed,
                                "--out", run.path("oracle")])
        _rate(run, "generate_rows_per_s", self.m + self.n + self.n_test, t_gen)
        _rate(run, "eval_rows_per_s", self.n_test, t_eval)
        _rate(run, "oracle_trials_per_s", self.trials * len(oracle.ALL_SUITES), t_oracle)
        if None in (t_gen, t_eval, t_oracle):
            return None
        return t_gen + t_eval + t_oracle

    def check_iteration(self, run: Run, first: bool) -> None:
        data_path = run.path("gen", "dataset.csv")
        metrics_path = run.path("eval", "metrics.csv")
        table_path = run.path("oracle", "oracle_report.txt")
        for label, path in (("dataset.csv", data_path), ("metrics.csv", metrics_path),
                            ("oracle table", table_path)):
            run.same_bytes(label, path)

        def no_oracle_failures():
            with open(table_path, encoding="utf-8") as fh:
                rows = [line.split() for line in fh.read().splitlines()[1:]]
            failures = sum(int(r[2]) for r in rows)
            if len(rows) != len(oracle.ALL_SUITES):
                return f"{len(rows)} suites in the table"
            return None if failures == 0 else f"{failures} oracle failures"

        run.check("oracle failures", no_oracle_failures)
        if not first:
            return
        run.values["test_acc"] = float(read_csv_row(metrics_path)["accuracy"])
        _check_rows(run, data_path, {"P": self.m, "U": self.n, "T": self.n_test})
        _check_eval_matches(run, run.path("model", "model.txt"), data_path, run.path("eval"))

    def outputs(self, run: Run) -> list[str]:
        return [run.path("model", "model.txt"), run.path("gen", "dataset.csv"),
                run.path("eval", "metrics.csv"), run.path("oracle", "oracle_report.txt")]


WORKLOADS = {w.name: w for w in (
    TrainWorkload(
        "train-default",
        "default generate then default train (64x64, batch 500, 50 epochs): the "
        "command users run most; per-call Python overhead in the tape dominates",
        separation=DEFAULT_SEPARATION, m=500, train_flags=[], epochs=50),
    TrainWorkload(
        "train-ablation",
        "criterion-8 shape (128x128, m=100, separation 1, 100 epochs): wider "
        "layers make BLAS matmul a larger share and sampling a smaller one",
        separation=1.0, m=100, train_flags=["--hidden", "128,128"], epochs=100),
    ToolkitWorkload(
        "toolkit-io",
        "generate 1e5 rows, eval an untrained model on them, oracle-check 1000 "
        "trials: RNG, CSV, forward-only scoring and oracle, no backward or Adam"),
)}

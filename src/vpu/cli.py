"""Command-line entry point.

Subcommands: generate, train, sweep, eval, oracle-check, bias-exp.
Configuration comes from a flat ``key = value`` file (``#`` comments) plus
one command-line flag per key; flags override the file, which overrides the
defaults.  Unknown keys are rejected.  Every key is parsed and checked once,
before the command does any work, even a key the command ignores.  Every
run given an ``out`` directory also echoes its effective configuration to
``<out>/config.resolved`` once the command returns, and re-running from
that file reproduces the outputs bit for bit, at any BLAS thread count.

Exit codes: 0 success, 1 property-suite failure, 2 usage/config error,
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Callable

import numpy as np

from . import metrics as mt
from . import model as md
from . import oracle
from .autodiff import NumericError
from .blas import one_blas_thread
from .data import (GaussianComponent, GaussianMixtureSpec, PuDataset, check_fraction,
                   generate, inject_selection_bias, load_csv,
                   sample_class_conditional, sample_joint, split_validation,
                   true_posterior, write_csv)
from .losses import LossSpec
from .sampling import Rng
from .trainer import (TrainConfig, TrainingDiverged, TrainReport, sweep_csv,
                      sweep_lambda, train)


class ConfigError(ValueError):
    """A config value or input the command cannot use (exit 2)."""


DEFAULT_MIXTURE = "+1 0.5 2,0 1,1; -1 0.5 -2,0 1,1"
BIAS_MIXTURE = ("+1 1/6 -2,3 1,1; +1 1/6 -2,0 1,1; +1 1/6 -2,-3 1,1; "
                "-1 0.5 2,0 1,1")


def _number(text: str) -> float:
    """A float, or a fraction such as '1/6'."""
    num, slash, den = text.partition("/")
    if not slash:
        return float(text)
    if float(den) == 0.0:
        raise ValueError(f"zero denominator in {text!r}")
    return float(num) / float(den)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise ValueError(f"must be >= {low}, got {value}")
        return value
    return parse


def _list(parse):
    def parse_list(text: str) -> tuple:
        values = tuple(parse(v) for v in text.split(",") if v.strip())
        if not values:
            raise ValueError("the list is empty")
        return values
    return parse_list


def _prior(text: str) -> float | None:
    return None if text == "auto" else _number(text)


def _lambda_grid(text: str) -> tuple[float, ...]:
    """A list of lambdas, each checked as `LossSpec` checks one."""
    grid = _list(_number)(text)
    for lam in grid:
        LossSpec(lam=lam)
    return grid


def parse_mixture(text: str) -> GaussianMixtureSpec:
    """One component per ';': '<label> <weight> <mean,comma,list> <cov,list>'."""
    comps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split()
        if len(fields) != 4:
            raise ValueError(f"bad mixture component {part!r} "
                             "(want: label weight mean cov)")
        comps.append(GaussianComponent(
            mean=np.array([float(v) for v in fields[2].split(",")]),
            cov_diag=np.array([float(v) for v in fields[3].split(",")]),
            label=int(fields[0]), weight=_number(fields[1])))
    if not comps:
        raise ValueError("empty mixture")
    total = sum(c.weight for c in comps)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"mixture weights sum to {total}, not 1")
    return GaussianMixtureSpec(tuple(replace(c, weight=c.weight / total) for c in comps))


# Every config key: its default text and the parser that turns the text into
# a typed value, raising ValueError on bad text or an out-of-range value.
# Ranges that a constructor already checks are left to it: `_train_config`
# builds the LossSpec and TrainConfig (which checks the hidden layers).
KEYS: dict[str, tuple[str, Callable[[str], Any]]] = {
    "seed": ("0", int),
    "out": ("", str),
    "data": ("", str),
    "model": ("", str),
    "mixture": (DEFAULT_MIXTURE, parse_mixture),
    "m": ("500", _int_at_least(1)),
    "n": ("2000", _int_at_least(1)),
    "n_test": ("2000", _int_at_least(0)),
    "objective": ("vpu", str),
    "reg": ("msle_mixup_pu", str),
    "lambda": ("0.3", _number),
    "alpha": ("0.3", _number),
    "pi_p": ("auto", _prior),
    "batch_size": ("500", int),
    "epochs": ("50", int),
    "learning_rate": ("3e-4", _number),
    "adam_beta1": ("0.5", _number),
    "adam_beta2": ("0.99", _number),
    "adam_epsilon": ("1e-8", _number),
    "early_stop": ("val_lvar", str),
    "val_fraction": ("1/6", lambda text: check_fraction(_number(text))),
    "hidden": ("64,64", _list(int)),
    "activation": ("relu", str),
    "lambda_grid": ("1e-4,3e-4,1e-3,3e-3,1e-2,3e-2,0.1,0.3,1,3", _lambda_grid),
    "trials": ("1000", _int_at_least(1)),
    "ratios": ("1,2,4,10", _list(_int_at_least(1))),
    "bias_total": ("600", _int_at_least(1)),
}

# Defaults that differ for one command, and the keys a command cannot run
# without.
COMMAND_DEFAULTS = {"bias-exp": {"mixture": BIAS_MIXTURE}}
REQUIRED = {"generate": ("out",), "train": ("data", "out"), "sweep": ("data", "out"),
            "eval": ("model", "data"), "bias-exp": ("out",)}


@dataclass(frozen=True)
class Config:
    """A command's resolved configuration: `text` is what config.resolved
    echoes, `values` the parsed value of every key, and `train` the
    training config built from them."""

    text: dict[str, str]
    values: dict[str, Any]
    train: TrainConfig

    def __getitem__(self, key: str) -> Any:
        return self.values[key]


def read_config_file(path: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
                key, value = (s.strip() for s in line.split("=", 1))
                if key not in KEYS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                entries[key] = value
    except UnicodeDecodeError as exc:  # its position counts bytes, not lines
        raise ConfigError(f"{path}: {exc}") from None
    return entries


def _train_config(values: dict[str, Any]) -> TrainConfig:
    """The training config, checked by its constructors."""
    return TrainConfig(
        loss_spec=LossSpec(objective=values["objective"], reg_variant=values["reg"],
                           lam=values["lambda"], alpha=values["alpha"],
                           pi_p=values["pi_p"]),
        batch_size=values["batch_size"],
        epochs=values["epochs"],
        learning_rate=values["learning_rate"],
        adam_beta1=values["adam_beta1"],
        adam_beta2=values["adam_beta2"],
        adam_epsilon=values["adam_epsilon"],
        seed=values["seed"],
        early_stop_metric=values["early_stop"],
        hidden_widths=values["hidden"],
        activation=values["activation"],
    )


def resolve_config(args: argparse.Namespace) -> Config:
    """Defaults, then the config file, then flags; every key is parsed and
    checked here, before the command does any work."""
    text = {key: default for key, (default, _) in KEYS.items()}
    text.update(COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        text.update(read_config_file(args.config))
    for key in KEYS:
        flag_value = getattr(args, f"key_{key}")
        if flag_value is not None:
            text[key] = flag_value
    for key in REQUIRED.get(args.command, ()):
        if not text[key]:
            raise ConfigError(f"missing required key '{key}' (pass --{key})")
    values = {}
    for key, (_, parse) in KEYS.items():
        try:
            values[key] = parse(text[key])
        except ValueError as exc:
            raise ConfigError(f"key '{key}': {exc}") from None
    return Config(text, values, _train_config(values))


def _write(out_dir: str, name: str, text: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        fh.write(text)


def _load_data(cfg: Config) -> PuDataset:
    data = load_csv(cfg["data"])
    if data.test_y is not None and data.test_y.min() == data.test_y.max():
        # the test AUC is reported after training or scoring: fail before either
        raise ConfigError(f"{cfg['data']}: the T rows hold one class; "
                          "AUC needs both classes present")
    return data


def _load_training_data(cfg: Config) -> PuDataset:
    data = _load_data(cfg)
    if cfg.train.early_stop_metric == "val_lvar" and not data.has_validation():
        data = split_validation(data, cfg["val_fraction"], cfg["seed"])
    return data


def _write_metrics(report_dir: str, rep: mt.MetricsReport) -> None:
    _write(report_dir, "metrics.txt", rep.as_text() + "\n")
    _write(report_dir, "metrics.csv",
           mt.MetricsReport.CSV_HEADER + "\n" + rep.as_csv_row() + "\n")


def _write_trained(out: str, report: TrainReport,
                   data: PuDataset) -> mt.MetricsReport | None:
    """history.csv and model.txt, then metrics.{txt,csv} on the test rows;
    returns those metrics, or None when the data has no test rows."""
    _write(out, "history.csv", report.history_csv())
    md.save_model(report.final_model, os.path.join(out, "model.txt"))
    if data.test_x is None:
        return None
    rep = mt.report(report.final_model, data.test_x, data.test_y)
    _write_metrics(out, rep)
    return rep


def cmd_generate(cfg: Config) -> int:
    out = cfg["out"]
    data = generate(cfg["mixture"], m=cfg["m"], n=cfg["n"], n_test=cfg["n_test"],
                    seed=cfg["seed"])
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "dataset.csv")
    write_csv(data, path)
    print(f"generated {path}: M={data.m} N={data.n} "
          f"test={0 if data.test_x is None else len(data.test_x)} "
          f"dim={data.dim} pi_p={cfg['mixture'].pi_p:g}")
    return 0


def cmd_train(cfg: Config) -> int:
    out = cfg["out"]
    data = _load_training_data(cfg)
    report = train(cfg.train, data)
    rep = _write_trained(out, report, data)
    line = f"trained {cfg['objective']}: best_epoch={report.best_epoch}"
    best = report.history[report.best_epoch]
    if not math.isnan(best.val_lvar):
        line += f" val_lvar={best.val_lvar:.6g}"
    if rep is not None:
        line += f" test_acc={rep.accuracy:.4f} auc={rep.auc:.4f}"
    print(line)
    print(f"model -> {os.path.join(out, 'model.txt')}")
    return 0


def cmd_sweep(cfg: Config) -> int:
    out = cfg["out"]
    data = _load_training_data(cfg)
    report, cells = sweep_lambda(cfg.train, cfg["lambda_grid"], data)
    _write_trained(out, report, data)
    _write(out, "sweep.csv", sweep_csv(cells))
    best = next(cell for cell in cells if cell.best)
    print(f"swept {len(cells)} cells: best lambda={best.lam:g}")
    print(f"table -> {os.path.join(out, 'sweep.csv')}")
    return 0


def cmd_eval(cfg: Config) -> int:
    model = md.load_model(cfg["model"])
    data = _load_data(cfg)
    if data.test_x is None:
        raise ConfigError(f"{cfg['data']}: dataset has no labeled test rows")
    if model.arch.input_dim != data.dim:
        raise ConfigError(f"model {cfg['model']} takes {model.arch.input_dim} features, "
                          f"but dataset {cfg['data']} has {data.dim}")
    rep = mt.report(model, data.test_x, data.test_y)
    print(rep.as_text())
    if cfg["out"]:
        _write_metrics(cfg["out"], rep)
    return 0


def cmd_oracle_check(cfg: Config) -> int:
    seed = cfg["seed"]
    results = oracle.run_property_suites(trials=cfg["trials"], seed=seed)
    width = max(len(r.name) for r in results)
    lines = [f"{'suite':<{width}}  {'trials':>7}  {'failures':>8}  worst_residual"]
    for r in results:
        lines.append(f"{r.name:<{width}}  {r.trials:>7}  {r.failures:>8}  "
                     f"{r.worst_residual:>14.3e}")
    table = "\n".join(lines)
    print(table)
    failed = [r for r in results if not r.passed]
    if failed:
        for r in failed:
            print(f"FAILED {r.name}: worst trial {r.worst_trial} "
                  f"(rerun with seed {seed + r.worst_trial})")
            print(f"  {r.worst_detail}")
    else:
        print("all suites passed")
    if cfg["out"]:
        _write(cfg["out"], "oracle_report.txt", table + "\n")
    return 1 if failed else 0


def _bias_counts(total: int, ratio: int, n_subclasses: int) -> list[int]:
    """First subclass is over-sampled `ratio`-fold; the rest share evenly."""
    n_small = int(round(total / (ratio + n_subclasses - 1)))
    n_big = total - (n_subclasses - 1) * n_small
    return [n_big] + [n_small] * (n_subclasses - 1)


def cmd_bias_experiment(cfg: Config) -> int:
    out = cfg["out"]
    spec = cfg["mixture"]
    pos = spec.positive_components()
    if len(pos) < 2:
        raise ConfigError("key 'mixture': bias experiment needs >= 2 positive subcomponents")
    if len(pos) == len(spec.components) or not spec.pi_p < 1.0:
        raise ConfigError("key 'mixture': bias experiment needs a negative component "
                          "(its nnpu baseline needs pi_p < 1)")
    if cfg["n_test"] < 1:
        raise ConfigError("key 'n_test': bias experiment needs >= 1 test row")
    ratios = cfg["ratios"]
    total = cfg["bias_total"]
    all_counts = [_bias_counts(total, ratio, len(pos)) for ratio in ratios]
    for ratio, counts in zip(ratios, all_counts):
        if any(c < 1 or c > total for c in counts):
            raise ConfigError(f"ratio {ratio} leaves an empty subclass at "
                              f"bias_total={total}")
    seed = cfg["seed"]
    rng = Rng(seed)

    single = [GaussianMixtureSpec((replace(c, weight=1.0),)) for c in pos]
    pools = [sample_class_conditional(s, 1, total, rng) for s in single]
    unlabeled, _ = sample_joint(spec, cfg["n"], rng)
    test_x, test_y = sample_joint(spec, cfg["n_test"], rng)

    subclass_weights = np.array([c.weight for c in pos])
    subclass_weights = subclass_weights / subclass_weights.sum()

    rows = ["ratio,method,accuracy"]
    bound_rows = ["ratio,c1,c2,epsilon,bound"]
    for i, (ratio, counts) in enumerate(zip(ratios, all_counts)):
        biased_p = inject_selection_bias(pools, counts)
        base = PuDataset(positive=biased_p, unlabeled=unlabeled, test_x=test_x, test_y=test_y)
        data = split_validation(base, cfg["val_fraction"], seed + 1000 + i)
        for j, objective in enumerate(("vpu", "nnpu")):
            loss_spec = replace(cfg.train.loss_spec, objective=objective,
                                pi_p=spec.pi_p if objective == "nnpu" else None)
            config = replace(cfg.train, loss_spec=loss_spec, seed=seed + 2 * i + j)
            report = train(config, data)
            rows.append(f"{ratio},{objective},{report.test_acc:.17g}")
        fractions = np.array(counts, dtype=np.float64) / sum(counts)
        env = fractions / subclass_weights
        eps = 1.0 - float(np.max(true_posterior(spec, data.all_inputs())))
        bound = oracle.bias_bound(float(env.min()), float(env.max()), eps)
        bound_rows.append(f"{ratio},{env.min():.17g},{env.max():.17g},"
                          f"{eps:.17g},{bound:.17g}")

    _write(out, "bias.csv", "\n".join(rows) + "\n")
    _write(out, "bias_bounds.csv", "\n".join(bound_rows) + "\n")
    print(f"bias experiment: {len(ratios)} ratios x 2 methods "
          f"-> {os.path.join(out, 'bias.csv')}")
    return 0


HANDLERS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "eval": cmd_eval,
    "oracle-check": cmd_oracle_check,
    "bias-exp": cmd_bias_experiment,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; only `command` (when one is named) gets
    its flags, since the parser reads the flags of the invoked command only
    and adding one flag per key to every command is most of the build."""
    parser = argparse.ArgumentParser(
        prog="vpu",
        description="Variational positive-unlabeled learning toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in HANDLERS:
        p = sub.add_parser(name)
        if name != command:
            continue
        p.add_argument("--config", help="flat key = value configuration file")
        for key in KEYS:
            p.add_argument(f"--{key}", dest=f"key_{key}", default=None)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        cfg = resolve_config(args)
        with one_blas_thread():  # so no output depends on the BLAS thread count
            code = HANDLERS[args.command](cfg)
        if cfg["out"]:
            _write(cfg["out"], "config.resolved",
                   "".join(f"{key} = {cfg.text[key]}\n" for key in sorted(cfg.text)))
        return code
    except (ValueError, OSError) as exc:
        # a bad config value, a missing or malformed input file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # an input too large for this machine
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 2
    except (TrainingDiverged, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

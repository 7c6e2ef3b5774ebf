"""Command-line entry point.

Subcommands: generate, train, sweep, eval, oracle-check, bias-exp.
Configuration comes from a flat ``key = value`` file (``#`` comments) plus
one command-line flag per key; flags override the file, which overrides the
defaults.  Unknown keys are rejected.  Every run that writes artifacts also
echoes its effective configuration to ``<out>/config.resolved``, and
re-running from that file reproduces the outputs bit for bit.

Exit codes: 0 success, 1 property-suite failure, 2 usage/config error,
3 numeric failure during training.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace

import numpy as np

from . import metrics as mt
from . import model as md
from . import oracle
from .autodiff import NumericError
from .data import (GaussianComponent, GaussianMixtureSpec, PuDataset, generate,
                   inject_selection_bias, load_csv, sample_class_conditional,
                   sample_joint, split_validation, true_posterior, write_csv)
from .losses import LossSpec
from .sampling import Rng
from .trainer import TrainConfig, TrainingDiverged, sweep_lambda, train


class ConfigError(Exception):
    pass


DEFAULT_MIXTURE = "+1 0.5 2,0 1,1; -1 0.5 -2,0 1,1"
BIAS_MIXTURE = ("+1 1/6 -2,3 1,1; +1 1/6 -2,0 1,1; +1 1/6 -2,-3 1,1; "
                "-1 0.5 2,0 1,1")

DEFAULTS: dict[str, str] = {
    "seed": "0",
    "out": "",
    "data": "",
    "model": "",
    "mixture": DEFAULT_MIXTURE,
    "m": "500",
    "n": "2000",
    "n_test": "2000",
    "objective": "vpu",
    "reg": "msle_mixup_pu",
    "lambda": "0.3",
    "alpha": "0.3",
    "pi_p": "auto",
    "batch_size": "500",
    "epochs": "50",
    "learning_rate": "3e-4",
    "adam_beta1": "0.5",
    "adam_beta2": "0.99",
    "adam_epsilon": "1e-8",
    "early_stop": "val_lvar",
    "val_fraction": "1/6",
    "hidden": "64,64",
    "activation": "relu",
    "lambda_grid": "1e-4,3e-4,1e-3,3e-3,1e-2,3e-2,0.1,0.3,1,3",
    "trials": "1000",
    "ratios": "1,2,4,10",
    "bias_total": "600",
}

COMMANDS = ("generate", "train", "sweep", "eval", "oracle-check", "bias-exp")


def _parse_number(text: str) -> float:
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        return float(num) / float(den)
    return float(text)


def cfg_int(cfg, key) -> int:
    try:
        return int(cfg[key])
    except ValueError:
        raise ConfigError(f"key '{key}' must be an integer, got {cfg[key]!r}") from None


def cfg_float(cfg, key) -> float:
    try:
        return _parse_number(cfg[key])
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"key '{key}' must be a number, got {cfg[key]!r}") from None


def cfg_float_list(cfg, key) -> list[float]:
    try:
        return [_parse_number(v) for v in cfg[key].split(",") if v.strip()]
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"key '{key}' must be a comma list of numbers") from None


def cfg_int_list(cfg, key) -> list[int]:
    try:
        return [int(v) for v in cfg[key].split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"key '{key}' must be a comma list of integers") from None


def cfg_require(cfg, key) -> str:
    if not cfg[key]:
        raise ConfigError(f"missing required key '{key}' (pass --{key})")
    return cfg[key]


def parse_mixture(text: str) -> GaussianMixtureSpec:
    """One component per ';': '<label> <weight> <mean,comma,list> <cov,list>'."""
    comps = []
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        fields = part.split()
        if len(fields) != 4:
            raise ConfigError(f"bad mixture component {part!r} "
                              "(want: label weight mean cov)")
        try:
            label = int(fields[0])
            weight = _parse_number(fields[1])
            mean = [float(v) for v in fields[2].split(",")]
            cov = [float(v) for v in fields[3].split(",")]
        except (ValueError, ZeroDivisionError):
            raise ConfigError(f"bad numbers in mixture component {part!r}") from None
        comps.append(GaussianComponent(np.array(mean), np.array(cov), label, weight))
    if not comps:
        raise ConfigError("empty mixture")
    total = sum(c.weight for c in comps)
    if abs(total - 1.0) > 1e-9:
        raise ConfigError(f"mixture weights sum to {total}, not 1")
    comps = [replace(c, weight=c.weight / total) for c in comps]
    try:
        return GaussianMixtureSpec(tuple(comps))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def read_config_file(path: str) -> dict[str, str]:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    entries: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            entries[key] = value
    return entries


def resolve_config(args: argparse.Namespace) -> tuple[dict[str, str], set[str]]:
    cfg = dict(DEFAULTS)
    provided: set[str] = set()
    if args.config:
        for key, value in read_config_file(args.config).items():
            cfg[key] = value
            provided.add(key)
    for key in DEFAULTS:
        flag_value = getattr(args, f"key_{key}")
        if flag_value is not None:
            cfg[key] = flag_value
            provided.add(key)
    return cfg, provided


def write_resolved(cfg: dict[str, str], out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    lines = [f"{key} = {cfg[key]}" for key in sorted(cfg)]
    with open(os.path.join(out_dir, "config.resolved"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _loss_spec(cfg, dataset_pi: float | None) -> LossSpec:
    objective = cfg["objective"]
    pi_p = None
    if objective in ("upu", "nnpu"):
        if cfg["pi_p"] == "auto":
            if dataset_pi is None:
                raise ConfigError("baseline objectives need pi_p: the dataset "
                                  "carries none, pass --pi_p explicitly")
            pi_p = float(dataset_pi)
        else:
            pi_p = cfg_float(cfg, "pi_p")
    try:
        return LossSpec(objective=objective, reg_variant=cfg["reg"],
                        lam=cfg_float(cfg, "lambda"),
                        alpha=cfg_float(cfg, "alpha"), pi_p=pi_p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _train_config(cfg, dataset_pi: float | None) -> TrainConfig:
    try:
        return TrainConfig(
            loss_spec=_loss_spec(cfg, dataset_pi),
            batch_size=cfg_int(cfg, "batch_size"),
            epochs=cfg_int(cfg, "epochs"),
            learning_rate=cfg_float(cfg, "learning_rate"),
            adam_beta1=cfg_float(cfg, "adam_beta1"),
            adam_beta2=cfg_float(cfg, "adam_beta2"),
            adam_epsilon=cfg_float(cfg, "adam_epsilon"),
            seed=cfg_int(cfg, "seed"),
            early_stop_metric=cfg["early_stop"],
            hidden_widths=tuple(cfg_int_list(cfg, "hidden")),
            activation=cfg["activation"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _load_training_data(cfg) -> PuDataset:
    path = cfg_require(cfg, "data")
    if not os.path.exists(path):
        raise ConfigError(f"dataset not found: {path}")
    try:
        data = load_csv(path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if cfg["early_stop"] == "val_lvar" and not data.has_validation():
        data = split_validation(data, cfg_float(cfg, "val_fraction"),
                                cfg_int(cfg, "seed"))
    return data


def _write_metrics(report_dir: str, rep: mt.MetricsReport) -> None:
    with open(os.path.join(report_dir, "metrics.txt"), "w", encoding="utf-8") as fh:
        fh.write(rep.as_text() + "\n")
    with open(os.path.join(report_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(mt.MetricsReport.CSV_HEADER + "\n" + rep.as_csv_row() + "\n")


def cmd_generate(cfg, provided) -> int:
    out = cfg_require(cfg, "out")
    spec = parse_mixture(cfg["mixture"])
    data = generate(spec, m=cfg_int(cfg, "m"), n=cfg_int(cfg, "n"),
                    n_test=cfg_int(cfg, "n_test"), seed=cfg_int(cfg, "seed"))
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "dataset.csv")
    write_csv(data, path)
    write_resolved(cfg, out)
    print(f"generated {path}: M={data.m} N={data.n} "
          f"test={0 if data.test_x is None else len(data.test_x)} "
          f"dim={data.dim} pi_p={data.pi_p:g}")
    return 0


def cmd_train(cfg, provided) -> int:
    out = cfg_require(cfg, "out")
    data = _load_training_data(cfg)
    config = _train_config(cfg, data.pi_p)
    report = train(config, data)
    os.makedirs(out, exist_ok=True)
    md.save_model(report.final_model, os.path.join(out, "model.txt"))
    with open(os.path.join(out, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.history_csv())
    line = f"trained {cfg['objective']}: best_epoch={report.best_epoch}"
    best = report.history[report.best_epoch]
    if not math.isnan(best.val_lvar):
        line += f" val_lvar={best.val_lvar:.6g}"
    if data.test_x is not None:
        rep = mt.report(report.final_model, data.test_x, data.test_y)
        _write_metrics(out, rep)
        line += f" test_acc={rep.accuracy:.4f} auc={rep.auc:.4f}"
    write_resolved(cfg, out)
    print(line)
    print(f"model -> {os.path.join(out, 'model.txt')}")
    return 0


def cmd_sweep(cfg, provided) -> int:
    out = cfg_require(cfg, "out")
    data = _load_training_data(cfg)
    config = _train_config(cfg, data.pi_p)
    grid = cfg_float_list(cfg, "lambda_grid")
    if not grid:
        raise ConfigError("lambda_grid is empty")
    report, cells = sweep_lambda(config, grid, data)
    os.makedirs(out, exist_ok=True)

    def cell_text(v):
        return "" if math.isnan(v) else f"{v:.17g}"

    lines = ["lambda,val_lvar,test_acc,best"]
    for cell in cells:
        marker = "*" if cell.best else ""
        lines.append(f"{cell.lam!r},{cell_text(cell.val_lvar)},"
                     f"{cell_text(cell.test_acc)},{marker}")
    with open(os.path.join(out, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    md.save_model(report.final_model, os.path.join(out, "model.txt"))
    with open(os.path.join(out, "history.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.history_csv())
    if data.test_x is not None:
        _write_metrics(out, mt.report(report.final_model, data.test_x, data.test_y))
    write_resolved(cfg, out)
    print(f"swept {len(grid)} cells: best lambda={report.selected_lambda:g}")
    print(f"table -> {os.path.join(out, 'sweep.csv')}")
    return 0


def cmd_eval(cfg, provided) -> int:
    model_path = cfg_require(cfg, "model")
    data_path = cfg_require(cfg, "data")
    if not os.path.exists(model_path):
        raise ConfigError(f"model not found: {model_path}")
    try:
        model = md.load_model(model_path)
        data = load_csv(data_path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if data.test_x is None:
        raise ConfigError("dataset has no labeled test rows")
    rep = mt.report(model, data.test_x, data.test_y)
    print(rep.as_text())
    if cfg["out"]:
        os.makedirs(cfg["out"], exist_ok=True)
        _write_metrics(cfg["out"], rep)
        write_resolved(cfg, cfg["out"])
    return 0


def cmd_oracle_check(cfg, provided) -> int:
    trials = cfg_int(cfg, "trials")
    seed = cfg_int(cfg, "seed")
    results = oracle.run_property_suites(trials=trials, seed=seed)
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
        os.makedirs(cfg["out"], exist_ok=True)
        with open(os.path.join(cfg["out"], "oracle_report.txt"), "w",
                  encoding="utf-8") as fh:
            fh.write(table + "\n")
        write_resolved(cfg, cfg["out"])
    return 1 if failed else 0


def _bias_counts(total: int, ratio: int, n_subclasses: int) -> list[int]:
    """First subclass is over-sampled `ratio`-fold; the rest share evenly."""
    n_small = int(round(total / (ratio + n_subclasses - 1)))
    n_big = total - (n_subclasses - 1) * n_small
    return [n_big] + [n_small] * (n_subclasses - 1)


def cmd_bias_experiment(cfg, provided) -> int:
    out = cfg_require(cfg, "out")
    mixture_text = cfg["mixture"] if "mixture" in provided else BIAS_MIXTURE
    spec = parse_mixture(mixture_text)
    pos = spec.positive_components()
    if len(pos) < 2:
        raise ConfigError("bias experiment needs >= 2 positive subcomponents")
    ratios = cfg_int_list(cfg, "ratios")
    total = cfg_int(cfg, "bias_total")
    seed = cfg_int(cfg, "seed")
    rng = Rng(seed)

    single = [GaussianMixtureSpec((replace(c, weight=1.0),)) for c in pos]
    pools = [sample_class_conditional(s, 1, total, rng) for s in single]
    unlabeled, _ = sample_joint(spec, cfg_int(cfg, "n"), rng)
    test_x, test_y = sample_joint(spec, cfg_int(cfg, "n_test"), rng)

    subclass_weights = np.array([c.weight for c in pos])
    subclass_weights = subclass_weights / subclass_weights.sum()

    rows = ["ratio,method,accuracy"]
    bound_rows = ["ratio,c1,c2,epsilon,bound"]
    for i, ratio in enumerate(ratios):
        counts = _bias_counts(total, ratio, len(pos))
        if any(c < 1 or c > total for c in counts):
            raise ConfigError(f"ratio {ratio} leaves an empty subclass at "
                              f"bias_total={total}")
        biased_p = inject_selection_bias(pools, counts)
        base = PuDataset(positive=biased_p, unlabeled=unlabeled,
                         test_x=test_x, test_y=test_y, pi_p=spec.pi_p)
        data = split_validation(base, cfg_float(cfg, "val_fraction"),
                                seed + 1000 + i)
        for j, objective in enumerate(("vpu", "nnpu")):
            run_cfg = dict(cfg)
            run_cfg["objective"] = objective
            if objective == "nnpu":
                run_cfg["pi_p"] = f"{spec.pi_p:.17g}"
            run_cfg["seed"] = str(seed + 2 * i + j)
            config = _train_config(run_cfg, spec.pi_p)
            report = train(config, data)
            acc = mt.accuracy(report.final_model, test_x, test_y)
            rows.append(f"{ratio},{objective},{acc:.17g}")
        fractions = np.array(counts, dtype=np.float64) / sum(counts)
        env = fractions / subclass_weights
        eps = 1.0 - float(np.max(true_posterior(spec, data.all_inputs())))
        bound = oracle.bias_bound(float(env.min()), float(env.max()), eps)
        bound_rows.append(f"{ratio},{env.min():.17g},{env.max():.17g},"
                          f"{eps:.17g},{bound:.17g}")

    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "bias.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(out, "bias_bounds.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(bound_rows) + "\n")
    write_resolved(cfg, out)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpu",
        description="Variational positive-unlabeled learning toolkit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="flat key = value configuration file")
        for key in DEFAULTS:
            p.add_argument(f"--{key}", dest=f"key_{key}", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, provided = resolve_config(args)
        return HANDLERS[args.command](cfg, provided)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TrainingDiverged, NumericError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

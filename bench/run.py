"""Benchmark for the vpu toolkit.

    python3 bench/run.py --workload train-default --seed 0 --seconds 30 --trace 0

Run from the root of a vpu checkout; the program is imported from its
``src/`` directory.  One process, one closed-loop client, BLAS pinned to one
thread.  A run sets the workload up, runs one untimed warm-up on tiny
inputs, then for ``--seconds`` repeats a round of set-ups and a timed iteration,
checking every output.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json,
medians over the set-ups and iterations of the run.  ``--trace 1`` wraps the
public functions of every vpu module in spans (see tracing.py) and reports
the per-layer metrics instead: the cost of one set-up plus one traced
iteration.  A per-layer metric whose spans were never traced counts as a
failed operation, unless the workload never runs that layer by design.

The last stdout line is the result:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it is
the full record of the run (environment, every sample, output sha256s,
errors, trace split); the record and the trace are also written under
``.bench_work/`` in the checkout.  Exit code 2 means the benchmark could not
start; it then prints no result.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported anywhere in this process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "test_acc": "fraction",
}

# Reported in the record only, as medians over the run.  Some exist on a
# few workloads only, failed_ratio is 0 and best_val_lvar negative, which a
# bound relative to the median cannot judge; the two row rates come from
# sub-second commands whose run-to-run spread on a shared host exceeds the
# largest bound the benchmark may set.
EXTRA_UNITS = {
    "train_steps_per_s": "steps/s",
    "generate_rows_per_s": "rows/s",
    "eval_rows_per_s": "rows/s",
    "oracle_trials_per_s": "trials/s",
    "best_val_lvar": "nats",
    "failed_ratio": "ratio",
}

SUITES = ("kl_identity", "kl_nonnegative", "scale_invariance", "minimizer_family",
          "bias_bound", "irreducibility", "l2_identity")

PER_LAYER_UNITS = {
    "autodiff.forward_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.tensors_per_step": "count",
    "model.logits_calls_per_step": "count",
    "model.logits_rows": "rows",
    "model.raw_values_s": "s",
    "model.raw_values_rows": "rows",
    "losses.total_loss_s": "s",
    "losses.mixup_reg_s": "s",
    "sampling.minibatch_s": "s",
    "sampling.beta_s": "s",
    "sampling.normals_s": "s",
    "sampling.draws": "count",
    "trainer.adam_s": "s",
    "trainer.eval_s": "s",
    "trainer.self_s": "s",
    "data.write_csv_s": "s",
    "data.load_csv_s": "s",
    "data.csv_bytes": "bytes",
    "data.generate_s": "s",
    "data.split_validation_s": "s",
    **{f"oracle.{suite}_s": "s" for suite in SUITES},
    "oracle.failures": "count",
    "metrics.report_s": "s",
    "metrics.accuracy_s": "s",
    "cli.self_s": "s",
}


def import_program():
    """Import vpu from this checkout's src/, never from site-packages."""
    if not os.path.isfile(os.path.join(SRC, "vpu", "__init__.py")):
        raise ImportError(f"no vpu package under {SRC}")
    sys.path.insert(0, SRC)
    import vpu

    if os.path.dirname(os.path.dirname(os.path.abspath(vpu.__file__))) != SRC:
        raise ImportError(f"vpu imported from {vpu.__file__}, not {SRC}")
    return vpu


def _loadavg() -> str | None:
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return None


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _blas() -> dict:
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "threads_env": BLAS_THREADS, "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    return out


def _git_sha() -> str | None:
    import subprocess

    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=30, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def _source_sha256() -> str:
    """Digest of src/vpu/*.py, which identifies the program where git cannot."""
    import hashlib

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "vpu")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def environment() -> dict:
    import platform

    import numpy as np

    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "cpu_model": _cpu_model(),
        "loadavg_start": _loadavg(),
    }


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _exact(value):
    """Counts repeat exactly; report them as integers when they are."""
    return int(value) if value is not None and float(value).is_integer() else value


def per_layer(summary) -> dict[str, float | None]:
    """Every per-layer metric; None where none of the spans it reads was traced."""
    inc, own, work, train = summary.inclusive, summary.self_time, summary.work, summary.train
    forward = [v for k, v in own.items()
               if k.startswith("autodiff.") and k != "autodiff.Tensor.backward"]
    csv = [work[k] for k in ("data.write_csv", "data.load_csv") if k in work]
    suites = [f"oracle.suite_{suite}" for suite in SUITES]
    steps = summary.steps
    return {
        "autodiff.forward_s": sum(forward) if forward else None,
        "autodiff.backward_s": inc.get("autodiff.Tensor.backward"),
        "autodiff.tensors_per_step": _exact(summary.step_tensors / steps) if steps else None,
        "model.logits_calls_per_step": _exact(summary.step_logits / steps) if steps else None,
        "model.logits_rows": _exact(work.get("model.ClassifierModel.logits")),
        "model.raw_values_s": inc.get("model.ClassifierModel.raw_values"),
        "model.raw_values_rows": _exact(work.get("model.ClassifierModel.raw_values")),
        "losses.total_loss_s": inc.get("losses.total_loss"),
        "losses.mixup_reg_s": inc.get("losses.mixup_consistency_reg"),
        "sampling.minibatch_s": inc.get("sampling.sample_minibatch"),
        "sampling.beta_s": inc.get("sampling.sample_beta"),
        "sampling.normals_s": inc.get("sampling.Rng.normals"),
        "sampling.draws": _exact(summary.draws),
        "trainer.adam_s": inc.get("trainer.adam_step"),
        "trainer.eval_s": train.get("eval_s"),
        "trainer.self_s": train.get("self_s"),
        "data.write_csv_s": inc.get("data.write_csv"),
        "data.load_csv_s": inc.get("data.load_csv"),
        "data.csv_bytes": _exact(sum(csv)) if csv else None,
        "data.generate_s": inc.get("data.generate"),
        "data.split_validation_s": inc.get("data.split_validation"),
        **{f"oracle.{suite}_s": inc.get(f"oracle.suite_{suite}") for suite in SUITES},
        "oracle.failures": _exact(sum(work[k] for k in suites))
        if all(k in work for k in suites) else None,
        "metrics.report_s": inc.get("metrics.report"),
        "metrics.accuracy_s": inc.get("metrics.accuracy"),
        "cli.self_s": summary.modules.get("cli"),
    }


def _median(samples: list[float]) -> float | None:
    return statistics.median(samples) if samples else None


# Spans a traced run may record per second of the run, with room to spare:
# the busiest workload, toolkit-io, records about 65 000.
SPANS_PER_SECOND = 100_000


def execute(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run: (result line, full record)."""
    from tracing import Summary, Tracer
    from workloads import Run, sha256

    run_id = f"{workload.name}-s{seed}-t{int(trace)}-{os.getpid()}-{time.time_ns()}"
    env = environment()
    workdir = os.path.join(WORK, "runs", run_id)
    os.makedirs(workdir)
    run = Run(workdir, seed)
    tracer = None
    if trace:
        tracer = Tracer(workload.name, run_id, capacity=SPANS_PER_SECOND * (int(seconds) + 30))

    def phase(kind, body):
        """Run one set-up or iteration, inside a root span when tracing."""
        if tracer is None:
            return body()
        with tracer:
            return tracer.root(kind, body)

    setups = 0

    def set_up():
        """One round of set-ups.  Its sample is the round's time per set-up:
        a round lasts about a second, long enough to average over the
        second-scale swings in host speed that a single set-up of 10 to
        100 ms lands in whole."""
        nonlocal setups
        total = 0.0
        for _ in range(workload.setups_per_round):
            seconds_k = phase("setup", lambda: workload.setup(run))
            total = None if seconds_k is None or total is None else total + seconds_k
            workload.check_setup(run, first=setups == 0)
            setups += 1
        if total is not None:
            run.samples["setup_s"].append(total / workload.setups_per_round)

    set_up()

    # An untimed, untraced warm-up on the workload's tiny inputs runs every
    # code path once.
    run.recording = False
    workload.tiny().iteration(run)
    run.recording = True
    # The next iteration starts only if it should end within --seconds,
    # judged by the median iteration so far, so no run overruns by a whole
    # iteration.
    bodies = []
    start = time.perf_counter()
    i = 0
    while i < 1 or time.perf_counter() - start + statistics.median(bodies) <= seconds:
        body_start = time.perf_counter()
        set_up()  # set-ups spread over the run, like the iterations
        wall = phase("iteration", lambda: workload.iteration(run))
        if wall is not None:
            run.samples["wall_s"].append(wall)
        workload.check_iteration(run, first=i == 0)
        bodies.append(time.perf_counter() - body_start)
        i += 1

    run.samples["peak_rss_mb"].append(_peak_rss_mb())
    outputs = {os.path.relpath(p, workdir): sha256(p) if os.path.exists(p) else None
               for p in workload.outputs(run)}
    record = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "run_id": run_id,
        "iterations": i,
        "setups": setups,
        "samples": dict(run.samples),
        "outputs_sha256": outputs,
        "errors": run.errors,
    }
    if tracer is None:
        metrics = {name: _median(run.samples.get(name, [])) for name in END_TO_END_UNITS}
        metrics["test_acc"] = run.values.get("test_acc")
        units = END_TO_END_UNITS
    else:
        summary = Summary(tracer)
        metrics = per_layer(summary)
        for name in workload.idle_layers:
            if metrics[name] is None:  # by design this workload never runs it
                metrics[name] = 0
        units = PER_LAYER_UNITS
        record["tracing"] = {
            # Traced iterations only: the tracing overhead is this over the
            # wall_s of an untraced run of the same seed (collect.py).
            "wall_s": _median(run.samples.get("wall_s", [])),
            "roots": summary.roots_per_kind,
            "spans": tracer.count,
            "module_self_s": summary.modules,
            "train_split": summary.train,
        }
        tracer.write(os.path.join(WORK, "traces", f"{run_id}.jsonl.gz"))
    missing = [name for name, value in metrics.items() if value is None]
    for name in missing:
        run.attempted += 1
        run.failed += 1
        run.errors.append(f"metric {name} was not measured")
        metrics[name] = 0
    record["environment"] = {**env, "loadavg_end": _loadavg()}
    extras = {name: _median(run.samples.get(name, [])) for name in EXTRA_UNITS}
    extras["best_val_lvar"] = run.values.get("best_val_lvar")
    extras["failed_ratio"] = run.failed / run.attempted
    record["extra_metrics"] = {name: {"value": value, "unit": EXTRA_UNITS[name]}
                               for name, value in extras.items() if value is not None}

    shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    return result, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
        from workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    result, record = execute(WORKLOADS[args.workload], args.seed, args.seconds,
                             bool(args.trace))
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", f"{record['run_id']}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"result": result, "record": record}, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

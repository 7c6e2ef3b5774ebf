"""Quick self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that BENCHMARK.json and the harness name the same workloads and
metrics with the same units; that a tiny run of each workload, untraced and
traced, prints every named metric with its unit and passes all its output
checks; that every per-layer metric is above 0 except those the workload
never runs by design, which read 0, and oracle.failures, which must be 0;
that counts are exact; that the traced trainer.train span is fully
accounted for by its own and its descendants' self times; and that the benchmark refuses to run,
printing no result, in a directory that holds only BENCHMARK.json and the
benchmark's own files.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run as bench

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def check_spec(spec: dict, workloads: dict) -> None:
    expect([w["name"] for w in spec["workloads"]] == list(workloads),
           "BENCHMARK.json names the harness's workloads")
    expect({m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END_UNITS,
           "BENCHMARK.json end_to_end metrics and units match the harness")
    expect({m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS,
           "BENCHMARK.json per_layer metrics and units match the harness")


def check_result(name: str, trace: bool, result: dict, record: dict, units: dict) -> None:
    label = f"{name} trace={int(trace)}"
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           f"{label}: result has exactly the four keys")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: output checks pass ({result['failed']}/{result['attempted']} failed"
           f"{'; ' + '; '.join(record['errors']) if record['errors'] else ''})")
    metrics = result["metrics"]
    expect({k: v["unit"] for k, v in metrics.items()} == units,
           f"{label}: every named metric is printed with its unit")
    values = [v["value"] for v in metrics.values()]
    expect(all(isinstance(v, (int, float)) for v in values), f"{label}: every value is a number")
    if not trace:
        expect(all(v > 0 for v in values), f"{label}: every end-to-end value is above 0")
    json.loads(json.dumps(result))  # must survive a JSON round trip


def check_trace(name: str, idle: frozenset, result: dict, record: dict) -> None:
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    expect(all(metrics[k] == 0 for k in idle), f"{name}: every idle layer reads 0")
    zero = [k for k, v in metrics.items() if k not in idle and k != "oracle.failures" and v <= 0]
    expect(not zero, f"{name}: every other per-layer metric is above 0 ({', '.join(zero)})")
    expect(metrics["oracle.failures"] == 0, f"{name}: oracle.failures is 0")
    counts = [k for k, unit in bench.PER_LAYER_UNITS.items() if unit != "s"]
    expect(all(isinstance(metrics[k], int) for k in counts),
           f"{name}: every count is an exact integer")
    if name.startswith("train"):
        split = record["tracing"]["train_split"]
        expect(abs(split["accounted"] - 1.0) < 1e-9,
               f"{name}: self times account for trainer.train ({split['accounted']!r})")
        expect(metrics["model.logits_calls_per_step"] == 4,
               f"{name}: 4 logits calls per step ({metrics['model.logits_calls_per_step']})")


def check_lone_copy() -> None:
    """The benchmark must fail, without a result, when the program is absent."""
    lone = os.path.join(bench.WORK, "selftest-lone")
    shutil.rmtree(lone, ignore_errors=True)
    shutil.copytree(bench.HERE, os.path.join(lone, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), lone)
    try:
        done = subprocess.run([sys.executable, "bench/run.py", "--workload", "toolkit-io",
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=lone, capture_output=True, text=True, timeout=180,
                              check=False)
    finally:
        shutil.rmtree(lone, ignore_errors=True)
    expect(done.returncode != 0 and '"correct"' not in done.stdout,
           f"without src/ the benchmark exits {done.returncode} and prints no result")


def main() -> int:
    bench.import_program()
    from workloads import WORKLOADS

    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    check_spec(spec, WORKLOADS)
    for name, workload in WORKLOADS.items():
        for trace in (False, True):
            result, record = bench.execute(workload.tiny(), seed=0, seconds=0.01, trace=trace)
            units = bench.PER_LAYER_UNITS if trace else bench.END_TO_END_UNITS
            check_result(name, trace, result, record, units)
            if trace:
                check_trace(name, workload.idle_layers, result, record)
    check_lone_copy()
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py [--seeds 0-9] [--trace] [--out bench/points/<name>.json]

Runs ``bench/run.py`` once per workload of BENCHMARK.json and seed, one run
at a time, from the checkout root, for BENCHMARK.json's ``run_seconds``.
For every end-to-end metric it prints the median, the unit, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median,
and marks a spread at or above a third of the metric's bound in
BENCHMARK.json; it also prints the median of each metric kept in the run
records only.  The exit code is 1 when a spread is marked.  With
``--trace`` it adds, per workload on the first seed, four runs back to
back, traced, untraced, untraced and traced; it prints the first traced
run's per-layer metrics and the tracing overhead, the traced runs'
``wall_s`` (median traced iteration time) over the untraced runs'.
``--out`` writes every run's result and record to a JSON point file, which
is how measured points are committed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600,
                          check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {done.returncode}: {done.stderr[-2000:]}")
    return {"result": json.loads(lines[-1]), "record": json.loads(lines[-2])}


def spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return median, q1, q3, (q3 - q1) / abs(median) if median else float("inf")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)

    point = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    steady = True
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(bench_once(name, seed, seconds, 0))
            res = runs[-1]["result"]
            print(f"{name} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
        summary = {}
        for metric, bound in bounds.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            median, q1, q3, rel = spread(values)
            flag = "" if rel < bound / 3 else "  <-- spread >= bound/3"
            if flag:
                steady = False
            summary[metric] = {"median": median, "q1": q1, "q3": q3, "spread": rel,
                               "bound": bound, "unit": units[metric]}
            print(f"{name:15s} {metric:20s} median={median:<12.6g} {units[metric]:9s} "
                  f"q1={q1:<12.6g} q3={q3:<12.6g} spread={rel:.4f} (bound {bound}){flag}")
        extras = {}
        for metric in runs[0]["record"]["extra_metrics"]:
            values = [r["record"]["extra_metrics"][metric]["value"] for r in runs]
            unit = runs[0]["record"]["extra_metrics"][metric]["unit"]
            extras[metric] = {"median": statistics.median(values), "unit": unit}
            print(f"{name:15s} {metric:20s} median={extras[metric]['median']:<12.6g} {unit}"
                  "  (record only)")
        entry = {"end_to_end": summary, "record_metrics": extras, "runs": runs}
        if args.trace:
            # Traced, untraced, untraced, traced on the first seed, back to
            # back: the order cancels a host speed that drifts steadily
            # over the four runs.
            order = (1, 0, 0, 1)
            pair = [bench_once(name, seeds[0], seconds, trace) for trace in order]
            walls = {0: [], 1: []}
            for trace, done in zip(order, pair):
                walls[trace].append(done["record"]["tracing"]["wall_s"] if trace
                                    else done["result"]["metrics"]["wall_s"]["value"])
            entry["traced"] = pair[0]
            entry["tracing_overhead"] = {"traced_wall_s": walls[1], "untraced_wall_s": walls[0],
                                         "ratio": sum(walls[1]) / sum(walls[0])}
            layers = pair[0]["result"]["metrics"]
            accounted = pair[0]["record"]["tracing"]["train_split"].get("accounted")
            print(f"{name} traced: wall_s={walls[1]} s, untraced wall_s={walls[0]} s, "
                  f"overhead={entry['tracing_overhead']['ratio']:.3f}, "
                  f"trainer.train accounted={accounted}")
            for metric, value in layers.items():
                print(f"  {metric:32s} {value['value']:<14.6g} {value['unit']}")
        point["workloads"][name] = entry
    if args.out:
        point["environment"] = runs[0]["record"]["environment"]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(point, fh, indent=1)
            fh.write("\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

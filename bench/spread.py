#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

Run from the repository root:

    python3 bench/spread.py --workloads desk-wva-step ten-task-ewc desk-grid \
        --seeds 1 2 3 4 5 6 7 8 9 10 [--baseline bench/baseline.json]

Each (workload, seed) pair is one ``bench/run.py`` process, run one at a
time. For every end-to-end metric in ``BENCHMARK.json`` it prints the
median, the quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile range as a share of the median, against the metric's
bound. With ``--baseline`` it also runs one traced run per workload at
the default seed, plus untraced runs at the default and the held-out
seed, and writes all of it, with the environment stamp, to that file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import DEFAULT_SEED, HELD_OUT_SEED

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    """(result, stamp) of one benchmark process; raises if it fails."""
    command = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    started = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    if done.returncode != 0:
        raise RuntimeError(f"{command} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result, stamp = json.loads(lines[-1]), json.loads(lines[-2])
    expected = {m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    if set(result["metrics"]) != expected:
        raise RuntimeError(f"metrics {sorted(result['metrics'])} != {sorted(expected)}")
    stamp["process_s"] = elapsed
    return result, stamp


def summary(values: list[float]) -> dict:
    # quantiles needs two points; a single run has no spread
    q1, median, q3 = statistics.quantiles(values if len(values) > 1 else values * 2, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--baseline", type=Path)
    args = parser.parse_args()

    report, stamp, ok = {}, None, True
    for workload in args.workloads:
        values = {m["name"]: [] for m in SPEC["end_to_end"]}
        failures, process_s = 0, []
        for seed in args.seeds:
            result, stamp = run(workload, seed, trace=0)
            failures += result["failed"] + (not result["correct"])
            process_s.append(stamp["process_s"])
            for name, metric in result["metrics"].items():
                values[name].append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v[-1]:.4f}" for k, v in values.items()), flush=True)
        entry = {"failures": failures, "process_s_max": max(process_s), "metrics": {}}
        for metric in SPEC["end_to_end"]:
            stats = summary(values[metric["name"]])
            entry["metrics"][metric["name"]] = stats
            limit = metric["bound"] if metric["name"] == "setup_s" else metric["bound"] / 3
            flag = "ok" if stats["spread"] < limit else "TOO WIDE"
            ok &= metric["name"] == "setup_s" or stats["spread"] < limit
            print(f"  {workload} {metric['name']}: median {stats['median']:.5g} "
                  f"{metric['unit']}, IQR/median {stats['spread']:.4f} "
                  f"(bound {metric['bound']}) {flag}", flush=True)
        print(f"  {workload}: {failures} failures, slowest process "
              f"{entry['process_s_max']:.1f} s", flush=True)
        ok &= failures == 0
        report[workload] = entry

    if args.baseline:
        for workload in args.workloads:
            for seed in (DEFAULT_SEED, HELD_OUT_SEED):
                result, _ = run(workload, seed, trace=0)
                ok &= result["correct"] and result["failed"] == 0
                report[workload][f"seed_{seed}"] = result
            traced, _ = run(workload, DEFAULT_SEED, trace=1)
            ok &= traced["correct"]
            report[workload][f"trace_seed_{DEFAULT_SEED}"] = traced
        stamp.pop("process_s", None)
        args.baseline.write_text(json.dumps(
            {"environment": stamp["env"], "seeds": args.seeds,
             "run_seconds": SPEC["run_seconds"], "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs `perfbench/run.sh` once per seed on one workload and prints, for each
metric, the median of the runs and the distance between the first and third
quartile as a share of that median (`statistics.quantiles(values, n=4)`).
Run from the repository root:

    python3 perfbench/spread.py --workload cold_search --seeds 1 2 3 4 5 --seconds 20
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        check=True, capture_output=True, text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"seed {seed}: run failed:\n{out}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()

    runs = []
    for seed in args.seeds:
        runs.append(run(args.workload, seed, args.seconds, args.trace))
        print(f"seed {seed}: {json.dumps(runs[-1])}", flush=True)
    for name in runs[0]:
        values = [r[name] for r in runs]
        median = statistics.median(values)
        spread = "n/a"
        if len(values) >= 2 and median:
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = f"{(q3 - q1) / abs(median):.4f}"
        print(f"{args.workload} {name}: median {median:.6g} spread {spread}")


if __name__ == "__main__":
    main()

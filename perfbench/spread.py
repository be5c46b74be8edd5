#!/usr/bin/env python3
"""Runs the benchmark once per seed and prints each metric's spread.

Usage, from the repository root:

    python3 perfbench/spread.py routed-browse,sliced-checkout 1,2,3,4,5 [seconds] [trace]

For each workload and summary metric it prints the median over the seeds
and the spread: the distance between the first and third quartiles
(statistics.quantiles with n=4) as a share of the median. Runs that fail
or answer wrongly are reported and left out.
"""

import json
import statistics
import subprocess
import sys

COMMAND = ["cargo", "run", "--release", "--quiet", "--offline",
           "--manifest-path", "perfbench/Cargo.toml", "--"]


def main():
    if len(sys.argv) < 3:
        sys.exit(__doc__)
    workloads = sys.argv[1].split(",")
    seeds = [int(s) for s in sys.argv[2].split(",")]
    seconds = sys.argv[3] if len(sys.argv) > 3 else "24"
    trace = sys.argv[4] if len(sys.argv) > 4 else "0"
    for workload in workloads:
        values = {}
        for seed in seeds:
            run = subprocess.run(
                COMMAND + ["--workload", workload, "--seed", str(seed),
                           "--seconds", seconds, "--trace", trace],
                capture_output=True, text=True)
            lines = run.stdout.strip().splitlines()
            try:
                summary = json.loads(lines[-1])
            except (IndexError, ValueError):
                print(f"{workload} seed {seed}: no summary (exit {run.returncode})")
                print(run.stderr[-2000:])
                continue
            if not summary["correct"] or summary["failed"]:
                print(f"{workload} seed {seed}: correct={summary['correct']} "
                      f"failed={summary['failed']}/{summary['attempted']}")
                print(run.stderr[-2000:])
                continue
            for name, metric in summary["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for name, vals in values.items():
            med = statistics.median(vals)
            if len(vals) >= 2 and med:
                q = statistics.quantiles(vals, n=4)
                spread = f"{(q[2] - q[0]) / med:.4f}"
            else:
                spread = "n/a"
            shown = " ".join(f"{v:.4g}" for v in vals)
            print(f"{workload:18} {name:45} median {med:12.4f} spread {spread:>7}  {shown}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()

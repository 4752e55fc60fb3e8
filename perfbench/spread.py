"""Check that the benchmark is steady: run it on several seeds and report,
per workload and end-to-end metric, the median and the distance between
the first and third quartiles as a share of the median.

Usage (from the repository root):

    python3 perfbench/spread.py --seeds 10 [--workloads severi qpart] [--seconds 20]

Runs are interleaved across workloads (seed 1 of every workload, then
seed 2, ...), so a slow spell on a shared machine touches all of them.
A spread is flagged when it exceeds a third of the metric's bound in
BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()

    values: dict[str, dict[str, list[float]]] = {w: {} for w in args.workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in args.workloads:
            argv = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}, result {result}")
                return 1
            row = {k: m["value"] for k, m in result["metrics"].items()}
            print(f"{workload:8s} seed {seed:3d} " + " ".join(f"{k} {v:.4f}" for k, v in row.items()),
                  flush=True)
            for k, v in row.items():
                values[workload].setdefault(k, []).append(v)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    steady = True
    print(f"\n{'workload':8s} {'metric':14s} {'median':>10s} {'iqr/median':>10s} {'bound/3':>8s}")
    for workload, metrics in values.items():
        for name, series in metrics.items():
            q1, med, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / med
            flag = "" if spread < bounds[name] / 3 else "  <-- too wide"
            steady = steady and not flag
            print(f"{workload:8s} {name:14s} {med:10.4f} {spread:10.4f} {bounds[name] / 3:8.4f}{flag}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

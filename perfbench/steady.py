#!/usr/bin/env python3
"""Steadiness of the benchmark: repeated runs per workload, medians and quartiles.

    python3 perfbench/steady.py --runs 10 [--workload theorems ...]

Each run is `run.py` in a fresh process, with seeds 1, 2, ..., runs and
BENCHMARK.json's run_seconds.  For every end-to-end metric the table shows the
median, the quartiles (statistics.quantiles(values, n=4)) and the
quartile spread as a share of the median, next to the metric's bound in
BENCHMARK.json; `!` marks a spread above a third of its bound.  The
bounds in BENCHMARK.json were set from this output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workload or names:
        results = []
        for seed in range(1, args.runs + 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600, check=False,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            results.append(result)
            values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {values}", flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: all correct={all(r['correct'] for r in results)}, failed shares {shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (q3 - q1) / median
            flag = "!" if spread > bound / 3 else " "
            print(f"  {flag} {name:12s} median {median:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run every verification suite and write the JSON reports.

    python scripts/run_verifications.py --out-dir out/reports [--quick]

--quick trims trial counts for a fast smoke run; the defaults match the
full verification settings.
"""

import argparse
from pathlib import Path

from tripwire.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/reports")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--quick", action="store_true", help="smaller trial counts")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    irregular_trials = "100" if args.quick else "1000"
    local_trials = "50" if args.quick else "500"

    runs = [
        ("curve-oracle", ["--n", "1"]),
        ("theorem-even", ["--k", "4"]),
        ("theorem-odd", ["--k", "3"]),
        ("irregular", ["--k", "4", "--trials", irregular_trials, "--seed", str(args.seed)]),
        ("lagrange", ["--k", "6"]),
        ("local-optimum", ["--k", "3", "--trials", local_trials, "--seed", str(args.seed)]),
    ]
    worst = 0
    for suite, extra in runs:
        report_path = out / f"{suite}.json"
        code = cli_main(["verify", suite, *extra, "--out", str(report_path)])
        worst = max(worst, code)
    print(f"reports in {out}; overall {'PASS' if worst == 0 else 'FAIL'}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Run every verification suite and write the JSON reports.

    python scripts/run_verifications.py --out-dir out/reports [--quick]

--quick trims trial counts for a fast smoke run; the defaults match the
full verification settings, and the full run adds the irregular check on
nets of 300 lines: irregular-k300.json, and irregular-k300-t300.json,
whose 300 trials span two errors.MEMORY_BUDGET chunks.  local-optimum runs at
k = 3..6, one report local-optimum-k<k>.json each, and at k = 6 with
epsilon 0.1, local-optimum-k6-eps0.1.json, where the last line can leave
through the right edge.
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

    seed = ["--seed", str(args.seed)]
    runs = {
        "curve-oracle": ["curve-oracle", "--n", "1"],
        "theorem-even": ["theorem-even", "--k", "4"],
        "theorem-odd": ["theorem-odd", "--k", "3"],
        "irregular": ["irregular", "--k", "4", "--trials", irregular_trials, *seed],
        "lagrange": ["lagrange", "--k", "6"],
    }
    if not args.quick:
        # nets with hundreds of cuts
        runs["irregular-k300"] = ["irregular", "--k", "300", "--trials", "4", "--p", "4.2", *seed]
        runs["irregular-k300-t300"] = ["irregular", "--k", "300", "--trials", "300", *seed]
    for k in range(3, 7):
        runs[f"local-optimum-k{k}"] = ["local-optimum", "--k", str(k), "--trials", local_trials, *seed]
    # lines that can leave through the right edge: at seed 0 some trials
    # are cut by cells._arrangement_faces
    runs["local-optimum-k6-eps0.1"] = ["local-optimum", "--k", "6", "--epsilon", "0.1", "--trials", local_trials, *seed]
    worst = 0
    for name, suite_args in runs.items():
        code = cli_main(["verify", *suite_args, "--out", str(out / f"{name}.json")])
        worst = max(worst, code)
    print(f"reports in {out}; overall {'PASS' if worst == 0 else 'FAIL'}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())

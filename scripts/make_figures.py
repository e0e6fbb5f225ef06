#!/usr/bin/env python3
"""Emit the standard figure assets (SVG, CSV and JSON) into an output directory.

    python scripts/make_figures.py --out-dir out/figures
"""

import argparse
from pathlib import Path

from tripwire.cli import OutputSpec, cmd_base_curve, cmd_curve, cmd_optimal_net


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="out/figures", help="directory for the assets")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def spec(name: str, fmt: str) -> OutputSpec:
        return OutputSpec(format=fmt, path=str(out / name))

    # inscribing curve for the square hole, branch markers at p=1 and p=1+sqrt(2)
    cmd_curve(1.0, 1.0, 4.0, 0.01, spec("curve_n1.svg", "svg"))
    cmd_curve(1.0, 1.0, 4.0, 0.01, spec("curve_n1.csv", "csv"))
    cmd_curve(1.0, 1.0, 4.0, 0.01, spec("curve_n1.json", "json"))

    # base curves: even (k=4, with a competitor overlay) and odd (k=5)
    cmd_base_curve(4, 1.0, 12.0, 0.02, spec("base_curve_k4.svg", "svg"), overlay=(3, 1))
    cmd_base_curve(4, 1.0, 12.0, 0.02, spec("base_curve_k4.csv", "csv"))
    cmd_base_curve(4, 1.0, 12.0, 0.02, spec("base_curve_k4.json", "json"))
    cmd_base_curve(5, 1.0, 12.0, 0.02, spec("base_curve_k5.svg", "svg"))
    cmd_base_curve(5, 1.0, 12.0, 0.02, spec("base_curve_k5.csv", "csv"))

    # optimal nets on either side of the k=2 crossover, plus a grid case
    cmd_optimal_net(2, 1.0, spec("net_k2_p1.svg", "svg"))
    cmd_optimal_net(2, 3.0, spec("net_k2_p3.svg", "svg"))
    cmd_optimal_net(4, 4.0, spec("net_k4_p4.svg", "svg"))

    print(f"wrote figure assets to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

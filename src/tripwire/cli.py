"""Command-line front end: curves, base curves, optimal nets, verification suites.

Subcommands
    curve        sample the inscribing curve for a hole aspect n
    base-curve   sample the k-line base curve with crossover annotations
    optimal-net  emit the optimal net and its scale factor (JSON or SVG)
    verify       run a verification suite; exit 0 iff every assertion holds

Exit codes: 0 success, 1 a failed assertion (verify), 2 bad input (a
usage error), 3 a geometric or numerical failure (a degenerate cell or
crossing perturbed lines), reported on one line of stderr.

CSV outputs carry a mandatory header row after '#'-prefixed annotation
lines; numbers are rendered at the requested precision (significant
digits, round-half-even).  Outputs are byte-identical across runs for
identical flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass

from . import nets, svg
from .errors import DegenerateCellError, DomainError, InvalidPerturbationError, check_count
from .inscribe import _samples, check_aspect, crossover_w, p_grid, placement
from .oracle import (
    VerificationReport,
    curve_oracle_check,
    irregular_spacing_check,
    lagrange_split_check,
    perturbation_suite,
    theorem_scan,
)

# Exit code for a geometric or numerical failure (module docstring).
EXIT_NUMERICAL = 3


@dataclass(frozen=True)
class OutputSpec:
    format: str
    path: str
    precision: int = 9

    def __post_init__(self) -> None:
        if self.format not in ("csv", "json", "svg"):
            raise DomainError(f"unsupported output format {self.format!r}")
        if check_count(self.precision, "precision", minimum=1) > 17:
            raise DomainError(f"precision must lie in [1, 17], got {self.precision!r}")


def _num(x: float, precision: int) -> str:
    """x printed at precision significant digits; DomainError past the largest float."""
    text = format(float(x), f".{precision}g")
    if text.endswith("e+308") and math.isinf(float(text)):
        raise DomainError(f"{float(x)!r} printed at precision {precision} is {text}, past the largest float")
    return text


def _nums(xs: list[float], precision: int) -> list[str]:
    """_num of each x in xs, checked once: at the largest |x|, since no
    smaller |x| prints past the largest float unless that one does."""
    if xs:
        try:
            _num(max(map(abs, xs)), precision)
        except DomainError:
            for x in xs:  # raises at the first x that prints past the largest float
                _num(x, precision)
    spec = f".{precision}g"
    return [format(x, spec) for x in xs]


def _round_sig(x: float, precision: int) -> float:
    return float(_num(x, precision))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def _write_samples(out: OutputSpec, head: str, value, notes_key: str, notes: dict, ps, cs, branches, plot) -> dict:
    """Write a sample table, the columns p, c (lists of floats) and branch,
    to out.path and return its JSON payload.

    Each number is formatted once at out.precision, a column at a time
    (_nums): CSV prints that string and JSON the float it parses back to.
    The table leads with `head` = value (an int is written as is), then
    the `notes_key` block of notes, whose None values are JSON nulls and
    left out of the CSV.  `plot()` returns the SVG document.

    The JSON file is json.dumps(payload, indent=2) + "\n", written in one
    pass: json.dumps of the payload without its samples, then one string
    per sample from a format spec of that layout, which prints each float
    as json does for a finite one, by float.__repr__ (_num has rejected
    the rest); indent would send the whole table through json's
    pure-Python encoder.  Branch labels are plain ASCII constants,
    written between quotes.
    """
    head_text = str(value) if isinstance(value, int) else _num(value, out.precision)
    note_texts = {key: None if x is None else _num(x, out.precision) for key, x in notes.items()}
    p_texts, c_texts = _nums(ps, out.precision), _nums(cs, out.precision)
    payload = {
        head: value if isinstance(value, int) else float(head_text),
        "precision": out.precision,
        notes_key: {key: None if text is None else float(text) for key, text in note_texts.items()},
        "samples": [
            {"p": p, "c": c, "branch": branch}
            for p, c, branch in zip(map(float, p_texts), map(float, c_texts), branches)
        ],
    }
    if out.format == "csv":
        lines = [f"# {head}={head_text}"]
        lines += [f"# {key}={text}" for key, text in note_texts.items() if text is not None]
        lines.append("p,c,branch")
        lines += [f"{p},{c},{branch}" for p, c, branch in zip(p_texts, c_texts, branches)]
        _write(out.path, "\n".join(lines) + "\n")
    elif out.format == "json":
        rows_json = ",\n".join(
            f'    {{\n      "p": {s["p"]!r},\n      "c": {s["c"]!r},\n      "branch": "{s["branch"]}"\n    }}'
            for s in payload["samples"]
        )
        head_json = json.dumps({key: x for key, x in payload.items() if key != "samples"}, indent=2)
        _write(out.path, f'{head_json[:-2]},\n  "samples": [\n{rows_json}\n  ]\n}}\n')
    else:
        _write(out.path, plot())
    return payload


# ----------------------------------------------------------------------------
# curve


def cmd_curve(n: float, p_min: float, p_max: float, step: float, out: OutputSpec) -> dict:
    """Sample the inscribing curve for hole aspect n and write it to out.path."""
    n = check_aspect(n, "hole aspect n")
    ps = p_grid(p_min, p_max, step)
    cs, branches = _samples(n, ps)
    cs = cs.tolist()
    w_n = crossover_w(n)
    return _write_samples(
        out,
        "n",
        n,
        "markers",
        {"plateau_end": n, "vertical_end": w_n},
        ps,
        cs,
        branches,
        lambda: svg.curve_plot_svg(
            [("inscribing-curve", ps, cs, "#2040a0")],
            markers=[(n, "p=n"), (w_n, "p=w")],
            title=f"Inscribing curve, hole aspect n={_num(n, 6)}",
        ),
    )


# ----------------------------------------------------------------------------
# base-curve


def cmd_base_curve(
    k: int,
    p_min: float,
    p_max: float,
    step: float,
    out: OutputSpec,
    overlay: tuple[int, int] | None = None,
) -> dict:
    """Sample the base curve for k lines; overlay a competitor split in SVG mode."""
    if overlay is not None and out.format != "svg":
        raise DomainError("--overlay is only supported with --format svg")
    grid_ps = p_grid(p_min, p_max, step)
    k = nets._line_count(k)
    values, families = nets._base_curve(k, grid_ps)
    values = values.tolist()
    annotations = {"crossover_aspect": nets.crossover_aspect(k) if k >= 2 else None}
    if k >= 3 and k % 2 == 1:
        annotations["crossover_aspect_line_count"] = nets.odd_crossover_line_count(k)

    def plot() -> str:
        series = [("base-curve", grid_ps, values, "#2040a0")]
        markers: list[tuple[float, str]] = []
        if annotations["crossover_aspect"] is not None:
            markers.append((annotations["crossover_aspect"], "p1"))
        if overlay is not None:
            v, h = overlay
            if v + h != k or min(v, h) < 0:
                raise DomainError(f"overlay split {overlay!r} must use {k} lines")
            hole = nets.evenly_spaced(v, h).widest_hole
            series.append((f"N({v},{h})", grid_ps, nets._hole_scales(*hole, grid_ps).tolist(), "#c03030"))
            aspect_comp = (max(v, h) + 1) / (min(v, h) + 1)
            grid_aspect = (k - k // 2 + 1) / (k // 2 + 1)  # 1 for even k
            markers.append((aspect_comp, "p2"))
            markers.append((crossover_w(grid_aspect), "p3"))
            if aspect_comp > 1.0:
                markers.append((crossover_w(aspect_comp), "p4"))
        return svg.curve_plot_svg(series, markers, title=f"Base curve, k={k}")

    return _write_samples(out, "k", k, "annotations", annotations, grid_ps, values, families, plot)


# ----------------------------------------------------------------------------
# optimal-net


def cmd_optimal_net(k: int, p: float, out: OutputSpec) -> dict:
    """Emit the optimal k-line net for intruder aspect p, with its placement."""
    if out.format == "csv":
        raise DomainError("optimal-net supports json or svg output")
    net = nets.optimal_net(k, p)
    grid = nets.holes(net)
    scale = nets.net_scale_factor(net, p)
    i, j = nets.maximizing_hole(net, p)
    x0 = sum(grid.widths[:i])
    y0 = sum(grid.heights[:j])
    w, h = grid.widths[i], grid.heights[j]
    s = min(w, h)
    hole_aspect = max(w, h) / s
    local = placement(hole_aspect, p)
    if w <= h:
        corners = tuple((x0 + s * cx, y0 + s * cy) for cx, cy in local.corners)
    else:
        corners = tuple((x0 + s * cy, y0 + s * cx) for cx, cy in local.corners)

    payload = {
        "k": net.k,
        "p": _round_sig(p, out.precision),
        "net": nets.net_to_dict(net),
        "scale_factor": _round_sig(scale, out.precision),
        "maximizing_hole": {
            "x0": _round_sig(x0, out.precision),
            "y0": _round_sig(y0, out.precision),
            "width": _round_sig(w, out.precision),
            "height": _round_sig(h, out.precision),
        },
        "placement": {
            "branch": local.branch,
            "corners": [[_round_sig(x, out.precision), _round_sig(y, out.precision)] for x, y in corners],
        },
    }
    if out.format == "json":
        _write(out.path, json.dumps(payload, indent=2) + "\n")
    else:
        doc = svg.net_plot_svg(
            net.vertical,
            net.horizontal,
            (x0, y0, w, h),
            corners,
            title=f"{net.describe()}, p={_num(p, 6)}, c={_num(scale, 6)}",
        )
        _write(out.path, doc)
    return payload


# ----------------------------------------------------------------------------
# verify


def _verify_theorem(k: int, parity: str) -> VerificationReport:
    if parity == "even" and (k < 2 or k % 2 != 0):
        raise DomainError(f"theorem-even needs even k >= 2, got {k}")
    if parity == "odd" and (k < 3 or k % 2 != 1):
        raise DomainError(f"theorem-odd needs odd k >= 3, got {k}")
    return theorem_scan(k)


# Each verify suite as a function of the parsed flags; a suite that reads
# --p or --trials sets its own default for them.
VERIFY_SUITES = {
    "curve-oracle": lambda args: curve_oracle_check(args.n),
    "theorem-even": lambda args: _verify_theorem(args.k, "even"),
    "theorem-odd": lambda args: _verify_theorem(args.k, "odd"),
    "irregular": lambda args: irregular_spacing_check(
        args.k,
        [1.0, 1.5, 2.0, 3.0, 5.0] if args.p is None else [args.p],
        1000 if args.trials is None else args.trials,
        args.seed,
    ),
    "lagrange": lambda args: lagrange_split_check(args.k, 4.0 if args.p is None else args.p),
    "local-optimum": lambda args: perturbation_suite(
        args.k, trials=500 if args.trials is None else args.trials, epsilon=args.epsilon, seed=args.seed
    ),
}


def cmd_verify(suite: str, args: argparse.Namespace, out_path: str) -> tuple[int, VerificationReport]:
    """Run one verification suite, write its JSON report, return (exit code, report)."""
    if suite not in VERIFY_SUITES:
        raise DomainError(f"unknown verification suite {suite!r}")
    report = VERIFY_SUITES[suite](args)
    _write(out_path, report.to_json() + "\n")
    return (0 if report.passed else 1), report


# ----------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="tripwire",
        description="Optimal axis-aligned tripwire nets against rectangular intruders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="sample the inscribing curve for a hole aspect")
    curve.add_argument("--n", type=float, required=True, help="hole aspect ratio (>= 1)")
    _add_range_flags(curve)
    _add_output_flags(curve)

    base = sub.add_parser("base-curve", help="sample the k-line base curve")
    base.add_argument("--k", type=int, required=True, help="number of lines (>= 1)")
    _add_range_flags(base)
    _add_output_flags(base)
    base.add_argument(
        "--overlay",
        type=str,
        default=None,
        metavar="V,H",
        help="overlay the evenly spaced (v,h) competitor curve (SVG only)",
    )

    opt = sub.add_parser("optimal-net", help="emit the optimal net for (k, p)")
    opt.add_argument("--k", type=int, required=True, help="number of lines (>= 1)")
    opt.add_argument("--p", type=float, required=True, help="intruder aspect ratio (>= 1)")
    _add_output_flags(opt, formats=("json", "svg"), default_format="json")

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=VERIFY_SUITES)
    verify.add_argument("--n", type=float, default=1.0, help="hole aspect (curve-oracle)")
    verify.add_argument("--k", type=int, default=4, help="line count (theorem/irregular/lagrange/local-optimum)")
    verify.add_argument("--p", type=float, default=None, help="intruder aspect (irregular/lagrange)")
    verify.add_argument("--seed", type=int, default=0, help="rng seed for randomized suites")
    verify.add_argument("--epsilon", type=float, default=0.02, help="perturbation bound (local-optimum)")
    verify.add_argument("--trials", type=int, default=None, help="randomized trial count")
    verify.add_argument("--out", type=str, default=None, help="report path (default verify-<suite>.json)")

    return parser


def _add_range_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--p-min", type=float, default=1.0, help="range start (>= 1)")
    cmd.add_argument("--p-max", type=float, required=True, help="range end (> p-min)")
    cmd.add_argument("--step", type=float, default=0.01, help="sampling step (> 0)")


def _add_output_flags(cmd, formats=("csv", "json", "svg"), default_format="csv") -> None:
    cmd.add_argument("--format", choices=formats, default=default_format)
    cmd.add_argument("--out", type=str, required=True, help="output file path")
    cmd.add_argument("--precision", type=int, default=9, help="significant digits (1..17)")


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "curve":
            out = OutputSpec(format=args.format, path=args.out, precision=args.precision)
            cmd_curve(args.n, args.p_min, args.p_max, args.step, out)
            return 0
        if args.command == "base-curve":
            out = OutputSpec(format=args.format, path=args.out, precision=args.precision)
            overlay = None
            if args.overlay is not None:
                try:
                    v, h = (int(part) for part in args.overlay.split(","))
                except ValueError:
                    parser.error(f"--overlay expects 'v,h' integers, got {args.overlay!r}")
                overlay = (v, h)
            cmd_base_curve(args.k, args.p_min, args.p_max, args.step, out, overlay)
            return 0
        if args.command == "optimal-net":
            out = OutputSpec(format=args.format, path=args.out, precision=args.precision)
            cmd_optimal_net(args.k, args.p, out)
            return 0
        if args.command == "verify":
            out_path = args.out or f"verify-{args.suite}.json"
            code, report = cmd_verify(args.suite, args, out_path)
            if report.passed:
                print(f"{args.suite}: PASS ({out_path})")
            else:
                print(f"{args.suite}: FAIL: {report.failures[0]}", file=sys.stderr)
            return code
    except DomainError as exc:
        parser.error(str(exc))
    except (DegenerateCellError, InvalidPerturbationError) as exc:
        print(f"{parser.prog} {args.command}: geometric or numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    return 2


if __name__ == "__main__":
    sys.exit(main())

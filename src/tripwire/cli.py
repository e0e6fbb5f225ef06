"""Command-line front end: curves, base curves, optimal nets, verification suites.

Subcommands
    curve        sample the inscribing curve for a hole aspect n
    base-curve   sample the k-line base curve with crossover annotations
    optimal-net  emit the optimal net and its scale factor (JSON or SVG)
    verify       run a verification suite; exit 0 iff every assertion holds

Exit codes: 0 success, 1 a failed assertion (verify), 2 bad input (a
usage error, or an output path that cannot be written), 3 a geometric or
numerical failure (a degenerate cell or crossing perturbed lines), each
failure reported on one line of stderr.

CSV outputs carry a mandatory header row after '#'-prefixed annotation
lines; numbers are rendered at the requested precision (significant
digits, round-half-even).  A sample table formats each of its numbers
once (_nums): the CSV prints that text, and the JSON the shortest repr
of the float it parses back to, which a positional text at up to 15
digits already is (_json_numbers).  Outputs are byte-identical across
runs for identical flags and seed.  Every command writes its one output
file through _write, which rewrites an existing file in place and cuts
it to the new length.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import stat
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

# Exit codes for bad input and for a geometric or numerical failure (module docstring).
EXIT_BAD_INPUT = 2
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


def _check_printable(xs: list[float], precision: int) -> None:
    """Raise _num's DomainError at the first x in xs that prints past the
    largest float, checked once: at the largest |x|, since no smaller |x|
    prints past the largest float unless that one does."""
    if xs:
        try:
            _num(max(map(abs, xs)), precision)
        except DomainError:
            for x in xs:  # raises at the first x that prints past the largest float
                _num(x, precision)


def _nums(xs: list[float], precision: int) -> list[str]:
    """_num of each x in xs: one _check_printable, then one %-format call
    prints them all, as format(x, f".{precision}g") prints each.  This is
    where a sample table's numbers are formatted, for CSV and JSON alike
    (_write_samples).  JSON keeps each text that is positional at up to
    15 digits as it is, since such a text already is the repr of the
    float it parses back to (_json_numbers)."""
    _check_printable(xs, precision)
    return (f"%.{precision}g\n" * len(xs) % tuple(xs)).split("\n")[:-1]


def _json_numbers(texts: list[str], precision: int) -> list[str]:
    """repr(float(text)) of each _nums text at precision: the shortest
    text of the float it parses back to, which json.dumps writes.

    At precision <= 15 a positional text (a "." and no "e") already is
    that repr, so it is kept.  By Matula's in-and-out theorem (CACM 1968),
    the basis of DBL_DIG = 15, no two decimals of at most 15 significant
    digits name the same double, so the shortest decimal that rounds to
    float(text) is the text's own, and repr, correctly rounded as Gay's
    conversion (1990), prints it positionally at the magnitudes where %g
    does (1e-4 up to 10**precision, within repr's 1e-4 up to 1e16).
    Every other text is converted: an integral one ("3" and "-0" are
    "3.0" and "-0.0"), an exponent form (at magnitudes repr may print
    positionally, and the subnormals, which hold fewer digits), and every
    text at precision 16 or 17, where two texts can name one double.
    """
    if precision > 15:
        return [repr(float(text)) for text in texts]
    return [text if "." in text and "e" not in text else repr(float(text)) for text in texts]


def _round_sig(x: float, precision: int) -> float:
    return float(_num(x, precision))


def _write(path: str, text: str) -> None:
    """Write text to path as UTF-8; every output file is written here.

    An existing file is rewritten in place: opened without O_TRUNC, then
    cut to the written length.  Truncating at open frees the old file's
    blocks and, on ext4 with auto_da_alloc, forces the new data out at
    close: rewriting a 3 KB file took 73 us that way against 11 us in
    place (30 KB: 97 against 13 us) on an ext4 volume mounted with
    discard, and about 9 us either way on tmpfs (30 KB: 15 against
    12 us).  A new file gets mode 0o666 & ~umask, as open(path, "w")
    gives it.  Only a regular file is cut: a device such as /dev/null
    has no length, and ftruncate on it fails.

    The text is encoded once, before the file is opened, so a text that
    cannot be encoded leaves the file as it was, and its bytes go out
    through os.write with no text layer between ("\n" stays "\n").

    The rewrite is not atomic, and neither was truncating at open: an
    interrupted write left a prefix of the new text then, and can leave
    the new text followed by a tail of the old one now.
    """
    data = memoryview(text.encode("utf-8"))
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        rest = data
        while rest:
            rest = rest[os.write(fd, rest) :]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_samples(out: OutputSpec, head: str, value, notes_key: str, notes: dict, ps, cs, branches, plot) -> None:
    """Write a sample table, the columns p, c (lists of floats) and branch,
    to out.path.

    Each number of the columns is formatted here, once, a column at a
    time, at out.precision (_nums).  CSV prints that text.  JSON prints
    the shortest repr of the float the text parses back to, which is the
    text itself wherever it is positional at up to 15 digits
    (_json_numbers); only the other texts are parsed and printed again.
    Each format lays out its rows with one f-string row template, joined
    once: over 1101 rows (CPython 3.11, 2 vCPUs) that took 40 us less for
    CSV and 100-150 us less for JSON than one %-format over the
    interleaved texts.  SVG prints no column, so it only checks them
    (_check_printable); every format rejects a number printed past the
    largest float, with the same message.  The table leads with `head` =
    value (an int is written as is), then the `notes_key` block of notes,
    whose None values are JSON nulls and left out of the CSV.  `plot()`
    returns the SVG document.

    The JSON file is the json.dumps(..., indent=2) + "\n" of the table:
    json.dumps of the head fields, then the rows from a template of that
    layout (indent would send the whole table through json's pure-Python
    encoder).  Either way a finite float is written as float.__repr__
    writes it, and _num has rejected the rest.  Branch labels are plain
    ASCII constants, written between quotes.
    """
    head_text = str(value) if isinstance(value, int) else _num(value, out.precision)
    note_texts = {key: None if x is None else _num(x, out.precision) for key, x in notes.items()}
    if out.format == "svg":
        _check_printable(ps, out.precision)
        _check_printable(cs, out.precision)
        _write(out.path, plot())
        return
    p_texts, c_texts = _nums(ps, out.precision), _nums(cs, out.precision)
    if out.format == "csv":
        lines = [f"# {head}={head_text}"]
        lines += [f"# {key}={text}" for key, text in note_texts.items() if text is not None]
        lines.append("p,c,branch")
        lines += [f"{p},{c},{branch}" for p, c, branch in zip(p_texts, c_texts, branches)]
        _write(out.path, "\n".join(lines) + "\n")
    else:
        head_fields = {
            head: value if isinstance(value, int) else float(head_text),
            "precision": out.precision,
            notes_key: {key: None if text is None else float(text) for key, text in note_texts.items()},
        }
        p_texts, c_texts = _json_numbers(p_texts, out.precision), _json_numbers(c_texts, out.precision)
        rows_json = ",\n".join(
            [
                f'    {{\n      "p": {p},\n      "c": {c},\n      "branch": "{branch}"\n    }}'
                for p, c, branch in zip(p_texts, c_texts, branches)
            ]
        )
        _write(out.path, f'{json.dumps(head_fields, indent=2)[:-2]},\n  "samples": [\n{rows_json}\n  ]\n}}\n')


# ----------------------------------------------------------------------------
# curve


def cmd_curve(n: float, p_min: float, p_max: float, step: float, out: OutputSpec) -> None:
    """Sample the inscribing curve for hole aspect n and write it to out.path."""
    n = check_aspect(n, "hole aspect n")
    ps = p_grid(p_min, p_max, step)
    cs, branches = _samples(n, ps)
    cs = cs.tolist()
    w_n = crossover_w(n)
    _write_samples(
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
) -> None:
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

    _write_samples(out, "k", k, "annotations", annotations, grid_ps, values, families, plot)


# ----------------------------------------------------------------------------
# optimal-net


def cmd_optimal_net(k: int, p: float, out: OutputSpec) -> None:
    """Emit the optimal k-line net for intruder aspect p, with its placement.

    Both formats round every field at out.precision, so both reject a
    number printed past the largest float."""
    if out.format == "csv":
        raise DomainError("optimal-net supports json or svg output")
    net = nets.optimal_net(k, p)
    grid = nets.holes(net)
    scale = nets.net_scale_factor(net, p)
    i, j = nets.maximizing_hole(net, p)
    x0, y0 = (0.0, *net.vertical)[i], (0.0, *net.horizontal)[j]  # the cuts left of and below it
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


def cmd_verify(suite: str, args: argparse.Namespace, out_path: str) -> VerificationReport:
    """Run one verification suite, write its JSON report and return the report."""
    if suite not in VERIFY_SUITES:
        raise DomainError(f"unknown verification suite {suite!r}")
    # Before the suite runs, the OSError _write would raise for a directory
    # or for a path in one that is missing (stat of "dir/" fails as open does).
    if os.path.isdir(out_path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), out_path)
    os.stat(os.path.join(os.path.dirname(out_path) or ".", ""))
    report = VERIFY_SUITES[suite](args)
    _write(out_path, report.to_json() + "\n")
    return report


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
    out_path = (args.out or f"verify-{args.suite}.json") if args.command == "verify" else args.out
    try:
        if args.command == "verify":
            report = cmd_verify(args.suite, args, out_path)
        else:
            out = OutputSpec(format=args.format, path=out_path, precision=args.precision)
            if args.command == "curve":
                cmd_curve(args.n, args.p_min, args.p_max, args.step, out)
            elif args.command == "base-curve":
                overlay = None
                if args.overlay is not None:
                    try:
                        v, h = (int(part) for part in args.overlay.split(","))
                    except ValueError:
                        parser.error(f"--overlay expects 'v,h' integers, got {args.overlay!r}")
                    overlay = (v, h)
                cmd_base_curve(args.k, args.p_min, args.p_max, args.step, out, overlay)
            else:
                cmd_optimal_net(args.k, args.p, out)
            return 0
    except DomainError as exc:
        parser.error(str(exc))
    except OSError as exc:  # only _write touches a file
        print(f"{parser.prog} {args.command}: cannot write {out_path}: {exc.strerror}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (DegenerateCellError, InvalidPerturbationError) as exc:
        print(f"{parser.prog} {args.command}: geometric or numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    if not report.passed:
        print(f"{args.suite}: FAIL: {report.failures[0]}", file=sys.stderr)
        return 1
    print(f"{args.suite}: PASS ({out_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())

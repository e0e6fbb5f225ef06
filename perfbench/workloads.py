"""The benchmark's workloads: rounds of operations and the checks on their outputs.

A workload is a function (rng, out_dir) -> list[Op] that builds one
round of operations, with inputs drawn from `rng`.  The harness calls it
once per round with the run's generator, so every round makes the same
operations on new inputs.  An operation's `run` makes the program calls that are
timed; its `check` reads what they returned or wrote and names the
first problem it finds, or returns None.  Every expected answer comes
from `reference` (which imports nothing from tripwire) or from a
property the method must have; no check compares against stored output.

Operations marked `known_fault` are the wide-range inputs of the
`differential` workload that two faults of the program reach:
cancellation in `inscribe.diagonal_branch` and the bracket of
`inscribe.crossover_w`.  There they may give wrong answers or raise.
Their inputs do not depend on the seed, so every round fails the same
ones; the harness counts them as failed operations.  A failure of any
other operation marks the run incorrect.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
import xml.etree.ElementTree as ElementTree
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import tripwire
import tripwire.cli

import reference as ref

# Relative tolerance of curve values and w_n against the reference.  The
# rotation-sweep oracle meets it everywhere: its golden-section search
# ends within about 1e-15 rad of the best angle, which moves the value
# by (relative slope) * 1e-15; that slope grows like n, but the oracle
# never reads below the axis-aligned value n/p at angle 0, and the
# diagonal branch beats n/p by only about 1/(2 n^2) relative.  So the
# error is below min(n * 1e-15, 1/(2 n^2)) < 1e-10 for every n, and
# about 4e-16 on the benchmark's grids.
CURVE_RTOL = 1e-9
# Relative tolerance of largest inscribed squares.  The kernel refines
# orientations down to about 1e-9 rad, and near its best orientation a
# square's side changes by at most its own length per radian, so the
# side is within about 1e-9 relative, plus its 1e-12 search tolerance.
CELL_RTOL = 2e-9
# Below this relative gap between the vertical and diagonal candidates
# the program's tie rule (1e-12 absolute) decides the branch label, so
# labels are only compared above it.
LABEL_GAP = 1e-9
# The local-optimum suite's own tolerance and perturbation bound.
SUITE_TOL = 1e-9
EPSILON = 0.02
LOCAL_OPTIMUM_TRIALS = 10
BASE_CURVE_K = 5
# Significant digits of the figure calls.
PRECISIONS = (6, 9, 12)
OPTIMAL_NETS = 5


@dataclass
class Op:
    """One timed operation: `run` calls the program, `check` judges its output."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    known_fault: bool = False
    out_path: Path | None = None


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


def call_cli(argv: list[str]) -> CliResult:
    """Run `tripwire.cli.main(argv)` in-process, capturing its output and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tripwire.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return CliResult(code, out.getvalue(), err.getvalue())


def cli_op(kind: str, argv: list[str], check, out_path: Path, known_fault: bool = False) -> Op:
    return Op(kind, lambda: call_cli(argv), check, known_fault, out_path)


def _close(value: float, expected: float, rtol: float) -> bool:
    return abs(value - expected) <= rtol * abs(expected)


def _verify_report(result: CliResult, suite: str, path: Path) -> tuple[dict | None, str | None]:
    """The suite's JSON report when the call passed, else the problem."""
    if result.code != 0 or f"{suite}: PASS" not in result.stdout:
        return None, f"{suite} exited {result.code}: {(result.stderr or result.stdout).strip()[:300]}"
    report = json.loads(path.read_text())
    if not report["passed"] or report["failures"]:
        return None, f"{suite} report not passed: {report['failures'][:2]}"
    return report, None


def _p_grid(p_min: float, p_max: float, step: float) -> list[float]:
    """The CLI's documented sample grid: p_min + i*step up to p_max, clipped to p_max."""
    values = []
    i = 0
    while True:
        p = p_min + i * step
        if p > p_max + 1e-9 * step:
            return values
        values.append(min(p, p_max))
        i += 1


def _rows(samples, grid, precision: int, expected) -> str | None:
    """Compare printed (p, c, branch) samples with expected(p) -> (c, branch or None)."""
    if len(samples) != len(grid):
        return f"{len(samples)} samples, expected {len(grid)}"
    for (p_out, c_out, branch), p in zip(samples, grid):
        c, want = expected(p)
        if not ref.printed_match(p_out, p, precision):
            return f"sample p={p_out!r}, expected {p!r}"
        if not ref.printed_match(c_out, c, precision):
            return f"at p={p!r}: c={c_out!r}, reference {c!r} at {precision} digits"
        if want is not None and branch != want:
            return f"at p={p!r}: branch {branch!r}, reference {want!r}"
    return None


def _parse_csv(text: str) -> tuple[dict, list[tuple[float, float, str]]]:
    lines = text.splitlines()
    notes = {}
    while lines and lines[0].startswith("#"):
        key, _, value = lines.pop(0)[1:].strip().partition("=")
        notes[key] = float(value)
    if not lines or lines.pop(0) != "p,c,branch":
        raise ValueError("missing p,c,branch header")
    rows = []
    for line in lines:
        p, c, branch = line.split(",")
        rows.append((float(p), float(c), branch))
    return notes, rows


def _curve_expected(n: float):
    def expected(p: float):
        c, branch = ref.curve(n, p)
        return c, (branch if ref.curve_branch_gap(n, p) > LABEL_GAP else None)

    return expected


def _base_expected(k: int):
    def expected(p: float):
        parallel, grid = ref.base_curve(k, p)
        if abs(parallel - grid) <= LABEL_GAP * max(parallel, grid):
            return min(parallel, grid), None
        return min(parallel, grid), ("parallel" if parallel < grid else "grid")

    return expected


def _svg_problem(text: str) -> str | None:
    try:
        root = ElementTree.fromstring(text)
    except ElementTree.ParseError as exc:
        return f"SVG does not parse: {exc}"
    if not root.tag.endswith("svg"):
        return f"root element is {root.tag!r}, not svg"
    return None


def _same_bytes(first: Path, second: Path) -> str | None:
    if first.read_bytes() != second.read_bytes():
        return f"{second.name} differs from {first.name} for the same flags"
    return None


def _figure_ops(kind: str, argv, out_dir: Path, stem: str, fmt: str, check_content) -> list[Op]:
    """The same figure written twice; both writes are timed, the repeat must match."""
    first, second = out_dir / f"{stem}-1.{fmt}", out_dir / f"{stem}-2.{fmt}"

    def check_first(result: CliResult):
        if result.code != 0:
            return f"{kind} exited {result.code}: {result.stderr.strip()[:300]}"
        return check_content(first.read_text())

    def check_second(result: CliResult):
        if result.code != 0:
            return f"{kind} exited {result.code}: {result.stderr.strip()[:300]}"
        return _same_bytes(first, second)

    return [
        cli_op(kind, [*argv, "--format", fmt, "--out", str(first)], check_first, first),
        cli_op(kind, [*argv, "--format", fmt, "--out", str(second)], check_second, second),
    ]


# ----------------------------------------------------------------------------
# local-optimum


def local_optimum(rng: random.Random, out_dir: Path) -> list[Op]:
    """`verify local-optimum` at k = 3..6, each with a fresh suite seed."""
    ops = []
    for k in (3, 4, 5, 6):
        seed = rng.randrange(2**31)
        path = out_dir / f"local-optimum-k{k}.json"
        argv = [
            "verify", "local-optimum", "--k", str(k), "--trials", str(LOCAL_OPTIMUM_TRIALS),
            "--epsilon", str(EPSILON), "--seed", str(seed), "--out", str(path),
        ]
        ops.append(cli_op("verify local-optimum", argv, _check_local_optimum(k, seed, path), path))
    return ops


def _check_local_optimum(k: int, seed: int, path: Path):
    def check(result: CliResult):
        report, problem = _verify_report(result, "local-optimum", path)
        if problem:
            return problem
        params = report["parameters"]
        if (params["k"], params["trials"], report["seed"]) != (k, LOCAL_OPTIMUM_TRIALS, seed):
            return f"report echoes k={params['k']}, trials={params['trials']}, seed={report['seed']}"
        low = 1.0 / (k + 1) - SUITE_TOL
        high = ref.perturbation_upper_bound(k, EPSILON)
        if not low <= params["min_perturbed"] <= high:
            return f"min_perturbed {params['min_perturbed']!r} outside [{low!r}, {high!r}] at k={k}"
        return None

    return check


# ----------------------------------------------------------------------------
# theorems


def theorems(rng: random.Random, out_dir: Path) -> list[Op]:
    """The CLI calls that reproduce the paper's net results and figures."""
    ops = []
    for k in range(2, 13):
        parity = "even" if k % 2 == 0 else "odd"
        path = out_dir / f"theorem-{k}.json"
        argv = ["verify", f"theorem-{parity}", "--k", str(k), "--out", str(path)]
        ops.append(cli_op(f"verify theorem-{parity}", argv, _check_theorem(k, parity, path), path))

    # Small k with the suite's five default aspects; large k with few
    # trials, so that single nets have thousands of holes.
    for k, trials, one_aspect in [(k, 40, False) for k in range(1, 7)] + [(k, 4, True) for k in (150, 200, 250, 300)]:
        seed = rng.randrange(2**31)
        path = out_dir / f"irregular-{k}.json"
        argv = ["verify", "irregular", "--k", str(k), "--trials", str(trials), "--seed", str(seed)]
        if one_aspect:
            argv += ["--p", f"{rng.uniform(1.0, 8.0):.3f}"]
        ops.append(cli_op("verify irregular", [*argv, "--out", str(path)], _check_passes("irregular", path), path))

    for k in (2, 4, 6, 8, 10, 12):
        path = out_dir / f"lagrange-{k}.json"
        argv = ["verify", "lagrange", "--k", str(k), "--p", f"{rng.uniform(2.5, 8.0):.3f}", "--out", str(path)]
        ops.append(cli_op("verify lagrange", argv, _check_lagrange(k, path), path))

    # Precision sets much of a figure call's cost, and these calls hold the
    # round's median latency: every round prints each precision once, and
    # draws the three hole aspects from the thirds of [1, 6].
    precisions = list(PRECISIONS)
    rng.shuffle(precisions)
    grid = _p_grid(1.0, 12.0, 0.01)
    for index, precision in enumerate(precisions):
        n = round(rng.uniform(1.0 + 5.0 * index / 3.0, 1.0 + 5.0 * (index + 1) / 3.0), 3)
        argv = ["curve", "--n", str(n), "--p-max", "12", "--step", "0.01", "--precision", str(precision)]
        for fmt in ("csv", "json"):
            ops += _figure_ops("curve", argv, out_dir, f"curve{index}", fmt, _check_curve_table(n, grid, precision, fmt))
        ops += _figure_ops("curve", argv, out_dir, f"curve{index}", "svg", _svg_problem)

    # k is fixed: the base curve's cost depends on it (odd k scores a grid net).
    k = BASE_CURVE_K
    precision = rng.choice(PRECISIONS)
    v = rng.randrange(0, k + 1)
    base_argv = ["base-curve", "--k", str(k), "--p-max", "8", "--step", "0.01", "--precision", str(precision)]
    grid = _p_grid(1.0, 8.0, 0.01)
    for fmt in ("csv", "json"):
        ops += _figure_ops("base-curve", base_argv, out_dir, "base", fmt, _check_base_table(k, grid, precision, fmt))
    ops += _figure_ops("base-curve", [*base_argv, "--overlay", f"{v},{k - v}"], out_dir, "base", "svg", _svg_problem)

    # Optimal nets take about 2 ms a call, like the lagrange checks.  With
    # this many of them the round's median latency falls in the dense
    # lower part of the 8-21 ms group (curve calls, small-k irregular
    # checks); with one net it fell in the sparse upper part and moved by
    # up to 25% between runs.
    for index in range(OPTIMAL_NETS):
        k = rng.randrange(1, 13)
        p = round(rng.uniform(1.0, 8.0), 3)
        net_argv = ["optimal-net", "--k", str(k), "--p", str(p), "--precision", str(precision)]
        ops += _figure_ops("optimal-net", net_argv, out_dir, f"net{index}", "json", _check_net(k, p, precision))
        ops += _figure_ops("optimal-net", net_argv, out_dir, f"net{index}", "svg", _svg_problem)
    return ops


def _check_passes(suite: str, path: Path):
    def check(result: CliResult):
        return _verify_report(result, suite, path)[1]

    return check


def _check_lagrange(k: int, path: Path):
    def check(result: CliResult):
        report, problem = _verify_report(result, "lagrange", path)
        if problem:
            return problem
        if report["winner"] != f"N({k // 2},{k // 2})":
            return f"lagrange winner {report['winner']!r} at k={k}"
        return None

    return check


def _check_theorem(k: int, parity: str, path: Path):
    def check(result: CliResult):
        report, problem = _verify_report(result, f"theorem-{parity}", path)
        if problem:
            return problem
        params = report["parameters"]
        if params["mismatches"]:
            return f"theorem scan at k={k} reports mismatches {params['mismatches'][:2]}"
        if not _close(params["crossover"], ref.crossover_aspect(k), 1e-12):
            return f"crossover {params['crossover']!r} at k={k}, reference {ref.crossover_aspect(k)!r}"
        if parity == "odd":
            alt = ref.odd_crossover_line_count(k)
            if not _close(params["crossover_line_count_formula"], alt, 1e-12):
                return f"line-count crossover {params['crossover_line_count_formula']!r}, reference {alt!r}"
            if params["formulas_disagree"] is not True:
                return f"odd k={k}: the two crossover formulas are not flagged as disagreeing"
        p = params["table_at_p"]
        values = {}
        for name, value in report["candidates"]:
            v, h = (int(part) for part in name[2:-1].split(","))
            values[name] = ref.net_scale_factor(ref.evenly_spaced_cuts(v), ref.evenly_spaced_cuts(h), p)
            if not _close(value, values[name], CURVE_RTOL):
                return f"enumeration {name} at p={p!r}: {value!r}, reference {values[name]!r}"
        if values[report["winner"]] > min(values.values()) * (1.0 + CURVE_RTOL):
            return f"enumeration winner {report['winner']} does not attain the minimum at p={p!r}"
        return None

    return check


def _check_curve_table(n: float, grid, precision: int, fmt: str):
    def check(text: str):
        if fmt == "csv":
            notes, rows = _parse_csv(text)
        else:
            payload = json.loads(text)
            notes = payload["markers"]
            rows = [(s["p"], s["c"], s["branch"]) for s in payload["samples"]]
        if not ref.printed_match(notes["plateau_end"], n, precision):
            return f"plateau_end {notes['plateau_end']!r}, expected {n!r}"
        w = ref.crossover_w(n)
        if not ref.printed_match(notes["vertical_end"], w, precision):
            return f"vertical_end {notes['vertical_end']!r}, reference w_n {w!r}"
        return _rows(rows, grid, precision, _curve_expected(n))

    return check


def _check_base_table(k: int, grid, precision: int, fmt: str):
    def check(text: str):
        if fmt == "csv":
            notes, rows = _parse_csv(text)
        else:
            payload = json.loads(text)
            notes = payload["annotations"]
            rows = [(s["p"], s["c"], s["branch"]) for s in payload["samples"]]
        if not ref.printed_match(notes["crossover_aspect"], ref.crossover_aspect(k), precision):
            return f"crossover_aspect {notes['crossover_aspect']!r} at k={k}"
        if k % 2 == 1 and not ref.printed_match(
            notes["crossover_aspect_line_count"], ref.odd_crossover_line_count(k), precision
        ):
            return f"crossover_aspect_line_count {notes['crossover_aspect_line_count']!r} at k={k}"
        return _rows(rows, grid, precision, _base_expected(k))

    return check


def _check_net(k: int, p: float, precision: int):
    def check(text: str):
        payload = json.loads(text)
        v, h = ref.optimal_split(k, p)
        cuts_v, cuts_h = ref.evenly_spaced_cuts(v), ref.evenly_spaced_cuts(h)
        net = payload["net"]
        if len(net["vertical"]) != v or len(net["horizontal"]) != h:
            return f"optimal net at k={k}, p={p}: N({len(net['vertical'])},{len(net['horizontal'])}), expected N({v},{h})"
        for got, want in zip(net["vertical"] + net["horizontal"], cuts_v + cuts_h):
            if abs(got - want) > 1e-15:
                return f"cut {got!r}, expected {want!r}"
        scale = ref.net_scale_factor(cuts_v, cuts_h, p)
        if not ref.printed_match(payload["scale_factor"], scale, precision):
            return f"scale_factor {payload['scale_factor']!r}, reference {scale!r}"
        hole = payload["maximizing_hole"]
        width, height = 1.0 / (v + 1), 1.0 / (h + 1)
        if not (ref.printed_match(hole["width"], width, precision) and ref.printed_match(hole["height"], height, precision)):
            return f"maximizing hole {hole['width']!r} x {hole['height']!r}, expected {width!r} x {height!r}"
        aspect = max(width, height) / min(width, height)
        branch = ref.curve(aspect, p)[1]
        if ref.curve_branch_gap(aspect, p) > LABEL_GAP and payload["placement"]["branch"] != branch:
            return f"placement branch {payload['placement']['branch']!r}, reference {branch!r}"
        slack = 10.0 ** (1 - precision)
        for x, y in payload["placement"]["corners"]:
            if not (hole["x0"] - slack <= x <= hole["x0"] + hole["width"] + slack
                    and hole["y0"] - slack <= y <= hole["y0"] + hole["height"] + slack):
                return f"placement corner ({x!r}, {y!r}) lies outside the maximizing hole"
        return None

    return check


# ----------------------------------------------------------------------------
# differential

# Criterion 1's grid: n in [1, 5] step 1/4, p in [1, 4n] step 1/8.
CRITERION_1 = [
    (1.0 + i / 4.0, 1.0 + j / 8.0) for i in range(17) for j in range(int(round((4.0 * (1.0 + i / 4.0) - 1.0) * 8.0)) + 1)
]
CRITERION_1_SAMPLES = 1000
# Seed-independent wide-range grids (n up to 1e9, p up to 1e12).
WIDE_CURVE = [(10.0**i, 10.0**j) for i in range(10) for j in range(13)]
WIDE_W = [10.0 ** (i / 2.0) for i in range(19)]
# crossover_w's bisection bracket fails from here on: it raises
# RootBracketError at n = 5000 and at every grid n >= 1e4, and returns a
# value 2.6e-8 relative off at n = 10^3.5.
W_BRACKET_FAILS_FROM = 10.0**3.5
W_SAMPLES = 20
# A hole aspect whose w_n the program cannot bracket: the CLI turns the
# numerical failure into a usage error.
CURVE_CLI_WIDE = ["curve", "--n", "1e4", "--p-min", "1", "--p-max", "3e4", "--step", "1000", "--format", "csv"]


def differential(rng: random.Random, out_dir: Path) -> list[Op]:
    """Closed forms and kernels, one small call each, against independent answers."""
    ops = [_curve_point(n, p, False) for n, p in rng.sample(CRITERION_1, CRITERION_1_SAMPLES)]
    ops += [_curve_point(n, p, _diagonal_cancels(n, p)) for n, p in WIDE_CURVE]
    ops += [_w_point(round(rng.uniform(1.0, 100.0), 6), False) for _ in range(W_SAMPLES)]
    ops += [_w_point(n, n >= W_BRACKET_FAILS_FROM) for n in WIDE_W]

    path = out_dir / "curve-wide.csv"
    grid = _p_grid(1.0, 3e4, 1000.0)
    content = _check_curve_table(1e4, grid, 9, "csv")

    def check_cli(result: CliResult):
        if result.code != 0:
            return f"curve --n 1e4 exited {result.code}: {result.stderr.strip()[-300:]}"
        return content(path.read_text())

    ops.append(cli_op("curve", [*CURVE_CLI_WIDE, "--out", str(path)], check_cli, path, known_fault=True))

    a, b = rng.uniform(0.2, 1.0), rng.uniform(0.2, 1.0)
    side = rng.uniform(0.3, 1.5)
    cells = [
        (ref.rectangle(a, b), ref.square_in_rectangle(a, b)),
        (ref.right_triangle(a, b), ref.square_in_right_triangle(a, b)),
        (ref.equilateral_triangle(side), ref.square_in_equilateral_triangle(side)),
        (ref.regular_hexagon(side), ref.square_in_regular_hexagon(side)),
    ]
    for points, exact in cells:
        moved = ref.moved(points, rng.uniform(0.0, 2.0 * math.pi), rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ops.append(_cell_op(moved, exact))

    for k in (3, 4, 5, 6):
        shifts = tuple(rng.uniform(0.0, EPSILON) for _ in range(k))
        ops.append(_shift_op(k, shifts))
    return ops


def _diagonal_cancels(n: float, p: float) -> bool:
    """Whether cancellation in `inscribe.diagonal_branch` can move C_n(p) beyond CURVE_RTOL.

    The program forms c^2 = t^2 (p^2 + 1) - 2 t p + 1 from terms of size
    about 1 that cancel down to about (n^2 + 1)/p^2, so its relative error
    grows like eps * p^2 / (n^2 + 1).  The points are marked where that
    estimate exceeds a tenth of the tolerance.  On the wide-range grid this
    region also holds every point where curve_sample's absolute tie rule
    (1e-12) picks the smaller candidate.
    """
    return p > n and sys.float_info.epsilon * p * p / (n * n + 1.0) > CURVE_RTOL / 10.0


def _curve_point(n: float, p: float, known_fault: bool) -> Op:
    def run():
        return tripwire.curve_sample(n, p), tripwire.oracle_curve_value(n, p)

    def check(result):
        sample, oracle = result
        exact, branch = ref.curve(n, p)
        if not _close(sample.c, exact, CURVE_RTOL):
            return f"curve_sample({n!r}, {p!r}).c = {sample.c!r}, reference {exact!r}"
        if not _close(oracle, exact, CURVE_RTOL):
            return f"oracle_curve_value({n!r}, {p!r}) = {oracle!r}, reference {exact!r}"
        if ref.curve_branch_gap(n, p) > LABEL_GAP and sample.branch != branch:
            return f"curve_sample({n!r}, {p!r}) on {sample.branch!r}, reference {branch!r}"
        return None

    return Op("curve point", run, check, known_fault)


def _w_point(n: float, known_fault: bool) -> Op:
    def check(w):
        exact = ref.crossover_w(n)
        if not _close(w, exact, CURVE_RTOL):
            return f"crossover_w({n!r}) = {w!r}, reference {exact!r}"
        return None

    return Op("crossover_w", lambda: tripwire.crossover_w(n), check, known_fault)


def _cell_op(points, exact: float) -> Op:
    def check(side):
        if not _close(side, exact, CELL_RTOL):
            return f"largest_square_in_cell({points!r}) = {side!r}, exact {exact!r}"
        return None

    return Op("largest_square_in_cell", lambda: tripwire.largest_square_in_cell(points), check)


def _shift_op(k: int, shifts: tuple[float, ...]) -> Op:
    spec = tripwire.PerturbationSpec(shifts=shifts, pivots=(0.0,) * k, epsilon=EPSILON)
    widths = ref.gaps([(i + 1) / (k + 1) + s for i, s in enumerate(shifts)])

    def check(report):
        got = dict(report.candidates)["perturbed"]
        if not _close(got, max(widths), CELL_RTOL):
            return f"pure-shift k={k}: perturbed {got!r}, widest gap {max(widths)!r}"
        for value, width in zip(report.parameters["cell_values"], widths):
            if not _close(value, width, CELL_RTOL):
                return f"pure-shift k={k}: cell value {value!r}, gap {width!r}"
        if not report.passed:
            return f"pure-shift k={k}: report failed: {report.failures[:1]}"
        return None

    return Op("local_perturbation_experiment", lambda: tripwire.local_perturbation_experiment(k, spec), check)


WORKLOADS = {
    "local-optimum": local_optimum,
    "theorems": theorems,
    "differential": differential,
}

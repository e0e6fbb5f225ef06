"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance] criterion N ...: PASS/FAIL` line
(visible with `pytest -s` or on failure).  Randomized criteria use the
fixed seed below so runs are reproducible.
"""

import math
import time

import pytest

from tripwire.cells import PerturbationSpec
from tripwire.cli import OutputSpec, cmd_base_curve, cmd_curve
from tripwire.inscribe import crossover_w, curve_value, diagonal_branch
from tripwire.nets import (
    crossover_aspect,
    evenly_spaced,
    net_scale_factor,
    odd_crossover_line_count,
)
from tripwire.oracle import (
    enumerate_axis_nets,
    irregular_spacing_check,
    lagrange_split_check,
    local_perturbation_experiment,
    oracle_curve_value,
    perturbation_suite,
    theorem_scan,
)

SEED = 20260808


def verdict(num: int, label: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {label}: {status}{suffix}")
    return ok


def test_criterion_1_closed_form_vs_oracle():
    start = time.monotonic()
    worst = 0.0
    count = 0
    n = 1.0
    while n <= 5.0 + 1e-9:
        p = 1.0
        while p <= 4.0 * n + 1e-9:
            exact = oracle_curve_value(n, p)
            worst = max(worst, abs(curve_value(n, p) - exact) / exact)
            count += 1
            p += 0.125
        n += 0.25
    elapsed = time.monotonic() - start
    ok = worst <= 1e-13 and elapsed < 30.0
    assert verdict(
        1,
        "closed form vs exact rectangle kernel",
        ok,
        f"max |dc|/c = {worst:.2e} over {count} points in {elapsed:.1f}s",
    )


def test_criterion_2_branch_meeting_points():
    w1 = crossover_w(1)
    ok = abs(w1 - (1 + math.sqrt(2))) <= 1e-9
    worst = 0.0
    for n in (1, 2, 3, 4, 5):
        w = crossover_w(n)
        worst = max(worst, abs(diagonal_branch(n, w).c - n / w))
    ok = ok and worst < 1e-10
    assert verdict(
        2,
        "vertical/diagonal meeting points",
        ok,
        f"|w_1 - (1+sqrt 2)| = {abs(w1 - 1 - math.sqrt(2)):.2e}, max residual {worst:.2e}",
    )


def test_criterion_3_corner_contact_residuals():
    worst = 0.0
    for i in range(0, 41):
        n = 1.0 + i * 0.1
        for j in range(1, 49):
            p = n * (1.0 + j / 16.0)
            sol = diagonal_branch(n, p)
            r1 = abs(sol.a1 / sol.a2 - (n - sol.a2) / (1.0 - sol.a1))
            r2 = abs(sol.a1**2 + sol.a2**2 - sol.c**2)
            r3 = abs((1.0 - sol.a1) ** 2 + (n - sol.a2) ** 2 - (sol.c * p) ** 2)
            worst = max(worst, r1, r2, r3)
    ok = worst < 1e-12
    assert verdict(3, "corner-contact equation residuals", ok, f"max residual {worst:.2e}")


def test_criterion_4_even_theorem_by_enumeration():
    start = time.monotonic()
    mismatches = []
    for k in range(2, 13, 2):
        scan = theorem_scan(k)
        assert scan.parameters["crossover"] == (k + 1) / (k // 2 + 1)
        mismatches.extend(f"k={k}: {m}" for m in scan.failures)
    elapsed = time.monotonic() - start
    ok = not mismatches and elapsed < 60.0
    assert verdict(
        4,
        "even-k optimal net over the p grid",
        ok,
        f"{mismatches[:3] if mismatches else 'no mismatches'} in {elapsed:.1f}s",
    )


def test_criterion_5_odd_theorem_with_corrected_crossover():
    problems = []
    for k in range(3, 12, 2):
        x = crossover_aspect(k)
        if abs(x - 2.0) > 1e-12:
            problems.append(f"k={k}: corrected crossover {x!r} != 2")
        scan = theorem_scan(k)
        problems.extend(f"k={k}: {m}" for m in scan.failures)
        below = enumerate_axis_nets(k, x - 1 / 64)
        above = enumerate_axis_nets(k, x + 1 / 64)
        if below.winner != f"N({k},0)":
            problems.append(f"k={k}: below crossover winner {below.winner}")
        if above.winner != f"N({k - k // 2},{k // 2})":
            problems.append(f"k={k}: above crossover winner {above.winner}")
        if not scan.parameters["formulas_disagree"]:
            problems.append(f"k={k}: line-count formula not flagged")
    # the k=3 disagreement specifically: line-count formula 1 vs enumerated switch 2
    if odd_crossover_line_count(3) != 1.0:
        problems.append("k=3 line-count formula value changed")
    ok = not problems
    assert verdict(
        5,
        "odd-k switch at the corrected crossover",
        ok,
        problems[:3] if problems else "switch at 2 for all odd k, k=3 flag present",
    )


def test_criterion_6_regular_beats_irregular():
    failures = []
    worst = math.inf
    for k in range(1, 7):
        report = irregular_spacing_check(k, [1.0, 1.5, 2.0, 3.0, 5.0], trials=1000, seed=SEED)
        worst = min(worst, min(v for _, v in report.candidates))
        if not report.passed:
            failures.extend(report.failures[:2])
    ok = not failures
    assert verdict(
        6,
        "random jitter never beats even spacing",
        ok,
        f"worst margin {worst:.2e} over 30 (k, p) pairs x 1000 trials",
    )


def test_criterion_7_split_check_minimum_at_balanced():
    problems = []
    for k in range(2, 13, 2):
        for p in (2.5, 3.0, 4.0, 6.0, 10.0):
            report = lagrange_split_check(k, p)
            if report.parameters["c_prime"] != diagonal_branch(1, p).c / (k // 2 + 1):
                problems.append(f"k={k}, p={p}: c' {report.parameters['c_prime']!r}")
            if not report.passed or report.winner != f"N({k // 2},{k // 2})":
                problems.append(f"k={k}, p={p}: winner {report.winner}")
    ok = not problems
    assert verdict(
        7,
        "diagonal split check minimized at v = h",
        ok,
        problems[:3] if problems else "balanced split minimal for all even k <= 12",
    )


def test_criterion_8_local_optimum_under_perturbation():
    start = time.monotonic()
    problems = []
    worst_margin = math.inf
    for k in (3, 4, 5, 6):
        report = perturbation_suite(k, trials=500, epsilon=0.02, seed=SEED)
        worst_margin = min(worst_margin, report.parameters["min_perturbed"] - 1.0 / (k + 1))
        if not report.passed:
            problems.extend(report.failures[:2])

        # analytic example: shifting one middle line by delta widens its left
        # neighbor into a (1/(k+1) + delta) x 1 slab
        delta = 0.01
        shifts = [0.0] * k
        shifts[k // 2] = delta
        spec = PerturbationSpec(shifts=tuple(shifts), pivots=(0.0,) * k, epsilon=delta)
        value = dict(local_perturbation_experiment(k, spec).candidates)["perturbed"]
        if abs(value - (1.0 / (k + 1) + delta)) > 1e-9:
            problems.append(f"k={k}: shift example value {value!r}")

    # analytic example: pivoting one interior line admits a strictly larger
    # square in the widened trapezoid next to it
    t = math.tan(0.02)
    spec = PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0, 0.02, 0.0), epsilon=0.02)
    value = dict(local_perturbation_experiment(3, spec).candidates)["perturbed"]
    if not (value > 0.25 and value >= (0.25 + 0.5 * t) / (1.0 + t) - 1e-9):
        problems.append(f"pivot example value {value!r}")

    elapsed = time.monotonic() - start
    ok = not problems and elapsed < 300.0
    assert verdict(
        8,
        "even spacing is a local optimum (500 specs/k)",
        ok,
        f"worst margin {worst_margin:.2e}, {elapsed:.0f}s"
        + (f"; {problems[:2]}" if problems else ""),
    )


def read_csv_table(path):
    """(notes, samples) of a written CSV table: the '# key=value' lines as
    floats, then one (p, c, branch) per row after the header."""
    lines = path.read_text().splitlines()
    notes = {key: float(value) for key, value in (line[2:].split("=") for line in lines if line.startswith("# "))}
    rows = [line.split(",") for line in lines if not line.startswith(("# ", "p,c,branch"))]
    return notes, [(float(p), float(c), branch) for p, c, branch in rows]


def test_criterion_9_figure_reproduction(tmp_path):
    problems = []

    cmd_curve(1.0, 1.0, 4.0, 0.01, OutputSpec(format="csv", path=str(tmp_path / "curve.csv"), precision=12))
    markers, samples = read_csv_table(tmp_path / "curve.csv")
    values = [c for _, c, _ in samples]
    if not all(b <= a + 1e-12 for a, b in zip(values, values[1:])):
        problems.append("inscribing curve not non-increasing")
    if abs(markers["plateau_end"] - 1.0) > 1e-9:
        problems.append("plateau marker off")
    if abs(markers["vertical_end"] - (1 + math.sqrt(2))) > 1e-9:
        problems.append("vertical/diagonal marker does not match w_1")
    switch = [p for p, _, branch in samples if branch == "diagonal"]
    if not switch or abs(switch[0] - (1 + math.sqrt(2))) > 0.011:
        problems.append("branch switch in samples away from w_1")

    cmd_base_curve(4, 1.0, 4.0, 0.01, OutputSpec(format="csv", path=str(tmp_path / "base.csv"), precision=12))
    annotations, base_samples = read_csv_table(tmp_path / "base.csv")
    base_values = [c for _, c, _ in base_samples]
    if not all(b <= a + 1e-12 for a, b in zip(base_values, base_values[1:])):
        problems.append("base curve not non-increasing")
    annotated = annotations["crossover_aspect"]
    if abs(annotated - crossover_aspect(4)) > 1e-9 or abs(annotated - 5 / 3) > 1e-9:
        problems.append("base curve crossover annotation off")
    switch = [p for p, _, branch in base_samples if branch == "grid"]
    if not switch or abs(switch[0] - 5 / 3) > 0.011:
        problems.append("family switch in samples away from the crossover")
    # the two base-curve arms really meet there: scores of the two nets agree
    tie_gap = abs(
        net_scale_factor(evenly_spaced(4, 0), 5 / 3) - net_scale_factor(evenly_spaced(2, 2), 5 / 3)
    )
    if tie_gap > 1e-12:
        problems.append(f"family tie gap {tie_gap:.2e} at the crossover")

    ok = not problems
    assert verdict(9, "figure reproduction shape checks", ok, problems[:3] if problems else "")

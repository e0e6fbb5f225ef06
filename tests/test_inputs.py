"""Every numeric parameter of the public API takes reals and counts by one policy.

A real is a finite numbers.Real that is not a bool; a count is a
numbers.Integral that is not a bool (tripwire.errors).  So None, a
string, a bool, NaN and infinity raise DomainError everywhere, and numpy
scalars are accepted and give the same result as Python numbers.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import tripwire as tw
from tripwire import DomainError, errors
from tripwire.errors import _chunks

REAL, COUNT = "real", "count"

TRIANGLE = [(0, 0), (1, 0), (0, 1)]
ZERO_SPEC = tw.PerturbationSpec(shifts=(0.0,) * 3, pivots=(0.0,) * 3, epsilon=0.0)
N10 = tw.evenly_spaced(1, 0)

# (id, call of the one parameter under test, a valid value, its kind)
CASES = [
    ("arrangement_cells-nx", lambda x: tw.arrangement_cells([(x, 0, 1)]), 2, REAL),
    ("arrangement_cells-ny", lambda x: tw.arrangement_cells([(0, x, 1)]), 2, REAL),
    ("arrangement_cells-b", lambda x: tw.arrangement_cells([(2, 0, x)]), 1, REAL),
    ("largest_rectangles-p", lambda x: tw.largest_rectangles([TRIANGLE], x), 2, REAL),
    ("largest_rectangles-vertex", lambda x: tw.largest_rectangles([[(0, 0), (x, 0), (0, 1)]], 2), 1, REAL),
    ("largest_squares-vertex", lambda x: tw.largest_squares([[(0, 0), (1, 0), (0, x)]]), 1, REAL),
    ("largest_square_in_cell-vertex", lambda x: tw.largest_square_in_cell([(x, 0), (1, 0), (0, 1)]), 0, REAL),
    ("PerturbationSpec-shift", lambda x: tw.PerturbationSpec(shifts=(x, 0, 0), pivots=(0, 0, 0), epsilon=1), 0, REAL),
    ("PerturbationSpec-pivot", lambda x: tw.PerturbationSpec(shifts=(0, 0, 0), pivots=(0, x, 0), epsilon=1), 1, REAL),
    ("PerturbationSpec-epsilon", lambda x: tw.PerturbationSpec(shifts=(0, 0, 0), pivots=(0, 0, 0), epsilon=x), 1, REAL),
    ("perturbed_vertical_lines-k", lambda x: tw.perturbed_vertical_lines(x, ZERO_SPEC), 3, COUNT),
    ("check_real-value", lambda x: tw.check_real(x, "value"), 2, REAL),
    ("check_count-value", lambda x: tw.check_count(x, "value"), 2, COUNT),
    ("crossover_w-n", lambda x: tw.crossover_w(x), 2, REAL),
    ("curve_sample-n", lambda x: tw.curve_sample(x, 5), 2, REAL),
    ("curve_sample-p", lambda x: tw.curve_sample(2, x), 5, REAL),
    ("curve_value-n", lambda x: tw.curve_value(x, 5), 2, REAL),
    ("curve_value-p", lambda x: tw.curve_value(2, x), 5, REAL),
    ("diagonal_branch-n", lambda x: tw.diagonal_branch(x, 5), 2, REAL),
    ("diagonal_branch-p", lambda x: tw.diagonal_branch(2, x), 5, REAL),
    ("placement-n", lambda x: tw.placement(x, 7), 2, REAL),
    ("placement-p", lambda x: tw.placement(2, x), 7, REAL),
    ("p_grid-p_min", lambda x: tw.p_grid(x, 4, 0.5), 1, REAL),
    ("p_grid-p_max", lambda x: tw.p_grid(1, x, 0.5), 4, REAL),
    ("p_grid-step", lambda x: tw.p_grid(1, 4, x), 1, REAL),
    ("Net-vertical", lambda x: tw.Net(vertical=(x,), horizontal=()), 0.5, REAL),
    ("Net-horizontal", lambda x: tw.Net(vertical=(), horizontal=(0.25, x)), 0.5, REAL),
    ("net_from_dict-cut", lambda x: tw.net_from_dict({"vertical": [x], "horizontal": []}), 0.5, REAL),
    ("base_curve-k", lambda x: tw.base_curve(x, 2), 3, COUNT),
    ("base_curve-p", lambda x: tw.base_curve(3, x), 2, REAL),
    ("crossover_aspect-k", lambda x: tw.crossover_aspect(x), 4, COUNT),
    ("evenly_spaced-v", lambda x: tw.evenly_spaced(x, 1), 2, COUNT),
    ("evenly_spaced-h", lambda x: tw.evenly_spaced(2, x), 1, COUNT),
    ("hole_scale-w", lambda x: tw.hole_scale(x, 2, 3), 1, REAL),
    ("hole_scale-h", lambda x: tw.hole_scale(1, x, 3), 2, REAL),
    ("hole_scale-p", lambda x: tw.hole_scale(1, 2, x), 3, REAL),
    ("maximizing_hole-p", lambda x: tw.maximizing_hole(N10, x), 2, REAL),
    ("net_scale_factor-p", lambda x: tw.net_scale_factor(N10, x), 2, REAL),
    ("odd_crossover_line_count-k", lambda x: tw.odd_crossover_line_count(x), 3, COUNT),
    ("optimal_net-k", lambda x: tw.optimal_net(x, 3), 2, COUNT),
    ("optimal_net-p", lambda x: tw.optimal_net(2, x), 3, REAL),
    ("curve_oracle_check-n", lambda x: tw.curve_oracle_check(x), 1, REAL),
    ("enumerate_axis_nets-k", lambda x: tw.enumerate_axis_nets(x, 2), 2, COUNT),
    ("enumerate_axis_nets-p", lambda x: tw.enumerate_axis_nets(2, x), 2, REAL),
    ("irregular_spacing_check-k", lambda x: tw.irregular_spacing_check(x, [2.0], 2, 0), 2, COUNT),
    ("irregular_spacing_check-p", lambda x: tw.irregular_spacing_check(2, [x], 2, 0), 2, REAL),
    ("irregular_spacing_check-trials", lambda x: tw.irregular_spacing_check(2, [2.0], x, 0), 2, COUNT),
    ("irregular_spacing_check-seed", lambda x: tw.irregular_spacing_check(2, [2.0], 2, x), 0, COUNT),
    ("lagrange_split_check-k", lambda x: tw.lagrange_split_check(x, 5), 4, COUNT),
    ("lagrange_split_check-p", lambda x: tw.lagrange_split_check(4, x), 5, REAL),
    ("local_perturbation_experiment-k", lambda x: tw.local_perturbation_experiment(x, ZERO_SPEC), 3, COUNT),
    ("oracle_curve_value-n", lambda x: tw.oracle_curve_value(x, 2), 1, REAL),
    ("oracle_curve_value-p", lambda x: tw.oracle_curve_value(1, x), 2, REAL),
    ("perturbation_suite-k", lambda x: tw.perturbation_suite(x, 1, 0.02, 0), 3, COUNT),
    ("perturbation_suite-trials", lambda x: tw.perturbation_suite(3, x, 0.02, 0), 1, COUNT),
    ("perturbation_suite-epsilon", lambda x: tw.perturbation_suite(3, 1, x, 0), 0, REAL),
    ("perturbation_suite-seed", lambda x: tw.perturbation_suite(3, 1, 0.02, x), 0, COUNT),
    ("theorem_scan-k", lambda x: tw.theorem_scan(x), 2, COUNT),
]

BAD = [None, "2", True, math.nan, math.inf, -math.inf]
BAD_IDS = ["none", "str", "bool", "nan", "inf", "-inf"]


def _numpy_values(good, kind):
    values = [] if kind == COUNT else [np.float64(good)]
    if good == int(good):
        values.append(np.int64(good))
    return values


@pytest.mark.parametrize("call, good, kind", [pytest.param(*case[1:], id=case[0]) for case in CASES])
@pytest.mark.parametrize("bad", BAD, ids=BAD_IDS)
def test_bad_number_is_a_domain_error(call, good, kind, bad):
    call(good)
    with pytest.raises(DomainError):
        call(bad)


@pytest.mark.parametrize("call, good, kind", [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_numpy_scalars_are_accepted(call, good, kind):
    # repr also catches a numpy scalar that leaks into a result
    expected = repr(call(good))
    for value in _numpy_values(good, kind):
        assert repr(call(value)) == expected


def test_every_export_with_a_numeric_parameter_is_covered():
    # records (CurveSample, DiagonalSolution, Placement, HoleGrid,
    # VerificationReport) check nothing; holes takes a Net
    covered = {case[0].split("-")[0] for case in CASES}
    unchecked = {"CurveSample", "DiagonalSolution", "Placement", "HoleGrid", "VerificationReport", "holes", "net_to_dict"}
    exported = {name for name in dir(tw) if callable(getattr(tw, name)) and not name.endswith("Error")}
    assert exported - unchecked == covered


@pytest.mark.parametrize("value", [2.5, 2, np.float64(2.5), np.int64(2), np.float32(2.5)])
def test_check_real_returns_a_float(value):
    assert type(tw.check_real(value, "x")) is float


@pytest.mark.parametrize("value", [2.5, np.float64(2.0), "2", None, True, np.bool_(True)])
def test_check_count_rejects_non_integers(value):
    with pytest.raises(DomainError, match="x must be an integer"):
        tw.check_count(value, "x")


def test_check_count_returns_an_int():
    assert type(tw.check_count(np.int64(2), "x")) is int


def test_bounds_and_messages():
    with pytest.raises(DomainError, match=r"^p must be >= 1, got 0\.5$"):
        tw.check_real(0.5, "p", 1)
    with pytest.raises(DomainError, match=r"^p must be a real number, got '2'$"):
        tw.check_real("2", "p")
    with pytest.raises(DomainError, match=r"^p must be finite, got nan$"):
        tw.check_real(np.float64("nan"), "p")
    # an int too large for a float is not finite either
    with pytest.raises(DomainError, match="must be finite"):
        tw.check_real(10**400, "p")
    with pytest.raises(DomainError, match=r"^k must be >= 2, got 1$"):
        tw.check_count(1, "k", 2)


@given(count=st.integers(0, 5000), item_bytes=st.integers(0, 1 << 21), budget=st.integers(1, 1 << 20))
def test_chunks_cover_the_items_in_order_within_the_budget(count, item_bytes, budget):
    # each chunk fits the budget or holds one item, and every chunk but
    # the last holds as many items as fit
    errors.MEMORY_BUDGET, saved = budget, errors.MEMORY_BUDGET
    try:
        bounds = _chunks(count, item_bytes)
    finally:
        errors.MEMORY_BUDGET = saved
    assert [i for lo, hi in bounds for i in range(lo, hi)] == list(range(count))
    sizes = [hi - lo for lo, hi in bounds]
    assert all(size >= 1 for size in sizes)
    assert all(size * item_bytes <= budget or size == 1 for size in sizes)
    assert all((size + 1) * max(1, item_bytes) > budget for size in sizes[:-1])

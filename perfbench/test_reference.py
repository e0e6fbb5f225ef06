"""Checks of the benchmark's reference module at known points.

    python3 -m pytest perfbench/test_reference.py
"""

import math

import pytest

import reference as ref


def test_w1_is_one_plus_sqrt2():
    assert ref.crossover_w(1.0) == pytest.approx(1.0 + math.sqrt(2.0), rel=1e-15)


@pytest.mark.parametrize("n", [1.0, 2.0, 5.0, 50.0, 1e3, 1e6, 1e9])
def test_w_is_the_largest_root_of_the_quartic(n):
    w = ref.crossover_w(n)
    assert w > n
    # Relative to the size of the quartic's terms, the residual is rounding only.
    scale = w**4 + 4.0 * n * w**3 + (3.0 * n * n + 1.0) * w * w + n * n
    assert abs(ref.quartic(n, w)) <= 1e-12 * scale
    # Nothing above w changes sign: the quartic is increasing past its largest root.
    assert ref.quartic(n, w * (1.0 + 1e-6)) > 0.0


@pytest.mark.parametrize("n", [1.0, 2.0, 5.0, 50.0])
def test_w_joins_the_vertical_and_diagonal_branches(n):
    w = ref.crossover_w(n)
    assert ref.curve(n, w * (1.0 - 1e-6))[1] == ref.VERTICAL
    assert ref.curve(n, w * (1.0 + 1e-6))[1] == ref.DIAGONAL


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 1.0 + math.sqrt(2.0), 3.0, 10.0, 1e8, 1e12])
def test_c1_is_max_of_vertical_and_diagonal(p):
    expected = max(1.0 / p, math.sqrt(2.0) / (1.0 + p))
    assert ref.curve(1.0, p)[0] == pytest.approx(expected, rel=1e-15)


def test_curve_plateau_and_continuity_at_p_equals_n():
    assert ref.curve(3.0, 3.0) == (1.0, ref.PLATEAU)
    assert ref.curve(3.0, 3.0 * (1.0 + 1e-12))[0] == pytest.approx(1.0, rel=1e-11)


def test_net_scale_factor_uses_the_largest_hole():
    # N(2,0) has 1/3-wide columns; a square intruder (p = 1) fits at 1/3.
    assert ref.net_scale_factor([1 / 3, 2 / 3], [], 1.0) == pytest.approx(1 / 3)
    # Uneven cuts: widest column 0.5, tallest row 0.6.
    expected = 0.5 * ref.curve(0.6 / 0.5, 2.0)[0]
    assert ref.net_scale_factor([0.2, 0.5], [0.6], 2.0) == pytest.approx(expected)


def test_crossover_formulas():
    assert ref.crossover_aspect(4) == pytest.approx(5 / 3)
    assert ref.crossover_aspect(3) == 2.0
    assert ref.odd_crossover_line_count(3) == 1.0
    assert ref.optimal_split(4, 1.5) == (4, 0)
    assert ref.optimal_split(4, 2.0) == (2, 2)


def test_analytic_squares():
    assert ref.square_in_rectangle(0.3, 1.0) == 0.3
    assert ref.square_in_right_triangle(1.0, 1.0) == 0.5
    assert ref.square_in_equilateral_triangle(1.0) == pytest.approx(0.4641016151377544)
    assert ref.square_in_regular_hexagon(1.0) == pytest.approx(1.2679491924311228)


def test_perturbation_bound():
    assert ref.perturbation_upper_bound(3, 0.0) == 0.25
    assert ref.perturbation_upper_bound(3, 0.02) == pytest.approx(0.25 + 0.02 + math.tan(0.02))


def test_printed_match():
    assert ref.printed_match(0.333333333, 1 / 3, 9)
    assert not ref.printed_match(0.333333334, 1 / 3, 9)
    assert ref.printed_match(1.23457, 1.234565, 6)

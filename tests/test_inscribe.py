import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tripwire import inscribe
from tripwire.cli import OutputSpec, cmd_base_curve
from tripwire.errors import DomainError
from tripwire.inscribe import (
    BRANCH_DIAGONAL,
    BRANCH_PLATEAU,
    BRANCH_VERTICAL,
    HUGE_P,
    MAX_P_SAMPLES,
    TIE_RTOL,
    _sample,
    _samples,
    _value,
    _values,
    check_aspect,
    crossover_w,
    curve_sample,
    curve_value,
    diagonal_branch,
    p_grid,
    placement,
)
from tripwire.oracle import irregular_spacing_check, oracle_curve_value, theorem_scan


def cubic(n, p):
    """p^3 - 3n p^2 + p + n in exact arithmetic: for p > n, positive where the diagonal beats n/p."""
    fp, fn = Fraction(p), Fraction(n)
    return fp**3 - 3 * fn * fp**2 + fp + fn


def takewhile_p_grid(p_min, p_max, step):
    """p_grid's points as the loop that it replaced built them, one at a time: TestPGrid's reference."""
    points = (p_min + i * step for i in itertools.count())
    return [min(p, p_max) for p in itertools.takewhile(lambda p: p <= p_max + 1e-9 * step, points)]


def equation_residuals(n, p, sol):
    r1 = abs(sol.a1 / sol.a2 - (n - sol.a2) / (1.0 - sol.a1))
    r2 = abs(sol.a1**2 + sol.a2**2 - sol.c**2)
    r3 = abs((1.0 - sol.a1) ** 2 + (n - sol.a2) ** 2 - (sol.c * p) ** 2)
    return r1, r2, r3


class TestDiagonalBranch:
    def test_square_hole_aspect_three(self):
        sol = diagonal_branch(1, 3)
        assert sol.a1 == pytest.approx(0.25, abs=1e-15)
        assert sol.a2 == pytest.approx(0.25, abs=1e-15)
        assert sol.c == pytest.approx(math.sqrt(2) / 4, abs=1e-15)
        # independent confirmation by the exact rectangle kernel
        assert sol.c == pytest.approx(oracle_curve_value(1, 3), rel=1e-14)

    def test_two_by_five(self):
        sol = diagonal_branch(2, 5)
        # t = (2-5)/(1-25) = 0.125
        assert sol.a2 == pytest.approx(0.125, abs=1e-15)
        assert sol.a1 == pytest.approx(0.375, abs=1e-15)
        assert sol.c == pytest.approx(math.sqrt(0.15625), abs=1e-15)

    def test_corners_sit_on_the_four_hole_sides(self):
        n, p = 2.0, 5.0
        sol = diagonal_branch(n, p)
        (x1, y1), (x2, y2), (x3, y3), (x4, y4) = sol.corners
        assert (x1, y1) == (sol.a1, 0.0)
        assert (x2, y2) == (1.0, n - sol.a2)
        assert (x3, y3) == (1.0 - sol.a1, n)
        assert (x4, y4) == (0.0, sol.a2)

    @pytest.mark.parametrize("n,p", [(1.0, 1.0), (2.0, 2.0), (3.0, 2.0), (1.0, 0.5)])
    def test_rejects_p_at_most_n(self, n, p):
        with pytest.raises(DomainError):
            diagonal_branch(n, p)

    def test_constraints_degenerate_toward_p_equals_n(self):
        # approaching p = n the contact points collapse into hole corners
        sol = diagonal_branch(2, 2 + 1e-8)
        assert sol.a2 < 1e-8
        assert sol.a1 > 1.0 - 1e-7
        assert sol.c > 1.0 - 1e-7

    @pytest.mark.parametrize("n", [1.0, 1.5, 2.0, 3.0, 4.0, 5.0])
    def test_residuals_on_grid(self, n):
        for j in range(1, 49):
            p = n * (1.0 + j / 16.0)
            r1, r2, r3 = equation_residuals(n, p, diagonal_branch(n, p))
            assert r1 < 1e-12 and r2 < 1e-12 and r3 < 1e-12

    @pytest.mark.parametrize("n", [*np.logspace(0.0, 9.0, 10), 1.0 + 1e-12])
    def test_c_matches_exact_rational_value(self, n):
        # q, a1 and a2 each carry a few roundings, none of them cancels, and
        # hypot adds under an ulp, so c lies within a few ulps (~1e-15
        # relative) of c^2 = a1^2 + a2^2 evaluated exactly; 1e-14 leaves
        # headroom for that and no more.
        ps = [n * (1.0 + d) for d in (1e-12, 1e-9, 1e-6, 1e-3)]
        ps += [n * (1e12 / n) ** (j / 8) for j in range(1, 9)]
        for p in ps:
            fn, fp = Fraction(n), Fraction(p)
            q = (fp - 1) * (fp + 1)
            exact = math.sqrt(((fp * fn - 1) / q) ** 2 + ((fp - fn) / q) ** 2)
            assert diagonal_branch(n, p).c == pytest.approx(exact, rel=1e-14), (n, p)


class TestCurveValue:
    def test_plateau(self):
        assert curve_value(2, 1.5) == 1.0
        assert curve_sample(2, 1.5).branch == BRANCH_PLATEAU

    def test_unit_square(self):
        assert curve_value(1, 1) == 1.0

    def test_vertical_diagonal_meeting_point(self):
        p = 1 + math.sqrt(2)
        sample = curve_sample(1, p)
        assert sample.c == pytest.approx(math.sqrt(2) - 1, abs=1e-12)
        # both branches coincide there; the tie goes to the vertical label
        assert sample.branch == BRANCH_VERTICAL
        assert abs(diagonal_branch(1, p).c - 1 / p) < 1e-12

    def test_two_by_five_takes_the_larger_vertical_placement(self):
        # the diagonal solution gives sqrt(0.15625) ~ 0.39528, but the
        # vertical placement 2/5 = 0.4 is larger (w_2 ~ 5.77 > 5) and the
        # curve is the max over placements; the oracle agrees
        sample = curve_sample(2, 5)
        assert sample.c == pytest.approx(0.4, abs=1e-15)
        assert sample.branch == BRANCH_VERTICAL
        assert sample.c == pytest.approx(oracle_curve_value(2, 5), rel=1e-14)

    def test_diagonal_wins_beyond_w2(self):
        sample = curve_sample(2, 6)
        assert sample.branch == BRANCH_DIAGONAL
        assert sample.c == pytest.approx(diagonal_branch(2, 6).c, abs=1e-15)
        assert sample.c == pytest.approx(oracle_curve_value(2, 6), rel=1e-14)

    @pytest.mark.parametrize("n,p", [(1.0, 1e12), (1.0, 1e9), (10.0, 1e12), (1e3, 1e12)])
    def test_tiny_values_keep_the_diagonal_branch(self, n, p):
        # the diagonal placement beats n/p by a factor near sqrt(n^2+1)/n,
        # however small both are
        sample = curve_sample(n, p)
        assert sample.branch == BRANCH_DIAGONAL
        assert sample.c == diagonal_branch(n, p).c
        assert sample.c == pytest.approx(math.sqrt(n * n + 1) / p, rel=1e-6)

    @pytest.mark.parametrize("n,p", [(0.5, 2.0), (2.0, 0.5), (float("nan"), 2.0), (1.0, float("inf"))])
    def test_domain_errors(self, n, p):
        with pytest.raises(DomainError):
            curve_value(n, p)

    @pytest.mark.parametrize("value", [True, False])
    def test_bool_aspect_rejected(self, value):
        with pytest.raises(DomainError):
            check_aspect(value)
        with pytest.raises(DomainError):
            curve_value(2.0, value)

    @pytest.mark.parametrize("n", [1.0, 2.0, 3.5])
    def test_monotone_and_continuous(self, n):
        prev = None
        p = 1.0
        while p <= 4.0 * n:
            c = curve_value(n, p)
            if prev is not None:
                assert c <= prev + 1e-12
                assert abs(c - prev) < 1e-2
            prev = c
            p += 1e-3

    @given(
        n=st.floats(min_value=1.0, max_value=5.0),
        p=st.floats(min_value=1.0, max_value=20.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_max_of_candidates_properties(self, n, p):
        c = curve_value(n, p)
        assert 0.0 < c <= 1.0
        if p >= n:
            assert c >= n / p - 1e-12
        if p > n * (1 + 1e-9):
            assert c >= diagonal_branch(n, p).c - 1e-12

    @given(
        n=st.floats(min_value=1.0, max_value=5.0),
        scale=st.floats(min_value=1e-6, max_value=0.98),
    )
    @settings(max_examples=200, deadline=None)
    def test_diagonal_equations_hold(self, n, scale):
        # map scale in (0, 1) to p in (n, 4n] away from the degenerate corner
        p = n * (1.0 + 3.0 * scale)
        assume(p > n * (1 + 1e-6))
        sol = diagonal_branch(n, p)
        assert 0.0 < sol.a1 < 1.0
        assert 0.0 < sol.a2 < n
        # cross-multiplied similarity residual: the quotient form amplifies
        # rounding without bound as p -> n, and is covered on the quantified
        # grid by test_residuals_on_grid
        r1x = abs(sol.a1 * (1.0 - sol.a1) - sol.a2 * (n - sol.a2))
        _, r2, r3 = equation_residuals(n, p, sol)
        assert max(r1x, r2, r3) < 1e-12


class TestCrossoverW:
    def test_square_hole_value(self):
        assert crossover_w(1) == pytest.approx(1 + math.sqrt(2), abs=1e-9)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_residual_and_location(self, n):
        w = crossover_w(n)
        assert w > n
        assert abs(diagonal_branch(n, w).c - n / w) < 1e-10

    @pytest.mark.parametrize("n", [*np.logspace(0.0, 9.0, 37), 1.0 + 1e-12, 1.4384498882876628])
    def test_neighbours_bracket_the_exact_root(self, n):
        # w_n is the largest root of p^3 - 3n p^2 + p + n; evaluated exactly,
        # the cubic changes sign between the two floats next to the result.
        w = crossover_w(n)
        assert cubic(n, math.nextafter(w, 0.0)) <= 0 <= cubic(n, math.nextafter(w, math.inf)), n

    def test_overflow_is_a_domain_error(self):
        assert crossover_w(1e300) == 3e300
        with pytest.raises(DomainError):
            crossover_w(1e308)

    def test_branch_labels_flip_across_w(self):
        w = crossover_w(2)
        assert curve_sample(2, w * (1 - 1e-6)).branch == BRANCH_VERTICAL
        assert curve_sample(2, w * (1 + 1e-6)).branch == BRANCH_DIAGONAL

    def test_oracle_crosses_at_the_same_point(self):
        # at w_n the vertical value n/p still matches the oracle's optimum,
        # and slightly beyond it the oracle exceeds n/p (diagonal regime)
        w = crossover_w(2)
        assert oracle_curve_value(2, w) == pytest.approx(2 / w, rel=1e-14)
        beyond = w * 1.05
        assert oracle_curve_value(2, beyond) > 2 / beyond + 1e-4


class TestPGrid:
    # Ends: p_max on the grid, the last point within 1e-9 of a step above
    # p_max (it becomes p_max), just beyond that, or anywhere in a step.
    @given(
        p_min=st.floats(min_value=1.0, max_value=1e12),
        step=st.floats(min_value=1e-6, max_value=1e6),
        count=st.integers(min_value=1, max_value=2000),
        end=st.sampled_from(["on-grid", "within-1e-9", "past-1e-9", "free"]),
        share=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_the_takewhile_reference(self, p_min, step, count, end, share):
        last = p_min + count * step
        p_max = {
            "on-grid": last,
            "within-1e-9": last - share * 1e-9 * step,
            "past-1e-9": last - (1.0 + share) * 1e-9 * step,
            "free": p_min + (count - share) * step,
        }[end]
        assume(p_min < p_max and (p_max - p_min) / step < MAX_P_SAMPLES)
        assert p_grid(p_min, p_max, step) == takewhile_p_grid(p_min, p_max, step)

    # A step shorter than an ulp of p_min leaves runs of equal points.
    @given(
        p_min=st.floats(min_value=1e15, max_value=1e300),
        ulps=st.floats(min_value=0.05, max_value=4.0),
        count=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=200, deadline=None)
    def test_steps_below_an_ulp_match_the_reference(self, p_min, ulps, count):
        step = ulps * math.ulp(p_min)
        p_max = p_min + count * math.ulp(p_min)
        assume(p_min < p_max and (p_max - p_min) / step < MAX_P_SAMPLES)
        assert p_grid(p_min, p_max, step) == takewhile_p_grid(p_min, p_max, step)

    def test_on_grid_and_within_1e_9_of_a_step_end_at_p_max(self):
        assert p_grid(1.0, 2.0, 0.25) == [1.0, 1.25, 1.5, 1.75, 2.0]
        assert p_grid(1.0, 2.0 - 1e-10, 0.25) == [1.0, 1.25, 1.5, 1.75, 2.0 - 1e-10]
        assert p_grid(1.0, 2.0 - 1e-9, 0.25) == [1.0, 1.25, 1.5, 1.75]

    def test_a_limit_past_the_largest_float_ends(self):
        # p_max + 1e-9 * step overflows to inf, which no point exceeds
        largest = math.nextafter(math.inf, 0.0)
        grid = p_grid(1.7e308, largest, 1e306)
        assert grid == [1.7e308 + i * 1e306 for i in range(10)]
        assert grid[-1] < largest


class TestExactBranchLabels:
    # Above p = n the label is the exactly larger branch, also where the two
    # scales lie within TIE_RTOL of each other and rounding could flip them.
    @given(log_n=st.floats(min_value=0.0, max_value=12.0), log_ratio=st.floats(min_value=0.0, max_value=3.0))
    @settings(max_examples=300, deadline=None)
    def test_label_is_the_sign_of_the_cubic(self, log_n, log_ratio):
        n = 10.0**log_n
        p = n * 10.0**log_ratio
        assume(p > n)
        expected = BRANCH_DIAGONAL if cubic(n, p) > 0 else BRANCH_VERTICAL
        assert curve_sample(n, p).branch == expected

    @given(log_n=st.floats(min_value=0.0, max_value=12.0), ulps=st.integers(min_value=-64, max_value=64))
    @settings(max_examples=300, deadline=None)
    def test_label_flips_at_the_exact_root(self, log_n, ulps):
        n = 10.0**log_n
        p = crossover_w(n) + ulps * math.ulp(crossover_w(n))
        expected = BRANCH_DIAGONAL if cubic(n, p) > 0 else BRANCH_VERTICAL
        assert curve_sample(n, p).branch == expected

    def test_a_wide_tie_band_is_labelled_diagonal(self):
        # w_n = 489973.32...; here the diagonal beats n/p by about TIE_RTOL,
        # and rounding alone used to alternate the labels.
        n = 163324.44039590604
        assert abs(diagonal_branch(n, 530888.5).c - n / 530888.5) <= n / 530888.5 * TIE_RTOL
        for p in (530888.3, 530888.4, 530888.5, 530888.6, 530888.7):
            vertical, sample = n / p, curve_sample(n, p)
            assert abs(diagonal_branch(n, p).c - vertical) <= vertical * 2 * TIE_RTOL
            assert sample.branch == BRANCH_DIAGONAL
            assert placement(n, p).branch == BRANCH_DIAGONAL
            assert placement(n, p).c == pytest.approx(sample.c, rel=1e-15)


@st.composite
def aspect_and_ps(draw):
    """A hole aspect n in [1, 1e300] and a list of p: any finite p >= 1,
    near n, p = n, 2**512 and its float neighbours, and w_n with its
    neighbours, where the labels come from the exact cubic."""
    n = draw(st.floats(min_value=1.0, max_value=1e300))
    w = crossover_w(n)
    special = [n, math.nextafter(n, math.inf), HUGE_P, math.nextafter(HUGE_P, 0.0), math.nextafter(HUGE_P, math.inf)]
    special += [w + i * math.ulp(w) for i in range(-4, 5)]
    p = st.one_of(
        st.floats(min_value=1.0, max_value=1.7976931348623157e308),
        st.floats(min_value=n, max_value=4.0 * n),
        st.sampled_from(special),
    )
    return n, draw(st.lists(p, max_size=40))


@st.composite
def aspect_pairs(draw):
    """(n, p) pairs: n in [1, 1e300], p any finite p >= 1, near n, n and
    its float neighbours, 2**512 and its neighbours, or within four ulps
    of w_n, the tie band, where the labels come from the exact cubic."""
    pairs = []
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        n = draw(st.floats(min_value=1.0, max_value=1e300))
        w = crossover_w(n)
        special = [n, max(1.0, math.nextafter(n, 0.0)), math.nextafter(n, math.inf)]
        special += [HUGE_P, math.nextafter(HUGE_P, 0.0), math.nextafter(HUGE_P, math.inf)]
        special += [w + i * math.ulp(w) for i in range(-4, 5)]
        p = draw(
            st.one_of(
                st.floats(min_value=1.0, max_value=1.7976931348623157e308),
                st.floats(min_value=n, max_value=4.0 * n),
                st.sampled_from(special),
            )
        )
        pairs.append((n, p))
    return pairs


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestSamples:
    def test_huge_p_is_where_the_product_overflows(self):
        below = 1.3407807929942596e154
        assert HUGE_P == 2.0**512 == math.nextafter(below, math.inf)
        assert math.isfinite((below - 1.0) * (below + 1.0))
        assert not math.isfinite((HUGE_P - 1.0) * (HUGE_P + 1.0))

    @given(aspect_and_ps())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_the_one_point_core(self, case):
        n, ps = case
        c, branches = _samples(n, ps)
        assert len(c) == len(branches) == len(ps)
        assert list(zip(c.tolist(), branches)) == [_sample(n, p) for p in ps]

    @given(aspect_pairs())
    @settings(max_examples=150, deadline=None)
    def test_an_array_of_n_against_an_array_of_p(self, pairs):
        ns, ps = [n for n, _ in pairs], [p for _, p in pairs]
        c, branches = _samples(np.array(ns), np.array(ps))
        assert list(zip(c.tolist(), branches)) == [_sample(n, p) for n, p in pairs]

    @given(aspect_pairs())
    @settings(max_examples=50, deadline=None)
    def test_a_column_of_n_against_a_row_of_p(self, pairs):
        ns, ps = [n for n, _ in pairs], [p for _, p in pairs]
        c, branches = _samples(np.array(ns)[:, None], ps)
        assert c.shape == (len(ns), len(ps))
        assert [list(zip(row, labels)) for row, labels in zip(c.tolist(), branches)] == [
            [_sample(n, p) for p in ps] for n in ns
        ]

    @pytest.mark.parametrize("n", [1.0, 2.0, 1e150])
    def test_a_grid_across_2_512(self, n):
        ps = p_grid(1e150, 1e160, 1e157) + [HUGE_P, math.nextafter(HUGE_P, 0.0), math.nextafter(HUGE_P, math.inf)]
        c, branches = _samples(n, ps)
        assert list(zip(c.tolist(), branches)) == [_sample(n, p) for p in ps]

    def test_the_tie_band_takes_the_exact_label(self):
        n = 163324.44039590604
        ps = [530888.3, 530888.4, 530888.5, 530888.6, 530888.7]
        assert _samples(n, ps)[1] == [BRANCH_DIAGONAL] * 5
        w = crossover_w(n)
        ps = [math.nextafter(w, 0.0), w, math.nextafter(w, math.inf)]
        assert _samples(n, ps)[1] == [BRANCH_VERTICAL, BRANCH_DIAGONAL, BRANCH_DIAGONAL]
        # an array of n, each n beside its own w_n and that root's neighbours
        pairs = [
            (m, q)
            for m in (n, 2.0, 1e300)
            for w in [crossover_w(m)]
            for q in (math.nextafter(w, 0.0), w, math.nextafter(w, math.inf))
        ]
        c, branches = _samples(np.array([m for m, _ in pairs]), np.array([q for _, q in pairs]))
        assert list(zip(c.tolist(), branches)) == [_sample(m, q) for m, q in pairs]
        assert branches[:3] == [BRANCH_VERTICAL, BRANCH_DIAGONAL, BRANCH_DIAGONAL]

    def test_no_points(self):
        c, branches = _samples(2.0, [])
        assert c.shape == (0,) and branches == []


# Hole aspects beside whose w_n the vertical and diagonal scales nearly tie.
CROSSOVER_NS = (1.0, 4 / 3, 2.0, 2.5, 7.0, 163324.44039590604, 1e6, 1e12, 1e300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestValues:
    """The values-only cores against the one-point core _sample."""

    @given(aspect_and_ps())
    @settings(max_examples=300, deadline=None)
    def test_bit_for_bit_the_one_point_core(self, case):
        n, ps = case
        assert _values(n, ps).tolist() == [_sample(n, p)[0] for p in ps]
        assert [_value(n, p) for p in ps] == [_sample(n, p)[0] for p in ps]

    @given(aspect_pairs())
    @settings(max_examples=150, deadline=None)
    def test_an_array_of_n_against_an_array_of_p(self, pairs):
        ns, ps = np.array([n for n, _ in pairs]), np.array([p for _, p in pairs])
        assert _values(ns, ps).tolist() == [_sample(n, p)[0] for n, p in pairs]

    def test_beside_the_crossover(self):
        # The np.hypot bound must settle none of these points: values and
        # labels alike stay _sample's.
        pairs = [(n, w + i * math.ulp(w)) for n in CROSSOVER_NS for w in [crossover_w(n)] for i in range(-16, 17)]
        ns, ps = np.array([n for n, _ in pairs]), np.array([p for _, p in pairs])
        assert _values(ns, ps).tolist() == [_sample(n, p)[0] for n, p in pairs]
        c, branches = _samples(ns, ps)
        assert list(zip(c.tolist(), branches)) == [_sample(n, p) for n, p in pairs]

    @pytest.mark.parametrize("n", [1.0, 4 / 3, 2.0, 1e150])
    def test_a_grid_across_2_512(self, n):
        # At n = 4/3 the legs near 4 : 3 put the hypot near a rounding
        # midpoint, where np.hypot and math.hypot can differ in the last bit.
        ps = p_grid(1.0, 12.0, 0.01) + p_grid(1e150, 1e160, 1e157)
        ps += [HUGE_P, math.nextafter(HUGE_P, 0.0), math.nextafter(HUGE_P, math.inf)]
        assert _values(n, ps).tolist() == [_sample(n, p)[0] for p in ps]


class Unread:
    """Stands in for inscribe._cubic and inscribe._LABELS: calling or indexing it fails."""

    def __call__(self, *args):
        raise AssertionError("an exact tie test outside the curve table")

    def __getitem__(self, index):
        raise AssertionError("branch labels outside the curve table")


def test_only_the_curve_table_reads_labels(monkeypatch, tmp_path):
    monkeypatch.setattr(inscribe, "_cubic", Unread())
    monkeypatch.setattr(inscribe, "_LABELS", Unread())
    for k in range(2, 13):
        assert theorem_scan(k).passed
    # its evenly spaced 4-line parallel nets, of hole aspect 4.999999999999998,
    # score in the tie band at p = 5
    assert irregular_spacing_check(4, [1.0, 1.5, 2.0, 3.0, 5.0], 100, 4).passed
    for fmt in ("csv", "json"):
        cmd_base_curve(5, 1.0, 12.0, 0.02, OutputSpec(format=fmt, path=str(tmp_path / f"base.{fmt}")))
    with pytest.raises(AssertionError, match="labels"):
        _samples(2.0, [1.5, 3.0])


class TestPlacement:
    def test_plateau_axis_aligned_at_origin(self):
        result = placement(2, 1.5)
        assert result.branch == BRANCH_PLATEAU
        assert result.corners == ((0.0, 0.0), (1.0, 0.0), (1.0, 1.5), (0.0, 1.5))

    def test_plateau_when_p_below_n(self):
        # p=2 <= n=3: scale 1, vertical placement with c = n/p would exceed width 1
        result = placement(3, 2)
        assert result.branch == BRANCH_PLATEAU
        assert result.c == 1.0
        assert result.corners == ((0.0, 0.0), (1.0, 0.0), (1.0, 2.0), (0.0, 2.0))

    def test_vertical_branch(self):
        result = placement(1, 2)
        assert result.branch == BRANCH_VERTICAL
        assert result.corners == ((0.0, 0.0), (0.5, 0.0), (0.5, 1.0), (0.0, 1.0))

    def test_diagonal_corners(self):
        result = placement(1, 3)
        assert result.branch == BRANCH_DIAGONAL
        assert result.corners == ((0.25, 0.0), (1.0, 0.75), (0.75, 1.0), (0.0, 0.25))

    @pytest.mark.parametrize("n,p", [(1, 3), (2, 6), (1.5, 4), (2, 1.5), (1, 2)])
    def test_side_lengths_and_containment(self, n, p):
        result = placement(n, p)
        corners = result.corners
        c = result.c
        for x, y in corners:
            assert -1e-12 <= x <= 1 + 1e-12
            assert -1e-12 <= y <= n + 1e-12
        sides = sorted(
            math.hypot(corners[(i + 1) % 4][0] - corners[i][0], corners[(i + 1) % 4][1] - corners[i][1])
            for i in range(4)
        )
        assert sides[0] == pytest.approx(c, abs=1e-12)
        assert sides[1] == pytest.approx(c, abs=1e-12)
        assert sides[2] == pytest.approx(c * p, abs=1e-12)
        assert sides[3] == pytest.approx(c * p, abs=1e-12)
        # equal diagonals pin the quadrilateral down as a rectangle
        d1 = math.hypot(corners[2][0] - corners[0][0], corners[2][1] - corners[0][1])
        d2 = math.hypot(corners[3][0] - corners[1][0], corners[3][1] - corners[1][1])
        assert d1 == pytest.approx(d2, abs=1e-12)

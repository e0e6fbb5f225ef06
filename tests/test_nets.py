import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripwire import errors, nets
from tripwire.errors import DomainError
from tripwire.inscribe import curve_value
from tripwire.nets import (
    Net,
    _widest_even_gaps,
    base_curve,
    crossover_aspect,
    evenly_spaced,
    hole_scale,
    holes,
    maximizing_hole,
    net_from_dict,
    net_scale_factor,
    net_to_dict,
    odd_crossover_line_count,
    optimal_net,
    ties,
)
from tripwire.oracle import THEOREM_P_VALUES, oracle_curve_value

positions = st.lists(
    st.floats(min_value=0.01, max_value=0.99), min_size=0, max_size=5, unique=True
).map(lambda xs: tuple(sorted(xs)))


# Cut positions along one axis, up to 8: random, evenly spaced, or evenly
# spaced and jittered by up to 49% of a gap.
cut_sets = st.one_of(
    st.lists(st.floats(min_value=0.001, max_value=0.999), max_size=8, unique=True).map(lambda xs: tuple(sorted(xs))),
    st.integers(min_value=0, max_value=8).map(lambda n: evenly_spaced(n, 0).vertical),
    st.lists(st.floats(min_value=-0.49, max_value=0.49), max_size=8).map(
        lambda jitters: tuple((i + 1 + x) / (len(jitters) + 1) for i, x in enumerate(jitters))
    ),
)


def family(k, p):
    """The family of optimal_net(k, p), named as base_curve names it."""
    return "parallel" if optimal_net(k, p) == evenly_spaced(k, 0) else "grid"


def random_net(v_positions, h_positions):
    return Net(vertical=v_positions, horizontal=h_positions)


def all_holes_scale_factor(net, p):
    """Test-only oracle: the largest hole_scale over every hole of the net,
    without the monotonicity argument net_scale_factor rests on (distinct
    widths and heights only, which leaves the maximum unchanged)."""
    grid = holes(net)
    return max(hole_scale(w, h, p) for w in set(grid.widths) for h in set(grid.heights))


class TestNetConstruction:
    def test_evenly_spaced_examples(self):
        assert evenly_spaced(2, 0).vertical == (1 / 3, 2 / 3)
        assert evenly_spaced(2, 0).horizontal == ()
        assert evenly_spaced(1, 1) == Net(vertical=(0.5,), horizontal=(0.5,))
        assert evenly_spaced(2, 1) == Net(vertical=(1 / 3, 2 / 3), horizontal=(0.5,))

    def test_k_counts_both_axes(self):
        assert evenly_spaced(2, 1).k == 3

    @pytest.mark.parametrize(
        "vertical",
        [(0.5, 0.5), (0.7, 0.3), (0.0,), (1.0,), (-0.1,), (float("nan"),)],
    )
    def test_invalid_cut_positions(self, vertical):
        with pytest.raises(DomainError):
            Net(vertical=vertical, horizontal=())

    def test_numpy_counts_accepted(self):
        net = evenly_spaced(np.int64(2), 1)
        assert net == evenly_spaced(2, 1)
        assert net.describe() == "N(2,1)"

    def test_negative_counts_rejected(self):
        with pytest.raises(DomainError):
            evenly_spaced(-1, 0)


def python_widest_even_gap(n):
    """Widest gap of n evenly spaced cuts i / (n + 1), in Python floats."""
    return max(nets._gaps(tuple(i / (n + 1) for i in range(1, n + 1))))


# python_widest_even_gap(n) for n = 0 .. 300
WIDEST_EVEN_GAPS = [python_widest_even_gap(n) for n in range(301)]


class TestEvenHoles:
    """nets._widest_even_gaps, bit for bit the widest hole of evenly_spaced."""

    def test_evenly_spaced_cuts_are_one_division_each(self):
        for n in range(301):
            assert evenly_spaced(n, 0).vertical == tuple(i / (n + 1) for i in range(1, n + 1))

    def test_every_net_up_to_64_lines_per_axis(self):
        v, h = np.meshgrid(np.arange(65), np.arange(65), indexing="ij")
        widths, heights = _widest_even_gaps(np.stack((v, h)))
        for a in range(65):
            for b in range(65):
                assert (widths[a, b], heights[a, b]) == evenly_spaced(a, b).widest_hole

    @pytest.mark.parametrize("floats", [errors.MEMORY_BUDGET // 8, 1, 1000])
    def test_every_split_of_150_to_300_lines(self, monkeypatch, floats):
        # a budget below one row of cuts takes one count per chunk
        monkeypatch.setattr(errors, "MEMORY_BUDGET", 8 * floats)
        for k in range(150, 301):
            v = np.arange(k + 1)
            widths, heights = _widest_even_gaps(np.stack((v, k - v)))
            assert widths.tolist() == WIDEST_EVEN_GAPS[: k + 1]
            assert heights.tolist() == WIDEST_EVEN_GAPS[k::-1]
        for k in (150, 300):
            v = np.arange(k + 1)
            holes = _widest_even_gaps(np.stack((v, k - v))).T.tolist()
            assert [tuple(hole) for hole in holes] == [evenly_spaced(a, k - a).widest_hole for a in range(k + 1)]


class TestHoles:
    def test_parallel_net(self):
        grid = holes(evenly_spaced(2, 0))
        assert grid.widths == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert grid.heights == (1.0,)

    def test_single_offset_line(self):
        grid = holes(Net(vertical=(0.2,), horizontal=()))
        assert grid.widths == pytest.approx((0.2, 0.8))

    def test_two_by_one(self):
        grid = holes(evenly_spaced(2, 1))
        assert grid.widths == pytest.approx((1 / 3, 1 / 3, 1 / 3))
        assert grid.heights == pytest.approx((0.5, 0.5))

    @given(v=positions, h=positions)
    @settings(max_examples=200, deadline=None)
    def test_hole_counts_and_sums(self, v, h):
        net = random_net(v, h)
        grid = holes(net)
        assert len(grid.widths) == len(net.vertical) + 1
        assert len(grid.heights) == len(net.horizontal) + 1
        assert sum(grid.widths) == pytest.approx(1.0, abs=1e-12)
        assert sum(grid.heights) == pytest.approx(1.0, abs=1e-12)
        # at least one hole per axis at least as big as the average
        assert max(grid.widths) >= 1 / len(grid.widths) - 1e-12
        assert max(grid.heights) >= 1 / len(grid.heights) - 1e-12


class TestHoleScale:
    def test_third_by_half_for_aspect_three(self):
        # n' = 3/2, p = 3 sits on the vertical branch: (1/3) * (3/2) / 3 = 1/6
        value = hole_scale(1 / 3, 1 / 2, 3)
        assert value == pytest.approx(1 / 6, abs=1e-15)
        assert value == pytest.approx(oracle_curve_value(1.5, 3) / 3, rel=1e-14)

    def test_square_hole_square_intruder(self):
        assert hole_scale(0.5, 0.5, 1) == pytest.approx(0.5, abs=1e-15)

    def test_wide_hole_plateau(self):
        assert hole_scale(1.0, 0.25, 2) == pytest.approx(0.25, abs=1e-15)

    def test_orientation_symmetry(self):
        assert hole_scale(0.3, 0.7, 2.5) == hole_scale(0.7, 0.3, 2.5)

    @given(
        s=st.floats(min_value=0.05, max_value=1.0),
        n=st.floats(min_value=1.0, max_value=4.0),
        p=st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, s, n, p):
        # a hole scaled by s scales the inscribed intruder by s
        expected = s * curve_value(n, p)
        assert hole_scale(s, s * n, p) == pytest.approx(expected, rel=1e-12)

    def test_rejects_empty_hole(self):
        with pytest.raises(DomainError):
            hole_scale(0.0, 0.5, 2)


class TestNetScaleFactor:
    def test_examples(self):
        assert net_scale_factor(evenly_spaced(2, 0), 1) == pytest.approx(1 / 3, abs=1e-12)
        assert net_scale_factor(evenly_spaced(1, 1), 1) == pytest.approx(0.5, abs=1e-12)
        assert net_scale_factor(evenly_spaced(2, 1), 3) == pytest.approx(1 / 6, abs=1e-12)

    @pytest.mark.parametrize("v,h", [(v, h) for v in range(0, 5) for h in range(0, v + 1)])
    @pytest.mark.parametrize("p", [1.0, 1.75, 3.0, 6.0])
    def test_evenly_spaced_closed_form(self, v, h, p):
        value = net_scale_factor(evenly_spaced(v, h), p)
        expected = curve_value((v + 1) / (h + 1), p) / (v + 1)
        assert value == pytest.approx(expected, abs=1e-12)

    @given(v=positions, h=positions, p=st.floats(min_value=1.0, max_value=8.0))
    @settings(max_examples=150, deadline=None)
    def test_adding_a_line_never_raises_the_scale_factor(self, v, h, p):
        net = random_net(v, h)
        base = net_scale_factor(net, p)
        new_cut = 0.37519  # arbitrary fixed position distinct from the grid above
        if new_cut not in net.vertical:
            augmented = Net(vertical=tuple(sorted(net.vertical + (new_cut,))), horizontal=net.horizontal)
            assert net_scale_factor(augmented, p) <= base + 1e-12

    def test_regular_beats_irregular_sample(self):
        import numpy as np

        rng = np.random.default_rng(7)
        for _ in range(200):
            k = int(rng.integers(1, 5))
            v = int(rng.integers(0, k + 1))
            h = k - v
            jitter_v = rng.uniform(-0.49, 0.49, size=v) / (v + 1)
            jitter_h = rng.uniform(-0.49, 0.49, size=h) / (h + 1)
            net = Net(
                vertical=tuple((i + 1) / (v + 1) + jitter_v[i] for i in range(v)),
                horizontal=tuple((j + 1) / (h + 1) + jitter_h[j] for j in range(h)),
            )
            p = float(rng.choice([1.0, 1.5, 3.0]))
            assert net_scale_factor(net, p) >= net_scale_factor(evenly_spaced(v, h), p) - 1e-12


class TestNetScaleFactorMatchesAllHoles:
    # hole_scale rounds the same inputs the same way, so the only gap between
    # the largest hole and the all-holes maximum is rounding of max(w,h)/min(w,h)
    # and of the final product: a few ulps at most.
    @given(v=positions, h=positions, p=st.floats(min_value=1.0, max_value=1e6))
    @settings(max_examples=300, deadline=None)
    def test_random_nets(self, v, h, p):
        net = random_net(v, h)
        grid = holes(net)
        assert net.widest_hole == (max(grid.widths), max(grid.heights))
        assert net_scale_factor(net, p) == hole_scale(*net.widest_hole, p)
        assert net_scale_factor(net, p) == pytest.approx(all_holes_scale_factor(net, p), rel=1e-15)
        i, j = maximizing_hole(net, p)
        assert ties(net_scale_factor(net, p), hole_scale(grid.widths[i], grid.heights[j], p))

    @pytest.mark.parametrize("k", range(1, 13))
    def test_evenly_spaced_nets_over_the_theorem_grid(self, k):
        for v in range(k + 1):
            net = evenly_spaced(v, k - v)
            for p in THEOREM_P_VALUES:
                expected = all_holes_scale_factor(net, p)
                assert net_scale_factor(net, p) == pytest.approx(expected, rel=1e-15), (v, p)


class TestMaximizingHole:
    @pytest.mark.parametrize("v,h", [(v, h) for v in range(0, 7) for h in range(0, 7)])
    def test_evenly_spaced_nets_answer_the_first_hole(self, v, h):
        for p in (1.0, 1.75, 3.0, 6.0):
            assert maximizing_hole(evenly_spaced(v, h), p) == (0, 0)

    def test_rounding_does_not_pick_a_later_gap(self):
        # 1 - 2/3 rounds above 1/3, so a plain argmax of the widths picks column 2
        widths = holes(evenly_spaced(2, 0)).widths
        assert widths.index(max(widths)) == 2
        assert maximizing_hole(evenly_spaced(2, 0), 1.0) == (0, 0)

    def test_irregular_net(self):
        # widths (0.2, 0.5, 0.3), heights (0.4, 0.6): the 0.5 x 0.6 hole
        net = Net(vertical=(0.2, 0.7), horizontal=(0.4,))
        assert maximizing_hole(net, 1.0) == (1, 1)
        assert hole_scale(0.5, 0.6, 2.0) == pytest.approx(net_scale_factor(net, 2.0), abs=1e-15)
        assert maximizing_hole(net, 2.0) == (1, 1)

    def test_tiny_scale_factors_still_pick_the_largest_hole(self):
        # at p = 1e13 every hole scores below 1e-12; the tie is relative
        net = Net(vertical=(0.1,), horizontal=())
        assert maximizing_hole(net, 1e13) == (1, 0)

    def test_first_of_tied_holes(self):
        # columns 0 and 2 are both 0.4 wide, the rows both 0.5 high
        net = Net(vertical=(0.4, 0.6), horizontal=(0.5,))
        assert maximizing_hole(net, 1.5) == (0, 0)

    @given(v=cut_sets, h=cut_sets, p=st.floats(min_value=1.0, max_value=50.0))
    @settings(max_examples=300, deadline=None)
    def test_the_first_tied_hole_of_a_row_major_scan(self, v, h, p):
        net = Net(vertical=v, horizontal=h)
        grid = holes(net)
        scale = net_scale_factor(net, p)
        expected = next(
            (i, j)
            for i, w in enumerate(grid.widths)
            for j, height in enumerate(grid.heights)
            if ties(scale, hole_scale(w, height, p))
        )
        assert maximizing_hole(net, p) == expected

    def test_one_pass_per_axis(self, monkeypatch):
        # the gaps of 25 000 evenly spaced cuts drift by more than TIE_RTOL,
        # so the first tied hole is deep inside the net: a scan of every
        # hole scores about 196 * 25 001 of them before it
        net = evenly_spaced(25000, 25000)
        score, calls = nets._hole_scale, []

        def counted(w, h, p):
            calls.append(None)
            if len(calls) > len(net.vertical) + len(net.horizontal) + 2:
                raise AssertionError("more than V + H + 2 hole scores")
            return score(w, h, p)

        monkeypatch.setattr(nets, "_hole_scale", counted)
        assert maximizing_hole(net, 3.0) == (196, 12504)


class TestTies:
    def test_relative_to_the_best_score(self):
        assert ties(1e-13 * (1 + 5e-13), 1e-13)
        assert not ties(1e-13 * (1 + 2e-12), 1e-13)
        # an absolute 1e-12 margin would call these a tie
        assert not ties(1.02e-12, 4.71e-13)

    def test_equal_and_lower_scores_tie(self):
        assert ties(0.25, 0.25)
        assert ties(0.2, 0.25)
        assert not ties(0.25 * (1 + 1e-11), 0.25)

    def test_a_negative_best_ties_itself(self):
        assert ties(-1e-17, -1e-17)
        assert ties(-1e-17 * (1 - 5e-13), -1e-17)
        assert not ties(-1e-17 * (1 - 2e-12), -1e-17)


class TestBaseCurves:
    def test_even_examples(self):
        assert base_curve(2, 1) == (pytest.approx(1 / 3, abs=1e-15), "parallel")
        # both arguments agree at the crossover p = 3/2; parallel wins the tie
        assert base_curve(2, 1.5) == (pytest.approx(1 / 3, abs=1e-15), "parallel")
        assert base_curve(2, 3) == (pytest.approx(math.sqrt(2) / 8, abs=1e-15), "grid")

    def test_even_crossover_equality(self):
        for k in range(2, 13, 2):
            x = crossover_aspect(k)
            parallel = curve_value(k + 1, x) / (k + 1)
            grid = curve_value(1, x) / (k // 2 + 1)
            assert abs(parallel - grid) < 1e-12
            assert base_curve(k, x) == (parallel, "parallel")

    def test_odd_examples(self):
        # min(1/4 from N(3,0), (1/3) C_{3/2}(p) from N(2,1))
        assert base_curve(3, 1) == (pytest.approx(0.25, abs=1e-15), "parallel")
        assert base_curve(3, 2) == (pytest.approx(0.25, abs=1e-15), "parallel")
        assert base_curve(3, 3) == (pytest.approx(1 / 6, abs=1e-15), "grid")

    def test_odd_crossover_equality(self):
        for k in range(3, 13, 2):
            x = crossover_aspect(k)
            parallel = curve_value(k + 1, x) / (k + 1)
            grid = net_scale_factor(evenly_spaced(k - k // 2, k // 2), x)
            assert abs(parallel - grid) < 1e-12
            assert base_curve(k, x) == (parallel, "parallel")

    def test_tie_rule_is_relative(self):
        # both families score about 1e-12 here; N(1,1) is lower, and an
        # absolute 1e-12 tie would have named the parallel net
        grid = net_scale_factor(evenly_spaced(1, 1), 1e12)
        assert curve_value(3, 1e12) / 3 > grid * 1.4
        assert base_curve(2, 1e12) == (curve_value(1, 1e12) / 2, "grid")
        assert base_curve(2, 1e12)[0] == pytest.approx(grid, rel=1e-15)

    def test_single_line_is_the_parallel_net(self):
        assert base_curve(1, 3.0) == (curve_value(2, 3.0) / 2, "parallel")

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    def test_line_count_checked(self, k):
        with pytest.raises(DomainError):
            base_curve(k, 2.0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_names_the_family_of_the_optimal_net(self, k):
        # just above each crossover the two families tie within TIE_RTOL
        # while the grid already scores lower: that band is 4 500 to
        # 8 400 doubles wide for these k, sampled here every 37 ulps
        aspects = list(THEOREM_P_VALUES[::5]) + [1e6, 1e12]
        if k > 1:
            x = crossover_aspect(k)
            aspects += [x + i * math.ulp(x) for i in range(-100, int(2e-12 * x / math.ulp(x)), 37)]
        for p in aspects:
            assert base_curve(k, p)[1] == family(k, p), p

    @pytest.mark.parametrize("k", range(1, 13))
    def test_base_curve_dominates_every_split(self, k):
        for p in THEOREM_P_VALUES[::7]:
            value, family = base_curve(k, p)
            scores = [net_scale_factor(evenly_spaced(v, k - v), p) for v in range(0, k + 1)]
            assert value <= min(scores) + 1e-12
            # the value is the named family's own scale factor
            assert value == pytest.approx(scores[0] if family == "parallel" else scores[k // 2], abs=1e-15)


class TestCrossoverAspect:
    def test_even_values(self):
        assert crossover_aspect(2) == pytest.approx(1.5, abs=1e-15)
        assert crossover_aspect(4) == pytest.approx(5 / 3, abs=1e-15)

    def test_odd_corrected_value_is_two(self):
        for k in (3, 5, 7, 9, 11):
            assert crossover_aspect(k) == pytest.approx(2.0, abs=1e-15)

    def test_line_count_variant_disagrees(self):
        assert odd_crossover_line_count(3) == pytest.approx(1.0, abs=1e-15)
        assert odd_crossover_line_count(5) == pytest.approx(4 / 3, abs=1e-15)
        for k in (3, 5, 7, 9, 11):
            assert abs(odd_crossover_line_count(k) - crossover_aspect(k)) > 1e-12

    def test_minimum_k(self):
        with pytest.raises(DomainError):
            crossover_aspect(1)


class TestOptimalNet:
    def test_examples(self):
        assert optimal_net(2, 1) == evenly_spaced(2, 0)
        assert optimal_net(2, 3) == evenly_spaced(1, 1)
        # exactly at the even crossover both nets tie; parallel is returned
        assert optimal_net(4, crossover_aspect(4)) == evenly_spaced(4, 0)

    def test_tie_scores_within_tolerance(self):
        x = crossover_aspect(4)
        parallel = net_scale_factor(evenly_spaced(4, 0), x)
        grid = net_scale_factor(evenly_spaced(2, 2), x)
        assert abs(parallel - grid) < 1e-12

    def test_single_line(self):
        assert optimal_net(1, 1) == evenly_spaced(1, 0)
        assert optimal_net(1, 7) == evenly_spaced(1, 0)

    @pytest.mark.parametrize("k", [3, 5])
    def test_odd_switch(self, k):
        assert optimal_net(k, 1.9) == evenly_spaced(k, 0)
        assert optimal_net(k, 2.1) == evenly_spaced(k - k // 2, k // 2)


class TestNetJson:
    def test_round_trip(self):
        net = evenly_spaced(3, 2)
        data = json.loads(json.dumps(net_to_dict(net)))
        assert net_from_dict(data) == net

    def test_schema_enforced_on_load(self):
        with pytest.raises(DomainError):
            net_from_dict({"vertical": [0.5]})
        with pytest.raises(DomainError):
            net_from_dict({"vertical": [0.5], "horizontal": [], "extra": 1})
        with pytest.raises(DomainError):
            net_from_dict({"vertical": [0.7, 0.3], "horizontal": []})
        with pytest.raises(DomainError):
            net_from_dict({"vertical": 0.5, "horizontal": []})
        with pytest.raises(DomainError):
            net_from_dict([0.5])

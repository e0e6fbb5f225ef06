import json
import math

import pytest

from tripwire.cells import PerturbationSpec
from tripwire.errors import DomainError
from tripwire import oracle
from tripwire.inscribe import _sample, _samples, crossover_w, curve_value, diagonal_branch, p_grid, ties
from tripwire.nets import crossover_aspect, evenly_spaced, net_scale_factor, optimal_net
from tripwire.oracle import (
    CROSSOVER_WINDOW,
    THEOREM_P_VALUES,
    VerificationReport,
    curve_oracle_check,
    enumerate_axis_nets,
    irregular_spacing_check,
    lagrange_split_check,
    local_perturbation_experiment,
    oracle_curve_value,
    perturbation_suite,
    theorem_scan,
)


class TestSweepOracle:
    """The curve oracle: the exact rectangle kernel on the hole."""

    def test_unit_square(self):
        assert oracle_curve_value(1, 1) == pytest.approx(1.0, rel=1e-15)

    def test_square_hole_aspect_three(self):
        # by symmetry of the corner-contact solution the optimum sits at 45 degrees
        value = oracle_curve_value(1, 3)
        assert value == pytest.approx(math.sqrt(2) / 4, rel=1e-14)

    def test_plateau_case(self):
        assert oracle_curve_value(2, 1.5) == pytest.approx(1.0, rel=1e-15)

    def test_agreement_grid(self):
        for n in (1.0, 2.0, 3.0):
            p = 1.0
            while p <= 4.0 * n:
                assert curve_value(n, p) == pytest.approx(oracle_curve_value(n, p), rel=1e-13)
                p += 0.25

    @pytest.mark.parametrize("n", [1000.0000004, 1e13, 1e300])
    def test_any_finite_hole_aspect(self, n):
        # a hole barely longer than the rectangle still binds at its width of 1
        assert oracle_curve_value(n, 1000.0 if n < 1e4 else n / (1 + 1e-9)) == pytest.approx(1.0, rel=1e-15)
        assert oracle_curve_value(n, 1.5 * n) == pytest.approx(2.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize("n,p", [(1.7e308, 1.0), (1e308, 1.5e308)])
    def test_coordinates_near_the_float_limit(self, n, p):
        # the hole's vertex mean and twice its area exceed the float range
        assert oracle_curve_value(n, p) == pytest.approx(curve_value(n, p), rel=1e-15)


class TestEnumerateAxisNets:
    def test_square_intruder_table(self):
        report = enumerate_axis_nets(4, 1)
        table = dict(report.candidates)
        assert report.winner == "N(4,0)"
        assert table["N(4,0)"] == pytest.approx(0.2, abs=1e-12)
        assert table["N(3,1)"] == pytest.approx(0.25, abs=1e-12)
        assert table["N(2,2)"] == pytest.approx(1 / 3, abs=1e-12)
        assert report.passed

    def test_wide_intruder_prefers_grid(self):
        report = enumerate_axis_nets(4, 4)
        table = dict(report.candidates)
        assert report.winner == "N(2,2)"
        # (1/3) C_1(4) on the diagonal branch
        assert table["N(2,2)"] == pytest.approx(math.sqrt(2) / 15, abs=1e-12)
        assert table["N(4,0)"] == pytest.approx(0.2, abs=1e-12)
        assert table["N(3,1)"] == pytest.approx(0.125, abs=1e-12)

    def test_tie_at_even_crossover(self):
        report = enumerate_axis_nets(2, 1.5)
        assert set(report.parameters["tied"]) == {"N(2,0)", "N(1,1)", "N(0,2)"}
        assert report.winner == "N(2,0)"

    @pytest.mark.parametrize("k", range(1, 13))
    def test_winner_matches_prediction(self, k):
        crossover = crossover_aspect(k) if k >= 2 else None
        for i in range(0, 113, 3):
            p = 1.0 + i / 16.0
            report = enumerate_axis_nets(k, p)
            assert optimal_net(k, p).describe() in report.parameters["tied"]
            assert report.passed
            if crossover is None or abs(p - crossover) > 1e-9:
                assert report.winner == optimal_net(k, p).describe()
        # scores fall like 1/p: the tie rule must still tell the splits apart
        for i in range(121):
            p = 10.0 ** (i / 10)
            report = enumerate_axis_nets(k, p)
            assert report.winner == optimal_net(k, p).describe(), p
            assert report.passed


class TestTheoremScan:
    def test_even_report(self):
        report = theorem_scan(4)
        assert isinstance(report, VerificationReport)
        assert report.passed and report.parameters["mismatches"] == []
        assert list(report.parameters) == [
            "k", "crossover", "p_grid", "checked", "mismatches", "table_at_p", "tie_tolerance",
        ]
        # the first grid point past the crossover 5/3
        assert report.parameters["table_at_p"] == 1 + 43 / 64
        assert report.candidates == enumerate_axis_nets(4, 1 + 43 / 64).candidates
        assert report.winner == "N(2,2)"

    def test_odd_report_carries_the_line_count_formula(self):
        report = theorem_scan(5)
        assert report.passed
        assert list(report.parameters)[-2:] == ["crossover_line_count_formula", "formulas_disagree"]
        assert report.parameters["crossover"] == 2.0
        assert report.parameters["crossover_line_count_formula"] == 6 * 2 / 9
        assert report.parameters["formulas_disagree"] is True
        assert report.parameters["table_at_p"] == 2 + 1 / 64


def rounded_aspect_scale(w, h, p):
    """A wrong hole score: the hole's aspect rounded to a whole number."""
    s = min(w, h)
    return s * _sample(float(round(max(w, h) / s)), p)[0]


def rounded_aspect_scales(w, h, ps):
    """rounded_aspect_scale at each p in ps, as nets._hole_scales is called."""
    s = min(w, h)
    return s * _samples(float(round(max(w, h) / s)), ps)[0]


def per_p_mismatches(k, ps, score):
    """theorem_scan's mismatches over ps from its one-p-at-a-time loop, with
    the hole score `score`: the reference for its (class, p) table."""
    x = crossover_aspect(k)
    grid_class = k - k // 2
    class_holes = {vmax: evenly_spaced(vmax, k - vmax).widest_hole for vmax in range(grid_class, k + 1)}
    mismatches = []
    for p in ps:
        values = {vmax: score(*hole, p) for vmax, hole in class_holes.items()}
        best = min(values.values())
        tied = sorted(v for v, value in values.items() if ties(value, best))
        predicted = k if p <= x else grid_class
        if predicted not in tied:
            mismatches.append(f"p={p!r}: predicted class {predicted} not in argmin set {tied}")
        elif abs(p - x) > CROSSOVER_WINDOW and tied != [predicted]:
            mismatches.append(f"p={p!r}: unexpected tie set {tied}, predicted {predicted}")
    return mismatches


class TestTheoremScanFailures:
    @pytest.mark.parametrize("k", [3, 5, 8, 11])
    def test_mismatches_match_the_per_p_loop(self, monkeypatch, k):
        # A report keeps its first 10 failures, so the scan runs on every
        # tail of the grid that starts at a tenth mismatch: together they
        # show every mismatch, in order.
        monkeypatch.setattr("tripwire.nets._hole_scales", rounded_aspect_scales)
        expected = per_p_mismatches(k, THEOREM_P_VALUES, rounded_aspect_scale)
        assert expected
        starts = [THEOREM_P_VALUES.index(float(m[2 : m.index(":")])) for m in expected[::10]]
        for start in starts:
            monkeypatch.setattr(oracle, "THEOREM_P_VALUES", THEOREM_P_VALUES[start:])
            report = theorem_scan(k)
            wanted = per_p_mismatches(k, THEOREM_P_VALUES[start:], rounded_aspect_scale)[:10]
            assert list(report.failures) == wanted
            assert report.parameters["mismatches"] == wanted
            assert not report.passed

    def test_both_kinds_of_mismatch(self, monkeypatch):
        monkeypatch.setattr("tripwire.nets._hole_scales", rounded_aspect_scales)
        failures = theorem_scan(5).failures
        assert failures[0] == "p=1.5: unexpected tie set [3, 5], predicted 5"
        assert failures[1].endswith(": predicted class 5 not in argmin set [3]")


class TestLagrangeSplitCheck:
    def test_k2_minimum_at_balanced_split(self):
        report = lagrange_split_check(2, 3)
        assert report.winner == "N(1,1)"
        assert report.passed
        assert report.parameters["c_prime"] == diagonal_branch(1, 3).c / 2
        assert report.parameters["p"] == 3.0

    def test_k4_minimum_at_balanced_split(self):
        c_prime = diagonal_branch(1, 4).c / 3
        report = lagrange_split_check(4, 4)
        assert report.winner == "N(2,2)"
        assert report.passed
        assert list(report.parameters) == ["k", "c_prime", "tie_tolerance", "p"]
        assert report.parameters["c_prime"] == c_prime
        table = dict(report.candidates)
        # the balanced square hole recovers the full diagonal: l = c' p
        assert table["N(2,2)"] == pytest.approx((c_prime * 4) ** 2, abs=1e-9)
        assert table["N(4,0)"] > table["N(3,1)"] > table["N(2,2)"]

    def test_split_symmetry(self):
        report = lagrange_split_check(6, 5)
        table = dict(report.candidates)
        assert table["N(4,2)"] == pytest.approx(table["N(2,4)"], abs=1e-9)
        assert table["N(6,0)"] == pytest.approx(table["N(0,6)"], abs=1e-9)

    def test_parity_and_range_checks(self):
        with pytest.raises(DomainError, match="even k"):
            lagrange_split_check(3, 4.0)
        # the square hole's diagonal branch starts above w_1 = 1 + sqrt(2)
        for p in (0.0, 2.0, crossover_w(1)):
            with pytest.raises(DomainError, match="diagonal branch"):
                lagrange_split_check(4, p)
        for p in (math.inf, math.nan):
            with pytest.raises(DomainError, match="finite"):
                lagrange_split_check(4, p)
        # p is checked before it is compared with w_1
        for p in (None, "5"):
            with pytest.raises(DomainError, match="intruder aspect p must be a real number"):
                lagrange_split_check(4, p)
        assert lagrange_split_check(4, math.nextafter(crossover_w(1), math.inf)).passed

    @pytest.mark.parametrize("k", [2, 4, 12])
    def test_short_side_fits_every_balanced_hole(self, k):
        # c' = C_1(p) / (k/2 + 1) < 1 / (k/2 + 1): the balanced split is always scored
        for p in (2.5, 10.0, 1e6, 1e150, 1e300):
            report = lagrange_split_check(k, p)
            assert dict(report.candidates)[f"N({k // 2},{k // 2})"] is not None
            assert report.passed


class TestIrregularSpacing:
    def test_never_beats_even_spacing(self):
        report = irregular_spacing_check(4, [1.0, 3.0], trials=150, seed=11)
        assert report.passed
        assert [name for name, _ in report.candidates] == ["p=1 worst margin", "p=3 worst margin"]
        assert min(value for _, value in report.candidates) >= -1e-12

    def test_deterministic_for_fixed_seed(self):
        a = irregular_spacing_check(3, [2.0], trials=50, seed=5)
        b = irregular_spacing_check(3, [2.0], trials=50, seed=5)
        assert a.to_dict() == b.to_dict()

    def test_each_p_reseeds_the_generator(self):
        both = irregular_spacing_check(3, [2.0, 1.5], trials=50, seed=5)
        alone = [irregular_spacing_check(3, [p], trials=50, seed=5) for p in (2.0, 1.5)]
        assert both.candidates == tuple(report.candidates[0] for report in alone)
        assert list(both.parameters) == ["k", "p_values", "trials", "tolerance"]
        assert both.parameters["p_values"] == [2.0, 1.5]

    def test_failures_from_every_p(self, monkeypatch):
        # a scale factor that drops with every call makes each jittered net beat even spacing
        scores = iter(range(10**6, 0, -1))
        monkeypatch.setattr("tripwire.nets._hole_scale", lambda w, h, p: float(next(scores)))
        report = irregular_spacing_check(2, [1.0, 2.0], trials=3, seed=0)
        assert not report.passed
        assert [f[-5:] for f in report.failures] == ["p=1.0"] * 3 + ["p=2.0"] * 3


class TestVerificationReport:
    def test_json_round_trip(self):
        report = enumerate_axis_nets(3, 2.5)
        data = json.loads(report.to_json())
        assert data["winner"] == report.winner
        assert data["passed"] is True
        assert data["candidates"] == [[name, value] for name, value in report.candidates]
        assert "seed" in data and "parameters" in data

    def test_winner_is_the_minimum_below_1e_12(self):
        # an absolute 1e-12 margin would let N(4,0) win here
        report = VerificationReport(candidates=(("N(4,0)", 1.02e-12), ("N(2,2)", 4.71e-13)))
        assert report.winner == "N(2,2)"

    def test_negative_minimum_wins(self):
        report = VerificationReport(candidates=(("a", 0.0), ("b", -1e-17), ("c", -1e-17)))
        assert report.winner == "b"

    def test_ties_go_to_the_first_candidate(self):
        report = VerificationReport(candidates=(("a", 2.0), ("b", 0.5), ("c", 0.5 * (1 + 1e-13))))
        assert report.winner == "b"
        report = VerificationReport(candidates=(("c", 0.5 * (1 + 1e-13)), ("b", 0.5)))
        assert report.winner == "c"

    def test_unscored_candidates_never_win(self):
        report = VerificationReport(candidates=(("a", None), ("b", 3.0), ("c", None)))
        assert report.winner == "b"
        with pytest.raises(DomainError):
            VerificationReport(candidates=(("a", None),))

    def test_passed_means_no_failures(self):
        failing = VerificationReport(candidates=(("a", 1.0),), failures=["a broke"])
        assert failing.passed is False
        assert json.loads(failing.to_json())["passed"] is False

    def test_keeps_the_first_ten_failures(self):
        failures = [f"failure {i}" for i in range(25)]
        report = VerificationReport(candidates=(("a", 1.0),), failures=failures)
        assert report.failures == tuple(failures[:10])

    def test_unscored_candidates_are_allowed(self):
        report = VerificationReport(
            candidates=(("a", 1.0), ("b", None)),
            parameters={},
        )
        assert report.to_dict()["candidates"][1] == ["b", None]


@pytest.mark.parametrize(
    "call",
    [
        lambda: enumerate_axis_nets(2.5, 2),
        lambda: enumerate_axis_nets(0, 2),
        lambda: lagrange_split_check(4.0, 4.0),
        lambda: lagrange_split_check(True, 4.0),
        lambda: irregular_spacing_check(3, [2.0], 2.5, 0),
        lambda: irregular_spacing_check(3, [2.0], 10, -1),
        lambda: local_perturbation_experiment(2, PerturbationSpec(shifts=(0.0, 0.0), pivots=(0.0, 0.0), epsilon=0.02)),
        lambda: perturbation_suite(3.5, 10, 0.02, 0),
        lambda: perturbation_suite(3, True, 0.02, 0),
        lambda: perturbation_suite(3, 10, 0.02, 1.0),
    ],
    ids=[
        "enumerate-k-float",
        "enumerate-k-0",
        "lagrange-k-float",
        "lagrange-k-bool",
        "irregular-trials-float",
        "irregular-seed-negative",
        "experiment-k-2",
        "suite-k-float",
        "suite-trials-bool",
        "suite-seed-float",
    ],
)
def test_counts_are_checked_integers(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("p_values", [2.0, None], ids=["float", "none"])
def test_irregular_p_values_must_be_a_sequence(p_values):
    with pytest.raises(DomainError, match="p_values"):
        irregular_spacing_check(3, p_values, 5, 0)


def test_theorem_grid_is_the_shared_p_grid():
    assert THEOREM_P_VALUES == tuple(1.0 + i / 64 for i in range(7 * 64 + 1))
    assert THEOREM_P_VALUES == tuple(p_grid(1.0, 8.0, 1 / 64))


def test_curve_oracle_suite_is_a_library_call():
    report = curve_oracle_check(2.5)
    assert report.passed
    assert [name for name, _ in report.candidates[:3]] == ["p=1", "p=1.125", "p=1.25"]
    assert len(report.candidates) == 73
    assert report.parameters["max_deviation"] == max(value for _, value in report.candidates)


@pytest.mark.parametrize("epsilon", [True, "0.02", None, math.inf], ids=["bool", "str", "none", "inf"])
def test_perturbation_bound_is_a_checked_real(epsilon):
    with pytest.raises(DomainError, match="epsilon"):
        perturbation_suite(3, 5, epsilon, 0)


def test_perturbation_bound_is_reported_as_a_float():
    report = perturbation_suite(3, 5, 0, 0)
    assert report.passed
    assert type(report.parameters["epsilon"]) is float
    assert '"epsilon": 0.0,' in report.to_json()

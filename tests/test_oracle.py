import json
import math

import pytest

from tripwire.errors import DomainError
from tripwire.inscribe import crossover_w, curve_value, diagonal_branch
from tripwire.nets import crossover_aspect, evenly_spaced, net_scale_factor, optimal_net
from tripwire.oracle import (
    VerificationReport,
    enumerate_axis_nets,
    irregular_spacing_check,
    lagrange_split_check,
    oracle_curve_value,
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


class TestLagrangeSplitCheck:
    def test_k2_minimum_at_balanced_split(self):
        c_prime = diagonal_branch(1, 3).c / 2
        report = lagrange_split_check(2, c_prime)
        assert report.winner == "N(1,1)"
        assert report.passed

    def test_k4_minimum_at_balanced_split(self):
        c_prime = diagonal_branch(1, 4).c / 3
        report = lagrange_split_check(4, c_prime)
        assert report.winner == "N(2,2)"
        assert report.passed
        table = dict(report.candidates)
        # the balanced square hole recovers the full diagonal: l = c' p
        assert table["N(2,2)"] == pytest.approx((c_prime * 4) ** 2, abs=1e-9)
        assert table["N(4,0)"] > table["N(3,1)"] > table["N(2,2)"]

    def test_split_symmetry(self):
        c_prime = diagonal_branch(1, 5).c / 4
        report = lagrange_split_check(6, c_prime)
        table = dict(report.candidates)
        assert table["N(4,2)"] == pytest.approx(table["N(2,4)"], abs=1e-9)
        assert table["N(6,0)"] == pytest.approx(table["N(0,6)"], abs=1e-9)

    def test_parity_and_range_checks(self):
        with pytest.raises(DomainError):
            lagrange_split_check(3, 0.1)
        with pytest.raises(DomainError):
            lagrange_split_check(4, 0.0)
        with pytest.raises(DomainError):
            lagrange_split_check(4, 0.5)  # cannot sit in the 1/3-sided grid hole


class TestIrregularSpacing:
    def test_never_beats_even_spacing(self):
        for p in (1.0, 3.0):
            report = irregular_spacing_check(4, p, trials=150, seed=11)
            assert report.passed
            assert min(value for _, value in report.candidates) >= -1e-12

    def test_deterministic_for_fixed_seed(self):
        a = irregular_spacing_check(3, 2.0, trials=50, seed=5)
        b = irregular_spacing_check(3, 2.0, trials=50, seed=5)
        assert a.to_dict() == b.to_dict()


class TestVerificationReport:
    def test_json_round_trip(self):
        report = enumerate_axis_nets(3, 2.5)
        data = json.loads(report.to_json())
        assert data["winner"] == report.winner
        assert data["passed"] is True
        assert data["candidates"] == [[name, value] for name, value in report.candidates]
        assert "seed" in data and "parameters" in data

    def test_winner_must_attain_the_minimum(self):
        with pytest.raises(DomainError):
            VerificationReport(
                candidates=(("a", 1.0), ("b", 2.0)),
                winner="b",
                parameters={},
            )

    def test_unscored_candidates_are_allowed(self):
        report = VerificationReport(
            candidates=(("a", 1.0), ("b", None)),
            winner="a",
            parameters={},
        )
        assert report.to_dict()["candidates"][1] == ["b", None]

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tripwire.cells import PerturbationSpec
from tripwire.errors import DomainError
from tripwire import nets, oracle
from tripwire.inscribe import TIE_RTOL, _sample, _samples, crossover_w, curve_value, diagonal_branch, p_grid, ties
from tripwire.nets import Net, _hole_scale, crossover_aspect, evenly_spaced, net_scale_factor, optimal_net
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

    @pytest.mark.parametrize("k", range(2, 41))
    def test_candidates_read_from_the_table_are_the_enumeration(self, k):
        # the splits below the grid class read their mirror's row
        report = theorem_scan(k)
        assert report.candidates == enumerate_axis_nets(k, report.parameters["table_at_p"]).candidates

    @pytest.mark.parametrize("budget", [1, 5, 449, 2000, nets.GAP_BUDGET])
    @pytest.mark.parametrize("scores", ["closed form", "rounded aspect"])
    def test_reports_do_not_depend_on_the_gap_budget(self, monkeypatch, budget, scores):
        # The (class, p) table is scored in chunks of p columns: at most
        # GAP_BUDGET scores each, and one column when a column is longer.
        if scores == "rounded aspect":  # reports with failures
            monkeypatch.setattr(nets, "_hole_scales", rounded_aspect_scales)
        ks = [2, 5, 11, 40, 301]
        expected = [theorem_scan(k).to_json() for k in ks]
        shapes = one_call(monkeypatch, nets._hole_scales)
        monkeypatch.setattr(nets, "GAP_BUDGET", budget)
        assert [theorem_scan(k).to_json() for k in ks] == expected
        assert all(rows * columns <= budget or columns == 1 for rows, columns in shapes)
        assert sum(columns for _, columns in shapes) == len(ks) * len(THEOREM_P_VALUES)


def rounded_aspect_scale(w, h, p):
    """A wrong hole score: the hole's aspect rounded to a whole number."""
    s = min(w, h)
    return s * _sample(float(round(max(w, h) / s)), p)[0]


def rounded_aspect_scales(w, h, ps):
    """rounded_aspect_scale with w, h and ps broadcast, as nets._hole_scales
    is called; np.round rounds half to even, as round does."""
    s = np.minimum(w, h)
    return s * _samples(np.round(np.maximum(w, h) / s), ps)[0]


def one_call(monkeypatch, scores):
    """Patch nets._hole_scales with `scores`; the returned list records each call's output shape."""
    shapes = []

    def patched(w, h, ps):
        values = scores(w, h, ps)
        shapes.append(values.shape)
        return values

    monkeypatch.setattr("tripwire.nets._hole_scales", patched)
    return shapes


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
        # The scan scores its whole (class, p) table in one call.
        shapes = one_call(monkeypatch, rounded_aspect_scales)
        expected = per_p_mismatches(k, THEOREM_P_VALUES, rounded_aspect_scale)
        assert expected
        starts = [THEOREM_P_VALUES.index(float(m[2 : m.index(":")])) for m in expected[::10]]
        for start in starts:
            monkeypatch.setattr(oracle, "THEOREM_P_VALUES", THEOREM_P_VALUES[start:])
            shapes.clear()
            report = theorem_scan(k)
            assert shapes == [(k // 2 + 1, len(THEOREM_P_VALUES) - start)]
            wanted = per_p_mismatches(k, THEOREM_P_VALUES[start:], rounded_aspect_scale)[:10]
            assert list(report.failures) == wanted
            assert report.parameters["mismatches"] == wanted
            assert not report.passed

    def test_both_kinds_of_mismatch(self, monkeypatch):
        one_call(monkeypatch, rounded_aspect_scales)
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
        # even spacing scored far above any real score makes each jittered net beat it
        scores = iter(range(10**6, 0, -1))
        monkeypatch.setattr("tripwire.nets._hole_scale", lambda w, h, p: float(next(scores)))
        report = irregular_spacing_check(2, [1.0, 2.0], trials=3, seed=0)
        assert not report.passed
        assert [f[-5:] for f in report.failures] == ["p=1.0"] * 3 + ["p=2.0"] * 3


def jittered_positions(count, rng):
    if count == 0:
        return ()
    gap = 1.0 / (count + 1)
    jitter = rng.uniform(-0.49, 0.49, size=count) * gap
    return tuple((i + 1) * gap + jitter[i] for i in range(count))


def per_trial_irregular_report(k, p_values, trials, seed, even_score=_hole_scale):
    """irregular_spacing_check from one validated Net per trial, each p
    drawing its own trials: the reference for its gap lists and tables.
    `even_score` scores the evenly spaced nets."""
    candidates, failures = [], []
    for p in p_values:
        rng = np.random.default_rng(seed)
        even_value = {}
        worst = math.inf
        for trial in range(trials):
            v = int(rng.integers(0, k + 1))
            h = k - v
            if v not in even_value:
                even_value[v] = even_score(*evenly_spaced(v, h).widest_hole, p)
            vertical = jittered_positions(v, rng)
            horizontal = jittered_positions(h, rng)
            value = _hole_scale(*Net(vertical=vertical, horizontal=horizontal).widest_hole, p)
            worst = min(worst, value - even_value[v])
            if not ties(even_value[v], value):
                failures.append(
                    f"trial {trial}: jittered N({v},{h}) scores {value!r} below even "
                    f"spacing {even_value[v]!r} at p={p}"
                )
        candidates.append((f"p={p:.9g} worst margin", worst))
    return VerificationReport(
        candidates=tuple(candidates),
        parameters={"k": k, "p_values": list(p_values), "trials": trials, "tolerance": TIE_RTOL},
        seed=seed,
        failures=tuple(failures),
    )


@st.composite
def irregular_cases(draw):
    """(k, p_values, trials, seed): k in 1..12 or 150 or 300, and a p list
    that holds 1 and 1e12 among other aspects."""
    k = draw(st.sampled_from([*range(1, 13), 150, 300]))
    others = draw(st.lists(st.floats(min_value=1.0, max_value=1e6), max_size=3))
    p_values = draw(st.permutations([1.0, 1e12, *others]))
    trials = draw(st.integers(min_value=1, max_value=6 if k > 12 else 60))
    return k, p_values, trials, draw(st.integers(min_value=0, max_value=2**63))


def jittered_cuts(jitter):
    """Cut i at (i + 1 + jitter[i]) times the even gap, in Python floats."""
    gap = 1.0 / (len(jitter) + 1)
    return [(i + 1) * gap + j * gap for i, j in enumerate(jitter)]


def per_trial_gaps(splits, jitter, pick=max):
    """oracle._widest_gaps trial by trial: `pick` of each axis's gaps of
    Python-float cuts, as (widths, heights) arrays."""
    rows = [
        (pick(nets._gaps(jittered_cuts(row[:v]))), pick(nets._gaps(jittered_cuts(row[v:]))))
        for v, row in zip(splits.tolist(), jitter.tolist())
    ]
    widths, heights = zip(*rows)
    return np.array(widths), np.array(heights)


def narrowest_gaps(splits, jitter):
    """A wrong oracle._widest_gaps: the narrowest gap of the same cuts."""
    return per_trial_gaps(splits, jitter, min)


@st.composite
def jittered_trials(draw):
    """(splits, jitter) of 1 to 4 trials at k <= 300: splits of 0 and k
    among others, and jitters at the extremes +-0.49 among others."""
    k = draw(st.sampled_from([1, 2, 150, 300]) | st.integers(min_value=1, max_value=300))
    trials = draw(st.integers(min_value=1, max_value=4))
    splits = draw(st.lists(st.sampled_from([0, k]) | st.integers(0, k), min_size=trials, max_size=trials))
    jitter = draw(
        st.lists(st.sampled_from([-0.49, 0.49]) | st.floats(-0.49, 0.49), min_size=trials * k, max_size=trials * k)
    )
    return np.array(splits), np.array(jitter).reshape(trials, k)


class TestIrregularGapLists:
    @given(irregular_cases())
    @settings(max_examples=150, deadline=None)
    def test_reports_match_one_net_per_trial(self, case):
        assert irregular_spacing_check(*case).to_json() == per_trial_irregular_report(*case).to_json()

    @pytest.mark.parametrize("k,trials", [(1, 30), (5, 30), (150, 3)])
    def test_failure_messages_match_one_net_per_trial(self, monkeypatch, k, trials):
        # even spacing scored at twice its value: every trial fails
        def doubled(w, h, p):
            return 2.0 * _hole_scale(w, h, p)

        monkeypatch.setattr("tripwire.nets._hole_scale", doubled)
        report = irregular_spacing_check(k, [1.0, 2.5, 1e12], trials, 7)
        assert len(report.failures) == min(10, 3 * trials)
        assert report.to_json() == per_trial_irregular_report(k, [1.0, 2.5, 1e12], trials, 7, doubled).to_json()

    @given(jittered_trials())
    @settings(max_examples=100, deadline=None)
    def test_widest_gaps_match_the_per_trial_gaps(self, trials):
        widths, heights = oracle._widest_gaps(*trials)
        expected_widths, expected_heights = per_trial_gaps(*trials)
        assert widths.tolist() == expected_widths.tolist()
        assert heights.tolist() == expected_heights.tolist()

    @pytest.mark.parametrize("budget", [1, 9, 40, 150, 299, 301, 1200])
    def test_reports_do_not_depend_on_the_gap_budget(self, monkeypatch, budget):
        cases = [(4, [1.0, 3.0, 5.0], 60, 2), (300, [1.0, 4.2], 5, 9), (7, [2.5], 1, 0)]
        expected = [irregular_spacing_check(*case).to_json() for case in cases]
        widest_gaps, chunks = oracle._widest_gaps, []

        def spied(splits, jitter):
            chunks.append(jitter.shape)
            return widest_gaps(splits, jitter)

        monkeypatch.setattr(oracle, "_widest_gaps", spied)
        monkeypatch.setattr(nets, "GAP_BUDGET", budget)
        assert [irregular_spacing_check(*case).to_json() for case in cases] == expected
        # each chunk holds as many trials as fit the budget, and at least one
        k_of_chunks = [k for k, _, trials, _ in cases for _ in range(-(-trials // max(1, budget // k)))]
        assert [k for _, k in chunks] == k_of_chunks
        assert all(rows * k <= budget or rows == 1 for rows, k in chunks)

    def test_the_narrowest_gap_fails_the_suite(self, monkeypatch):
        monkeypatch.setattr(oracle, "_widest_gaps", narrowest_gaps)
        report = irregular_spacing_check(4, [1.0, 3.0], trials=150, seed=11)
        assert not report.passed
        assert min(value for _, value in report.candidates) < 0.0


@pytest.mark.parametrize(
    "call",
    [
        lambda: theorem_scan(2),
        lambda: theorem_scan(41),
        lambda: enumerate_axis_nets(1, 1.5),
        lambda: enumerate_axis_nets(60, 2.2),
        lambda: irregular_spacing_check(4, [1.0, 3.0], 500, 3),
        lambda: irregular_spacing_check(300, [4.2], 4, 0),
    ],
    ids=["theorem-2", "theorem-41", "enumerate-1", "enumerate-60", "irregular-4", "irregular-300"],
)
def test_a_suite_builds_at_most_one_net(monkeypatch, call):
    # enumerate_axis_nets builds its predicted optimum; nothing else builds a Net
    built = []
    post_init = Net.__post_init__

    def counted(self):
        built.append(self.describe())
        post_init(self)

    monkeypatch.setattr(Net, "__post_init__", counted)
    call()
    assert len(built) <= 1


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


@pytest.mark.parametrize("p_values", [2.0, None, []], ids=["float", "none", "empty"])
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

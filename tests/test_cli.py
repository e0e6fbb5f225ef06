import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tripwire.cli
import tripwire.nets
import tripwire.oracle
from tripwire.cli import OutputSpec, cmd_base_curve, cmd_curve, cmd_optimal_net, main
from tripwire.errors import DegenerateCellError, DomainError
from tripwire.svg import NET_MARGIN, NET_UNIT


def run_main(argv):
    return main(argv)


class TestOutputSpec:
    def test_precision_bounds(self):
        with pytest.raises(DomainError):
            OutputSpec(format="csv", path="x", precision=0)
        with pytest.raises(DomainError):
            OutputSpec(format="csv", path="x", precision=18)
        # precision is a count: no fractions, booleans or strings
        for precision in (9.5, True, "9"):
            with pytest.raises(DomainError, match="precision must be an integer"):
                OutputSpec(format="csv", path="x", precision=precision)
        with pytest.raises(DomainError):
            OutputSpec(format="png", path="x")


class TestCurveCommand:
    def test_single_sample_row(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run_main(
            ["curve", "--n", "2", "--p-min", "5", "--p-max", "5.01", "--step", "0.02",
             "--format", "csv", "--out", str(out), "--precision", "6"]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert "p,c,branch" in lines
        assert lines[-1] == "5,0.4,vertical"

    def test_csv_annotations_and_monotonicity(self, tmp_path):
        out = tmp_path / "c1.csv"
        run_main(["curve", "--n", "1", "--p-max", "4", "--step", "0.01",
                  "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        meta = dict(
            line[2:].split("=", 1) for line in lines if line.startswith("# ")
        )
        assert float(meta["plateau_end"]) == 1.0
        assert abs(float(meta["vertical_end"]) - (1 + math.sqrt(2))) < 1e-8
        rows = [line.split(",") for line in lines if not line.startswith(("#", "p,"))]
        values = [float(r[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))

    def test_labels_inside_the_tie_band_are_exact(self, tmp_path):
        # every p lies above w_n, where the diagonal wins by under TIE_RTOL
        out = tmp_path / "band.csv"
        code = run_main(["curve", "--n", "163324.44039590604", "--p-min", "530888.3", "--p-max", "530888.7",
                         "--step", "0.1", "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith(("#", "p,"))]
        assert [branch for _, _, branch in rows] == ["diagonal"] * 5

    def test_byte_identical_across_runs(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["curve", "--n", "1.5", "--p-max", "3", "--step", "0.05", "--format", "csv"]
        run_main(args + ["--out", str(a)])
        run_main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_json_markers(self, tmp_path):
        out = tmp_path / "c.json"
        run_main(["curve", "--n", "1", "--p-max", "4", "--step", "0.5",
                  "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["markers"]["plateau_end"] == 1.0
        assert data["markers"]["vertical_end"] == pytest.approx(1 + math.sqrt(2), abs=1e-8)
        assert data["samples"][0] == {"p": 1.0, "c": 1.0, "branch": "horizontal-plateau"}

    def test_svg_markers_present(self, tmp_path):
        out = tmp_path / "c.svg"
        run_main(["curve", "--n", "1", "--p-max", "4", "--step", "0.05",
                  "--format", "svg", "--out", str(out)])
        doc = out.read_text()
        marks = re.findall(r'class="marker" data-p="([0-9.]+)"', doc)
        assert len(marks) == 2
        assert float(marks[0]) == pytest.approx(1.0, abs=1e-9)
        assert float(marks[1]) == pytest.approx(1 + math.sqrt(2), abs=1e-8)

    def test_empty_range_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_main(["curve", "--n", "1", "--p-min", "2", "--p-max", "2",
                      "--format", "csv", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2


    def test_oversized_range_is_a_usage_error(self, tmp_path):
        # about 1e15 samples: rejected before any is built
        with pytest.raises(SystemExit) as err:
            run_main(["curve", "--n", "1", "--p-max", "1e12", "--step", "1e-3",
                      "--format", "csv", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--p-max", "inf"], "p_max must be finite, got inf"),
            (["--p-max", "4", "--p-min", "nan"], "p_min must be finite, got nan"),
            (["--p-max", "4", "--step", "inf"], "step must be finite, got inf"),
        ],
        ids=["p-max-inf", "p-min-nan", "step-inf"],
    )
    def test_non_finite_range_names_its_flag(self, tmp_path, capsys, flags, message):
        with pytest.raises(SystemExit) as err:
            run_main(["curve", "--n", "2", *flags, "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2
        assert message in capsys.readouterr().err

    def test_wide_hole_aspect(self, tmp_path):
        out = tmp_path / "c.json"
        code = run_main(["curve", "--n", "1e4", "--p-max", "3e4", "--step", "1000",
                         "--format", "json", "--out", str(out), "--precision", "17"])
        assert code == 0
        data = json.loads(out.read_text())
        # w_n = 3n - 4/(9n) + O(1/n^3)
        assert data["markers"]["vertical_end"] == pytest.approx(3e4 - 4 / 9e4, rel=1e-15)


class TestBaseCurveCommand:
    def test_even_crossover_annotation(self, tmp_path):
        out = tmp_path / "b2.csv"
        run_main(["base-curve", "--k", "2", "--p-max", "4", "--step", "0.25",
                  "--format", "csv", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert "# crossover_aspect=1.5" in lines

    def test_odd_secondary_annotation(self, tmp_path):
        out = tmp_path / "b3.json"
        run_main(["base-curve", "--k", "3", "--p-max", "4", "--step", "0.25",
                  "--format", "json", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["annotations"]["crossover_aspect"] == 2.0
        assert data["annotations"]["crossover_aspect_line_count"] == 1.0

    def test_zero_lines_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_main(["base-curve", "--k", "0", "--p-max", "4",
                      "--format", "csv", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_overlay_requires_svg(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_main(["base-curve", "--k", "4", "--p-max", "4", "--overlay", "3,1",
                      "--format", "csv", "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2

    def test_overlay_svg_has_both_series_and_marker_abscissas(self, tmp_path):
        out = tmp_path / "b4.svg"
        run_main(["base-curve", "--k", "4", "--p-max", "12", "--step", "0.1",
                  "--format", "svg", "--out", str(out), "--overlay", "3,1"])
        doc = out.read_text()
        assert 'data-label="base-curve"' in doc
        assert 'data-label="N(3,1)"' in doc
        marks = [float(m) for m in re.findall(r'class="marker" data-p="([0-9.]+)"', doc)]
        assert marks[0] == pytest.approx(5 / 3, abs=1e-9)  # family crossover
        assert marks[1] == pytest.approx(2.0, abs=1e-9)  # competitor hole aspect
        assert marks[2] == pytest.approx(1 + math.sqrt(2), abs=1e-8)  # grid-branch switch
        # competitor branch switch w_2
        assert marks[3] == pytest.approx(5.7664354, abs=1e-6)


def read_csv_table(path):
    """(notes, rows) of a sample table: '# key=value' lines, then the header and rows."""
    lines = path.read_text().splitlines()
    notes = dict(line[2:].split("=") for line in lines if line.startswith("# "))
    header = next(i for i, line in enumerate(lines) if not line.startswith("# "))
    assert lines[header] == "p,c,branch"
    return notes, [line.split(",") for line in lines[header + 1:]]


class TestCsvAndJsonAgree:
    """Both formats carry the same numbers: JSON holds float() of each CSV field."""

    def tables(self, command, args, tmp_path, precision):
        command(*args, OutputSpec(format="csv", path=str(tmp_path / "t.csv"), precision=precision))
        command(*args, OutputSpec(format="json", path=str(tmp_path / "t.json"), precision=precision))
        data = json.loads((tmp_path / "t.json").read_text())
        notes, rows = read_csv_table(tmp_path / "t.csv")
        assert [[float(p), float(c), branch] for p, c, branch in rows] == [
            [s["p"], s["c"], s["branch"]] for s in data["samples"]
        ]
        return notes, data

    @pytest.mark.parametrize("precision", range(1, 18))
    def test_curve(self, tmp_path, precision):
        # every branch: the plateau up to p = 2.5, vertical up to w_n ~ 7.37, diagonal beyond
        notes, data = self.tables(cmd_curve, (2.5, 1.0, 9.0, 0.05), tmp_path, precision)
        assert {s["branch"] for s in data["samples"]} == {"horizontal-plateau", "vertical", "diagonal"}
        assert float(notes.pop("n")) == data["n"]
        assert {key: float(value) for key, value in notes.items()} == data["markers"]
        assert list(notes) == ["plateau_end", "vertical_end"]

    @pytest.mark.parametrize("k", [1, 5])
    @pytest.mark.parametrize("precision", range(1, 18))
    def test_odd_base_curve(self, tmp_path, k, precision):
        notes, data = self.tables(cmd_base_curve, (k, 1.0, 6.0, 0.05), tmp_path, precision)
        assert int(notes.pop("k")) == data["k"] == k
        # a null annotation (no crossover for one line) has no CSV line
        scored = {key: value for key, value in data["annotations"].items() if value is not None}
        assert {key: float(value) for key, value in notes.items()} == scored
        assert len(scored) == (0 if k == 1 else 2)


class TestJsonTables:
    """A table's JSON file is json.dumps(data, indent=2) + "\\n" of the data that it parses to."""

    RANGES = {
        "p_min": st.floats(min_value=1.0, max_value=1e12),
        "width": st.floats(min_value=1e-6, max_value=1e12),
        "samples": st.integers(min_value=1, max_value=200),
        "precision": st.integers(min_value=1, max_value=17),
    }

    @staticmethod
    def assert_file_is_json_dumps(command, args, path, precision):
        command(*args, OutputSpec(format="json", path=str(path), precision=precision))
        data = path.read_bytes()
        assert data == (json.dumps(json.loads(data), indent=2) + "\n").encode()

    @given(n=st.floats(min_value=1.0, max_value=1e12), **RANGES)
    @settings(max_examples=150, deadline=None)
    def test_curve(self, tmp_path_factory, n, p_min, width, samples, precision):
        assume(p_min + width > p_min)
        path = tmp_path_factory.getbasetemp() / "curve.json"
        self.assert_file_is_json_dumps(cmd_curve, (n, p_min, p_min + width, width / samples), path, precision)

    @given(k=st.integers(min_value=1, max_value=40), **RANGES)
    @settings(max_examples=150, deadline=None)
    def test_base_curve(self, tmp_path_factory, k, p_min, width, samples, precision):
        assume(p_min + width > p_min)
        path = tmp_path_factory.getbasetemp() / "base-curve.json"
        self.assert_file_is_json_dumps(cmd_base_curve, (k, p_min, p_min + width, width / samples), path, precision)



# At one digit, p = 1.7e308 .. 1.79e308 prints as 2e+308, past the largest float.
PAST_THE_LARGEST_FLOAT = [
    ["curve", "--n", "1", "--p-min", "1.7e308", "--p-max", "1.79e308", "--step", "1e306"],
    ["base-curve", "--k", "3", "--p-min", "1.7e308", "--p-max", "1.79e308", "--step", "1e306"],
    ["optimal-net", "--k", "4", "--p", "1.7e308"],
]


@pytest.mark.parametrize(
    "flags,fmt",
    [
        pytest.param(flags, fmt, id=f"{flags[0]}-{fmt}")
        for flags in PAST_THE_LARGEST_FLOAT
        for fmt in ("csv", "json", "svg")
        if (flags[0], fmt) != ("optimal-net", "csv")
    ],
)
def test_a_number_printed_past_the_largest_float_is_a_usage_error(tmp_path, capsys, flags, fmt):
    out = tmp_path / f"t.{fmt}"
    with pytest.raises(SystemExit) as err:
        run_main([*flags, "--precision", "1", "--format", fmt, "--out", str(out)])
    assert err.value.code == 2
    assert "1.7e+308 printed at precision 1 is 2e+308, past the largest float" in capsys.readouterr().err
    assert not out.exists()
    # at three digits the largest p printed is 1.79e+308, a float
    assert run_main([*flags, "--precision", "3", "--format", fmt, "--out", str(out)]) == 0


@pytest.mark.parametrize("command", ["curve --n 1", "base-curve --k 4"])
def test_a_table_names_its_first_number_past_the_largest_float(tmp_path, capsys, command):
    # p = 1e308, 1.5e308, 1.79e308: the first prints as 1e+308, the other two as 2e+308
    argv = [*command.split(), "--p-min", "1e308", "--p-max", "1.79e308", "--step", "5e307", "--precision", "1"]
    with pytest.raises(SystemExit) as err:
        run_main([*argv, "--out", str(tmp_path / "t.csv")])
    assert err.value.code == 2
    assert "error: 1.5e+308 printed at precision 1 is 2e+308, past the largest float" in capsys.readouterr().err


NUMBERS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, 1.0, -2.5, 0.1, 1 / 3, 123456789.125,
           1e16, 9.999999999999999e22, 1.7e308, -1.7e308, 1.7976931348623157e308]


@pytest.mark.parametrize("precision", range(1, 18))
def test_a_column_prints_as_each_number_does(precision):
    numbers = [x for x in NUMBERS if math.isfinite(float(format(x, f".{precision}g")))]
    assert tripwire.cli._nums(numbers, precision) == [format(x, f".{precision}g") for x in numbers]
    assert tripwire.cli._nums([], precision) == []


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=20), st.integers(1, 17))
def test_any_column_prints_as_each_number_does(numbers, precision):
    assume(all(math.isfinite(float(format(x, f".{precision}g"))) for x in numbers))
    assert tripwire.cli._nums(numbers, precision) == [format(x, f".{precision}g") for x in numbers]


# Floats drawn where a %g text and the repr of its float are apt to differ.
JSON_NUMBER_CASES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(10**17), 10**17).map(float),  # integral values
    # %g's switch to exponents: below 1e-4 and at 10**P for every P
    st.integers(-6, 17).flatmap(lambda e: st.floats(0.999 * 10.0**e, 1.001 * 10.0**e)),
    st.floats(1e15, 1e16),
    # 15-digit decimals: at 16 digits, %g can print their float as another decimal
    st.integers(10**14, 10**15).map(lambda m: m / 10**14),
    st.just(-0.0),
    st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308),  # subnormals
    st.floats(min_value=2.0**512, allow_infinity=False),
)


@given(numbers=st.lists(st.one_of(JSON_NUMBER_CASES, JSON_NUMBER_CASES.map(lambda x: -x)), max_size=20))
def test_a_json_number_is_the_repr_of_its_text(numbers):
    for precision in range(1, 18):  # every precision on each draw: one draw costs more than the checks
        printable = [x for x in numbers if math.isfinite(float(format(x, f".{precision}g")))]
        texts = tripwire.cli._nums(printable, precision)
        assert tripwire.cli._json_numbers(texts, precision) == [repr(float(text)) for text in texts]


@pytest.mark.parametrize(
    "command,args,fmt",
    [
        pytest.param(command, args, fmt, id=f"{name}-{fmt}")
        for name, command, args, formats in (
            ("base-curve-3", cmd_base_curve, (3, 1.0, 4.0, 0.5), ("csv", "json", "svg")),
            ("base-curve-4", cmd_base_curve, (4, 1.0, 4.0, 0.5), ("csv", "json", "svg")),
            ("optimal-net", cmd_optimal_net, (4, 2.0), ("json", "svg")),
        )
        for fmt in formats
    ],
)
def test_a_numpy_k_writes_what_an_int_k_writes(tmp_path, command, args, fmt):
    k, *rest = args
    command(k, *rest, OutputSpec(format=fmt, path=str(tmp_path / "int")))
    command(np.int64(k), *rest, OutputSpec(format=fmt, path=str(tmp_path / "numpy")))
    assert (tmp_path / "int").read_bytes() == (tmp_path / "numpy").read_bytes()


CURVE_JSON = ["curve", "--n", "2.5", "--p-max", "12", "--step", "0.01", "--format", "json"]


class TestRewrite:
    """An existing --out file is rewritten in place and cut to the new length."""

    @pytest.mark.parametrize("first,second", [("17", "3"), ("3", "17")], ids=["shrinking", "growing"])
    def test_a_rewrite_has_the_bytes_of_a_fresh_write(self, tmp_path, first, second):
        out, fresh = tmp_path / "rewritten.json", tmp_path / "fresh.json"
        assert run_main([*CURVE_JSON, "--precision", first, "--out", str(out)]) == 0
        out.chmod(0o600)
        before = out.stat()
        assert run_main([*CURVE_JSON, "--precision", second, "--out", str(out)]) == 0
        assert run_main([*CURVE_JSON, "--precision", second, "--out", str(fresh)]) == 0
        after = out.stat()
        assert (after.st_size < before.st_size) == (int(second) < int(first))
        assert out.read_bytes() == fresh.read_bytes()
        # the same file, as open(path, "w") would keep it
        assert (after.st_ino, after.st_mode) == (before.st_ino, before.st_mode)

    def test_a_new_file_gets_the_mode_that_open_gives(self, tmp_path):
        umask = os.umask(0o002)
        try:
            assert run_main([*CURVE_JSON, "--out", str(tmp_path / "new.json")]) == 0
        finally:
            os.umask(umask)
        assert (tmp_path / "new.json").stat().st_mode & 0o777 == 0o666 & ~0o002

    def test_a_device_is_written_and_not_cut(self):
        # ftruncate on /dev/null fails with EINVAL
        assert run_main(["curve", "--n", "2", "--p-max", "3", "--out", os.devnull]) == 0


class TestUnwritableOutput:
    """An --out path that cannot be opened is bad input: exit 2 and one stderr line."""

    @pytest.mark.parametrize(
        "argv,out",
        [
            (["curve", "--n", "2", "--p-max", "3"], "x.csv"),
            (["verify", "theorem-even", "--k", "2"], "x.json"),
        ],
        ids=["curve", "verify"],
    )
    @pytest.mark.parametrize("where", ["missing directory", "directory"])
    def test_exit_2_names_the_path_and_the_reason(self, tmp_path, capsys, argv, out, where):
        path, reason = (tmp_path / "missing" / out, "No such file or directory")
        if where == "directory":
            path, reason = tmp_path, "Is a directory"
        assert run_main([*argv, "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"tripwire {argv[0]}: cannot write {path}: {reason}\n"
        assert not (tmp_path / "missing").exists()


class TestOptimalNetCommand:
    def test_k2_wide_intruder(self, tmp_path):
        out = tmp_path / "net.json"
        run_main(["optimal-net", "--k", "2", "--p", "3", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["net"] == {"vertical": [0.5], "horizontal": [0.5]}
        assert data["scale_factor"] == pytest.approx(math.sqrt(2) / 8, abs=1e-9)
        assert data["placement"]["branch"] == "diagonal"

    def test_k2_square_intruder(self, tmp_path):
        out = tmp_path / "net.json"
        run_main(["optimal-net", "--k", "2", "--p", "1", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["net"]["horizontal"] == []
        assert len(data["net"]["vertical"]) == 2
        assert data["scale_factor"] == pytest.approx(1 / 3, abs=1e-9)

    def test_single_line(self, tmp_path):
        out = tmp_path / "net.json"
        run_main(["optimal-net", "--k", "1", "--p", "1", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["net"] == {"vertical": [0.5], "horizontal": []}
        assert data["scale_factor"] == pytest.approx(0.5, abs=1e-9)

    def test_placement_corners_inside_maximizing_hole(self, tmp_path):
        out = tmp_path / "net.json"
        for k, p in [(2, 3), (4, 4), (5, 2.5), (3, 1.0)]:
            cmd_optimal_net(k, p, OutputSpec(format="json", path=str(out), precision=17))
            data = json.loads(out.read_text())
            hole = data["maximizing_hole"]
            for x, y in data["placement"]["corners"]:
                assert hole["x0"] - 1e-9 <= x <= hole["x0"] + hole["width"] + 1e-9
                assert hole["y0"] - 1e-9 <= y <= hole["y0"] + hole["height"] + 1e-9

    def test_svg_geometry_matches_json(self, tmp_path):
        json_out = tmp_path / "net.json"
        svg_out = tmp_path / "net.svg"
        run_main(["optimal-net", "--k", "4", "--p", "4", "--out", str(json_out), "--precision", "17"])
        run_main(["optimal-net", "--k", "4", "--p", "4", "--format", "svg", "--out", str(svg_out)])
        data = json.loads(json_out.read_text())
        doc = svg_out.read_text()
        points = re.search(r'<polygon points="([^"]+)" .*class="intruder"', doc).group(1)
        corners = []
        for pair in points.split():
            px, py = (float(v) for v in pair.split(","))
            corners.append(((px - NET_MARGIN) / NET_UNIT, 1.0 - (py - NET_MARGIN) / NET_UNIT))
        hole = data["maximizing_hole"]
        for (x, y), expected in zip(corners, data["placement"]["corners"]):
            assert x == pytest.approx(expected[0], abs=1e-9)
            assert y == pytest.approx(expected[1], abs=1e-9)
            assert hole["x0"] - 1e-9 <= x <= hole["x0"] + hole["width"] + 1e-9
            assert hole["y0"] - 1e-9 <= y <= hole["y0"] + hole["height"] + 1e-9
        assert doc.count('class="net-line"') == 4

    def test_csv_format_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            run_main(["optimal-net", "--k", "2", "--p", "3", "--format", "csv",
                      "--out", str(tmp_path / "x.csv")])
        assert err.value.code == 2


class TestVerifyCommand:
    def test_lagrange_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(["verify", "lagrange", "--k", "6", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["passed"] is True
        assert data["winner"] == "N(3,3)"

    def test_theorem_even_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(["verify", "theorem-even", "--k", "2", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["parameters"]["crossover"] == 1.5
        assert data["parameters"]["mismatches"] == []

    def test_theorem_odd_flags_formula_disagreement(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(["verify", "theorem-odd", "--k", "3", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["parameters"]["crossover"] == 2.0
        assert data["parameters"]["crossover_line_count_formula"] == 1.0
        assert data["parameters"]["formulas_disagree"] is True

    @pytest.mark.parametrize("suite,k", [("theorem-even", 3), ("theorem-even", 0), ("theorem-odd", 4), ("theorem-odd", 1)])
    def test_theorem_parity_is_a_usage_error(self, tmp_path, capsys, suite, k):
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as err:
            run_main(["verify", suite, "--k", str(k), "--out", str(out)])
        assert err.value.code == 2
        assert f"{suite} needs" in capsys.readouterr().err
        assert not out.exists()

    def test_curve_oracle_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(["verify", "curve-oracle", "--n", "1", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["parameters"]["tolerance"] == 1e-12
        assert data["parameters"]["max_deviation"] <= data["parameters"]["tolerance"]

    def test_curve_oracle_suite_off_the_p_grid(self, tmp_path):
        # the grid's p = 8 sits 3e-12 relative below n: the oracle must read 1
        out = tmp_path / "rep.json"
        code = run_main(["verify", "curve-oracle", "--n", "8.000000000024", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["parameters"]["max_deviation"] <= data["parameters"]["tolerance"]

    def test_curve_oracle_names_n_when_its_grid_is_too_long(self, tmp_path, capsys):
        # p = 1 .. 4n at step 1/8 exceeds the sample limit above n = 31250
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as err:
            run_main(["verify", "curve-oracle", "--n", "1e5", "--out", str(out)])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "n=100000.0 is too large" in message and "--n" not in message and "4n" in message
        assert not out.exists()

    def test_irregular_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(["verify", "irregular", "--k", "3", "--p", "2", "--trials", "60",
                         "--seed", "3", "--out", str(out)])
        assert code == 0

    def test_a_failed_suite_exits_1_and_names_its_first_failure(self, tmp_path, monkeypatch, capsys):
        # scoring each jittered net by its narrowest gap lets jitter beat even spacing
        def narrowest_gaps(splits, jitter):
            def narrowest(row):
                gap = 1.0 / (len(row) + 1)
                return min(tripwire.nets._gaps([(i + 1) * gap + j * gap for i, j in enumerate(row)]))

            pairs = [(narrowest(row[:v]), narrowest(row[v:])) for v, row in zip(splits.tolist(), jitter.tolist())]
            return tuple(np.array(axis) for axis in zip(*pairs))

        monkeypatch.setattr(tripwire.oracle, "_widest_gaps", narrowest_gaps)
        out = tmp_path / "rep.json"
        code = run_main(["verify", "irregular", "--k", "4", "--p", "3", "--trials", "150",
                         "--seed", "11", "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("irregular: FAIL: trial ")
        assert json.loads(out.read_text())["passed"] is False

    def test_local_optimum_suite(self, tmp_path):
        out = tmp_path / "rep.json"
        code = run_main(["verify", "local-optimum", "--k", "3", "--trials", "25",
                         "--seed", "7", "--out", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["seed"] == 7
        assert data["parameters"]["min_perturbed"] >= 0.25 - 1e-9

    @pytest.mark.parametrize(
        "flags",
        [
            ["local-optimum", "--trials", "0"],
            ["irregular", "--trials", "0"],
            ["irregular", "--trials", "-5"],
            ["local-optimum", "--epsilon", "-1"],
            ["local-optimum", "--epsilon", "nan"],
        ],
        ids=["trials-0", "irregular-trials-0", "irregular-trials-neg", "epsilon-neg", "epsilon-nan"],
    )
    def test_bad_input_is_a_usage_error(self, tmp_path, flags):
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as err:
            run_main(["verify", *flags, "--k", "3", "--out", str(out)])
        assert err.value.code == 2
        assert not out.exists()

    @pytest.mark.parametrize("suite", ["irregular", "local-optimum"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, suite):
        out = tmp_path / "rep.json"
        with pytest.raises(SystemExit) as err:
            run_main(["verify", suite, "--k", "3", "--seed", "-1", "--out", str(out)])
        assert err.value.code == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    def test_crossing_lines_are_a_numerical_failure(self, tmp_path):
        # epsilon = 0.3 pivots neighbouring lines into each other
        out = tmp_path / "rep.json"
        result = subprocess.run(
            [sys.executable, "-m", "tripwire", "verify", "local-optimum", "--k", "4",
             "--epsilon", "0.3", "--trials", "20", "--out", str(out)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 3
        assert "Traceback" not in result.stderr
        lines = result.stderr.strip().splitlines()
        assert len(lines) == 1
        assert re.search(r"spec \d+: lines \d+ and \d+ cross", lines[0])
        assert not out.exists()

    def test_degenerate_cell_is_a_numerical_failure(self, tmp_path, monkeypatch, capsys):
        def degenerate(*args, **kwargs):
            raise DegenerateCellError("cell 7 has zero area (2A = 0.0)")

        monkeypatch.setattr(tripwire.cli, "perturbation_suite", degenerate)
        code = run_main(["verify", "local-optimum", "--k", "3", "--out", str(tmp_path / "rep.json")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "cell 7 has zero area" in err

    def test_report_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["verify", "irregular", "--k", "2", "--p", "3", "--trials", "40", "--seed", "9"]
        run_main(args + ["--out", str(a)])
        run_main(args + ["--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point(tmp_path):
    out = tmp_path / "c.csv"
    result = subprocess.run(
        [sys.executable, "-m", "tripwire", "curve", "--n", "2", "--p-min", "5",
         "--p-max", "5.01", "--step", "0.02", "--format", "csv", "--out", str(out),
         "--precision", "6"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text().splitlines()[-1] == "5,0.4,vertical"

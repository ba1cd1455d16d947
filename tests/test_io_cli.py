import json
import math
import multiprocessing
import os
import sys
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

from cetseg import (
    ChangepointConfiguration,
    DataError,
    DegenerateFitError,
    InfeasibleModelError,
    ModelSpec,
    TimeSeries,
)
from cetseg import cli, search
from cetseg.cli import _COMPARE_ROWS, main
from cetseg.io import (
    decomposition_to_csv,
    dumps_json,
    load_series,
    parse_csv,
    parse_hadcet,
    result_to_dict,
    series_to_csv,
)
from cetseg.joinpin import fit_joinpin
from cetseg.longmemory import fit_arfima
from cetseg.plotting import render_svg
from cetseg.search import GAParams, evaluate
from cetseg.simulate import SimSpec, simulate_series

SCHEMA = json.loads(
    (files("cetseg") / "schemas" / "result.schema.json").read_text(encoding="utf-8")
)

# keeps the GA cheap in CLI round-trips
FAST = ["--population", "40", "--generations", "60", "--stagnation", "20"]


def _hadcet_row(year: int, annual: float) -> str:
    months = " ".join(f"{3.0 + 0.1 * k:.1f}" for k in range(12))
    return f" {year}  {months}  {annual:.2f}"


def _hadcet_text(pairs, header=True) -> str:
    lines = []
    if header:
        lines += [
            "Monthly and annual mean temperatures",
            "degrees C",
            "1659 onward",
        ]
    lines += [_hadcet_row(y, v) for y, v in pairs]
    return "\n".join(lines) + "\n"


# headerless three-year inputs, to be prefixed with a byte-order mark
_BOM_CASES = pytest.mark.parametrize("fmt, text", [
    ("csv", "1900,1.0\n1901,2.0\n1902,3.0\n"),
    ("hadcet", _hadcet_text([(1900, 1.0), (1901, 2.0), (1902, 3.0)], header=False)),
], ids=["csv", "hadcet"])
_PARSERS = {"csv": parse_csv, "hadcet": parse_hadcet}


@_BOM_CASES
def test_parsers_drop_a_leading_byte_order_mark(fmt, text):
    # the mark used to make line 1 non-numeric, so it was skipped as a header
    series = _PARSERS[fmt]("\ufeff" + text)
    assert (series.first_year, series.n) == (1900, 3)


class TestParseHadcet:
    def test_last_token_is_the_annual_mean(self):
        series = parse_hadcet(_hadcet_text([(1659, 8.87), (1660, 9.10)]))
        assert series.first_year == 1659
        assert series.n == 2
        np.testing.assert_allclose(series.values, [8.87, 9.10])

    def test_headers_are_skipped(self):
        text = _hadcet_text([(1700, 9.5), (1701, 8.9)], header=True)
        no_header = _hadcet_text([(1700, 9.5), (1701, 8.9)], header=False)
        np.testing.assert_array_equal(
            parse_hadcet(text).values, parse_hadcet(no_header).values
        )

    @pytest.mark.parametrize("code", [-99.9, -99.99])
    def test_trailing_incomplete_year_dropped_with_warning(self, code):
        text = _hadcet_text([(2019, 10.1), (2020, 10.3), (2021, code)])
        with pytest.warns(UserWarning, match="2021"):
            series = parse_hadcet(text)
        assert series.last_year == 2020

    def test_interior_missing_year_is_an_error(self):
        text = _hadcet_text([(2019, 10.1), (2020, -99.99), (2021, 10.3)])
        with pytest.raises(DataError, match="2020"):
            parse_hadcet(text)

    def test_missing_value_texts(self):
        rows = [(2019, 10.1), (2020, 10.3), (2021, -99.9)]
        with pytest.warns(UserWarning) as record:
            parse_hadcet(_hadcet_text(rows))
        [warning] = record
        assert str(warning.message) == "dropping year 2021: annual mean not yet available"
        assert warning.filename == __file__  # attributed to the parser's caller
        rows = [(2019, 10.1), (2020, -99.99), (2021, 10.3)]
        with pytest.raises(DataError) as err:
            parse_hadcet(_hadcet_text(rows))
        assert str(err.value) == "line 5: missing annual mean for year 2020"

    def test_year_gap_is_an_error(self):
        with pytest.raises(DataError, match="gap"):
            parse_hadcet(_hadcet_text([(1700, 9.5), (1702, 8.9)]))

    def test_duplicate_year_is_an_error(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_hadcet(_hadcet_text([(1700, 9.5), (1700, 8.9)]))

    def test_malformed_row_after_data_names_the_line(self):
        text = _hadcet_text([(1700, 9.5)], header=False) + "1701 3.0 4.0\n"
        with pytest.raises(DataError, match="line 2"):
            parse_hadcet(text)

    def test_empty_input_is_an_error(self):
        with pytest.raises(DataError, match="no data rows"):
            parse_hadcet("just a header\n")


class TestParseCsv:
    def test_with_header(self):
        series = parse_csv("year,temp\n2000,9.1\n2001,9.3\n")
        assert series.first_year == 2000
        assert series.n == 2
        np.testing.assert_allclose(series.values, [9.1, 9.3])

    def test_without_header(self):
        series = parse_csv("2000,9.1\n2001,9.3\n")
        assert series.first_year == 2000
        assert series.n == 2

    def test_duplicate_year_is_an_error(self):
        with pytest.raises(DataError, match="duplicate"):
            parse_csv("2000,9.1\n2000,9.3\n")

    def test_year_gap_is_an_error(self):
        with pytest.raises(DataError, match="gap"):
            parse_csv("2000,9.1\n2003,9.3\n")

    def test_wrong_column_count(self):
        with pytest.raises(DataError, match="2 columns"):
            parse_csv("2000,9.1,extra\n")

    def test_non_numeric_cell_after_data(self):
        with pytest.raises(DataError, match="line 2"):
            parse_csv("2000,9.1\n2001,oops\n")

    def test_trailing_missing_value_dropped_with_warning(self):
        with pytest.warns(UserWarning, match="2002"):
            series = parse_csv("2000,9.1\n2001,9.3\n2002,-99.99\n")
        assert series.last_year == 2001

    def test_missing_value_texts(self):
        with pytest.warns(UserWarning) as record:
            parse_csv("2000,9.1\n2001,9.3\n2002,-99.99\n")
        [warning] = record
        assert str(warning.message) == "dropping year 2002: value marked missing"
        assert warning.filename == __file__  # attributed to the parser's caller
        with pytest.raises(DataError) as err:
            parse_csv("year,value\n2000,9.1\n2001,-99.9\n2002,9.3\n")
        assert str(err.value) == "line 3: missing value for year 2001"

    def test_parse_emit_round_trip_is_exact(self):
        spec = SimSpec(n=50, phi=0.4, sigma=0.9, seed=8, first_year=1888)
        original = simulate_series(spec)
        again = parse_csv(series_to_csv(original))
        assert again.first_year == original.first_year
        np.testing.assert_array_equal(again.values, original.values)


class TestLoadSeries:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_series(str(tmp_path / "nope.dat"))

    def test_unknown_format(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("2000,9.1\n", encoding="utf-8")
        with pytest.raises(DataError, match="format"):
            load_series(str(p), fmt="tsv")

    @_BOM_CASES
    def test_byte_order_mark_keeps_the_first_year(self, tmp_path, fmt, text):
        p = tmp_path / "bom.txt"
        p.write_text("\ufeff" + text, encoding="utf-8")
        series = load_series(str(p), fmt=fmt)
        assert (series.first_year, series.n) == (1900, 3)

    def test_undecodable_input_is_a_data_error(self, tmp_path):
        p = tmp_path / "bad.bin"
        p.write_bytes(b"\xff\xfe1900,1.0\n")
        with pytest.raises(DataError, match="cannot read"):
            load_series(str(p), fmt="csv")


def _shifted_series(n=24, tau=12):
    rng = np.random.default_rng(99)
    values = rng.normal(0.0, 0.5, n)
    values[tau:] += 4.0
    return TimeSeries(1900, values)


class TestResultSerialization:
    def test_trend_fit_validates_against_schema(self):
        series = _shifted_series()
        fit = evaluate(
            series, ModelSpec("trend-shift", "ar1"), ChangepointConfiguration((12,))
        )
        doc = result_to_dict(fit, series, seed=3, ga_params=GAParams())
        jsonschema.validate(doc, SCHEMA)
        assert doc["changepoint_years"] == [1912]
        assert doc["segments"][0]["start_year"] == 1900
        assert doc["segments"][0]["end_year"] == 1911
        assert doc["segments"][1]["end_year"] == 1923

    def test_variance_fit_validates_and_carries_variances(self):
        series = _shifted_series()
        centered = TimeSeries(1900, series.values - series.values.mean())
        fit = evaluate(
            centered,
            ModelSpec("variance-shift", "wn"),
            ChangepointConfiguration((12,)),
        )
        doc = result_to_dict(fit, centered, seed=None, ga_params=None)
        jsonschema.validate(doc, SCHEMA)
        for seg in doc["segments"]:
            assert seg["variance"] > 0
            assert seg["intercept"] is None

    def test_joinpin_fit_validates(self):
        series = _shifted_series()
        fit = fit_joinpin(series, ChangepointConfiguration((12,)), sigma2_fixed=0.3)
        doc = result_to_dict(fit, series, seed=1, ga_params=GAParams())
        jsonschema.validate(doc, SCHEMA)
        assert doc["model"] == "joinpin"
        assert doc["rss"] == pytest.approx(fit.rss)
        assert doc["score"] == pytest.approx(fit.bic_score)

    def test_long_memory_fit_validates(self):
        rng = np.random.default_rng(5)
        series = TimeSeries(1900, rng.normal(9.0, 1.0, 60))
        doc = result_to_dict(fit_arfima(series, p=1), series, seed=0, ga_params=None)
        jsonschema.validate(doc, SCHEMA)
        assert doc["model"] == "long-memory"
        assert doc["errors"] == "ar1"
        assert doc["changepoint_years"] == []
        assert doc["segments"] == []
        assert doc["penalty_value"] == 4 * math.log(60)
        assert doc["score"] == doc["penalty_value"] - 2 * doc["loglik"]

    def test_dumps_json_is_canonical(self):
        text = dumps_json({"b": 1, "a": [1.5, None]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert json.loads(text) == {"b": 1, "a": [1.5, None]}

    def test_decomposition_alignment_checked(self):
        series = _shifted_series()
        with pytest.raises(Exception):
            decomposition_to_csv(series, np.zeros(5))


@pytest.fixture()
def csv_file(tmp_path):
    """Synthetic series with one unmistakable level shift at 1930."""
    spec = SimSpec(
        n=60, taus=(30,), mus=(0.0, 3.0), sigma=0.5, seed=42, first_year=1900
    )
    path = tmp_path / "series.csv"
    path.write_text(series_to_csv(simulate_series(spec)), encoding="utf-8")
    return str(path)


def _fit_args(csv_file, *extra):
    return ["fit", "--input", csv_file, "--format", "csv", *FAST, *extra]


class TestCliFit:
    def test_json_output_validates_and_flags_the_shift(self, csv_file, capsys):
        rc = main(_fit_args(csv_file, "--model", "mean-shift", "--out", "json",
                            "--seed", "4"))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["seed"] == 4
        assert doc["model"] == "mean-shift"
        assert doc["errors"] == "ar1"
        assert 1930 in doc["changepoint_years"]
        assert doc["input"] == {"first_year": 1900, "last_year": 1959, "n": 60}
        assert doc["ga_params"]["population_size"] == 40

    def test_table_output_echoes_seed(self, csv_file, capsys):
        rc = main(_fit_args(csv_file, "--model", "mean-shift", "--seed", "4"))
        assert rc == 0
        out = capsys.readouterr().out
        assert "model" in out.splitlines()[0]
        assert "seed: 4" in out

    def test_csv_output_is_a_consistent_decomposition(self, csv_file, capsys):
        rc = main(_fit_args(csv_file, "--model", "mean-shift", "--out", "csv",
                            "--seed", "4"))
        assert rc == 0
        captured = capsys.readouterr()
        assert "seed: 4" in captured.err
        lines = captured.out.strip().splitlines()
        assert lines[0] == "year,observed,fitted,residual"
        assert len(lines) == 61
        with open(csv_file, encoding="utf-8") as handle:
            source = parse_csv(handle.read())
        for row, value in zip(lines[1:], source.values):
            year, obs, fit, resid = row.split(",")
            assert float(obs) == value
            assert float(obs) - float(fit) == float(resid)

    def test_residuals_matches_fit_csv(self, csv_file, capsys):
        main(_fit_args(csv_file, "--model", "trend-shift", "--out", "csv",
                       "--seed", "2"))
        via_fit = capsys.readouterr().out
        main(["residuals", "--input", csv_file, "--format", "csv", *FAST,
              "--model", "trend-shift", "--seed", "2"])
        via_residuals = capsys.readouterr().out
        assert via_fit == via_residuals

    @pytest.mark.parametrize("flag", [["--out", "json"], ["--plot", "x.svg"]])
    def test_residuals_takes_no_output_flags(self, csv_file, capsys, flag):
        # `residuals` is `fit --out csv`, but its parser has no --out or --plot
        with pytest.raises(SystemExit) as exit_:
            main(["residuals", "--input", csv_file, "--format", "csv",
                  "--model", "mean-shift", *flag])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    def test_same_seed_is_byte_identical(self, csv_file, capsys):
        args = _fit_args(csv_file, "--model", "trend-shift", "--out", "json",
                         "--seed", "11")
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_env_seed_and_override(self, csv_file, capsys, monkeypatch):
        monkeypatch.setenv("CETSEG_SEED", "9")
        main(_fit_args(csv_file, "--model", "mean-shift", "--out", "json"))
        assert json.loads(capsys.readouterr().out)["seed"] == 9
        main(_fit_args(csv_file, "--model", "mean-shift", "--out", "json",
                       "--seed", "4"))
        assert json.loads(capsys.readouterr().out)["seed"] == 4

    def test_bad_env_seed_is_a_data_error(self, csv_file, capsys, monkeypatch):
        monkeypatch.setenv("CETSEG_SEED", "not-a-number")
        assert main(_fit_args(csv_file, "--model", "mean-shift")) == 2

    def test_year_restriction(self, csv_file, capsys):
        rc = main(_fit_args(csv_file, "--model", "mean-shift", "--out", "json",
                            "--from", "1910", "--to", "1949"))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["input"] == {"first_year": 1910, "last_year": 1949, "n": 40}

    def test_reversed_year_range_exits_2(self, csv_file, capsys):
        assert main(_fit_args(csv_file, "--model", "mean-shift",
                              "--from", "1950", "--to", "1910")) == 2

    def test_out_of_span_range_exits_2(self, csv_file, capsys):
        assert main(_fit_args(csv_file, "--model", "mean-shift",
                              "--from", "1800")) == 2

    def test_three_point_series_with_trend_model_exits_3(self, tmp_path, capsys):
        p = tmp_path / "tiny.csv"
        p.write_text("2000,1.0\n2001,2.0\n2002,3.0\n", encoding="utf-8")
        assert main(["fit", "--input", str(p), "--format", "csv",
                     "--model", "trend-shift"]) == 3

    def test_constant_series_exits_2(self, tmp_path, capsys):
        # every mean-shift configuration fits a constant series exactly
        p = tmp_path / "flat.csv"
        p.write_text("".join(f"{2000 + i},5.0\n" for i in range(8)), encoding="utf-8")
        assert main(["fit", "--input", str(p), "--format", "csv",
                     "--model", "mean-shift"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("model, errors", [
        ("mean-shift", "ar1"), ("trend-shift", "ar1"), ("trend-shift", "wn"),
        ("fixed-slope", "ar1"), ("variance-shift", "wn"), ("joinpin", "wn"),
    ])
    def test_values_too_large_to_square_exit_2(self, tmp_path, capsys, model, errors):
        # the fast scorers square max|x|; that must not end in an OverflowError
        signs = np.resize([1.0, -1.0], 40) * np.linspace(1.0, 2.0, 40)
        for scale, code in ((1e200, 2), (1e100, 0)):
            p = tmp_path / "huge.csv"
            p.write_text("".join(f"{1900 + i},{v!r}\n" for i, v in enumerate(
                (scale * signs).tolist())), encoding="utf-8")
            assert main(["fit", "--input", str(p), "--format", "csv", "--model", model,
                         "--errors", errors, *FAST]) == code
        assert "sum of squares overflows" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, errors, under", [
        ("mean-shift", "ar1", 0), ("trend-shift", "ar1", 0), ("trend-shift", "wn", 0),
        ("fixed-slope", "ar1", 0), ("joinpin", "wn", 0), ("long-memory", "wn", 0),
        ("long-memory", "ar1", 0),
        # the variance stage fits the trend stage's residuals, which reach
        # 1.05 max|x| on this series and so cross the bound
        ("variance-shift", "wn", 2),
    ])
    def test_values_at_the_overflow_bound(self, tmp_path, capsys, model, errors, under):
        # The fits' largest term is about (N max|x|)^2: just under that bound
        # a family fits without an overflow warning, just over it the series
        # is rejected.  1e153 has a finite sum of squares, but not that term.
        n = 40
        root = math.sqrt(sys.float_info.max)
        signs = np.resize([1.0, -1.0], n) * np.linspace(0.5, 1.0, n)
        for scale, code in ((1.01 * root / n, 2), (0.99 * root / n, under), (1e153, 2),
                            (1e100, 0)):
            p = tmp_path / "huge.csv"
            p.write_text("".join(f"{1900 + i},{v!r}\n" for i, v in enumerate(
                (scale * signs).tolist())), encoding="utf-8")
            assert main(["fit", "--input", str(p), "--format", "csv", "--model", model,
                         "--errors", errors, *FAST]) == code
            err = capsys.readouterr().err
            assert ("sum of squares overflows" in err) == (code == 2)

    @pytest.mark.parametrize("flag, value", [
        ("--population", "0"), ("--population", "1"), ("--stagnation", "0"),
    ])
    def test_out_of_range_ga_settings_exit_3(self, csv_file, capsys, flag, value):
        # zero is a value, not "unset": it must be rejected, not replaced by the default
        assert main(_fit_args(csv_file, "--model", "mean-shift", flag, value)) == 3

    def test_bic_only_families_reject_mdl(self, csv_file, capsys):
        assert main(_fit_args(csv_file, "--model", "long-memory",
                              "--penalty", "mdl")) == 3
        assert main(_fit_args(csv_file, "--model", "joinpin",
                              "--penalty", "mdl")) == 3

    @pytest.mark.parametrize("command", ["fit", "residuals"])
    @pytest.mark.parametrize("model", ["joinpin", "variance-shift"])
    def test_white_noise_only_families_reject_ar1(self, csv_file, capsys, model, command):
        # these used to fit white noise silently and exit 0
        argv = ["--input", csv_file, "--format", "csv", *FAST,
                "--model", model, "--errors", "ar1"]
        assert main([command, *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{model} is scored with wn errors only" in captured.err

    @pytest.mark.parametrize("model,errors", [
        ("mean-shift", "ar1"),
        ("trend-shift", "ar1"),
        ("fixed-slope", "ar1"),
        ("variance-shift", "wn"),
        ("joinpin", "wn"),
        ("long-memory", "wn"),
    ])
    def test_default_error_model(self, csv_file, capsys, model, errors):
        assert main(_fit_args(csv_file, "--model", model, "--out", "json")) == 0
        assert json.loads(capsys.readouterr().out)["errors"] == errors

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--format", "csv", "--model", "mean-shift"]) == 2

    def test_undecodable_input_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\xff\xfe1900,1.0\n")
        assert main(["fit", "--input", str(path), "--format", "csv",
                     "--model", "mean-shift"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")

    def test_unwritable_plot_path_exits_2(self, csv_file, tmp_path, capsys):
        path = tmp_path / "missing" / "fit.svg"
        assert main(_fit_args(csv_file, "--model", "mean-shift", "--plot", str(path))) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {path}: ")

    @pytest.mark.parametrize("command", ["fit", "compare", "residuals"])
    @pytest.mark.parametrize("sigma2", ["nan", "inf", "-1", "0"])
    def test_joinpin_sigma2_must_be_finite_and_positive(self, csv_file, capsys,
                                                         command, sigma2):
        argv = [command, "--input", csv_file, "--format", "csv", *FAST, "--sigma2", sigma2]
        if command != "compare":
            argv += ["--model", "joinpin"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "sigma2_fixed must be finite and positive" in captured.err

    @pytest.mark.parametrize("command", ["fit", "residuals"])
    @pytest.mark.parametrize("sigma2, message", [
        ("0.3", "--sigma2 applies to joinpin only, not trend-shift"),
        ("-5", "sigma2_fixed must be finite and positive"),
    ], ids=["valid", "invalid"])
    def test_sigma2_with_another_model_exits_3(self, csv_file, capsys, command,
                                                sigma2, message):
        # a --sigma2 that the model ignores used to exit 0, even when invalid
        argv = [command, "--input", csv_file, "--format", "csv", *FAST,
                "--model", "trend-shift", "--sigma2", sigma2]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_variance_shift_json(self, csv_file, capsys):
        rc = main(_fit_args(csv_file, "--model", "variance-shift", "--out", "json",
                            "--seed", "4"))
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["model"] == "variance-shift"
        for seg in doc["segments"]:
            assert seg["variance"] > 0


class TestCliPlot:
    def test_plot_flag_writes_svg(self, csv_file, tmp_path, capsys):
        out = tmp_path / "fit.svg"
        rc = main(_fit_args(csv_file, "--model", "mean-shift", "--seed", "4",
                            "--plot", str(out)))
        assert rc == 0
        svg = out.read_text(encoding="utf-8")
        assert svg.startswith("<svg")
        assert 'class="observations"' in svg

    def test_mean_shift_renders_one_polyline_per_regime(self):
        series = _shifted_series()
        fit = evaluate(
            series, ModelSpec("mean-shift", "ar1"), ChangepointConfiguration((12,))
        )
        svg = render_svg(series, fit)
        assert svg.count('class="fitted-segment"') == 2
        assert svg.count('class="boundary"') == 1
        assert 'class="fitted-joinpin"' not in svg

    def test_joinpin_renders_single_connected_polyline(self):
        series = _shifted_series()
        fit = fit_joinpin(series, ChangepointConfiguration((12,)), sigma2_fixed=0.3)
        svg = render_svg(series, fit)
        assert svg.count('class="fitted-joinpin"') == 1
        assert 'class="fitted-segment"' not in svg

    def test_flat_trend_renders_one_line(self):
        series = _shifted_series()
        fit = evaluate(
            series, ModelSpec("trend-shift", "wn"), ChangepointConfiguration(())
        )
        svg = render_svg(series, fit)
        assert svg.count('class="fitted-segment"') == 1
        assert svg.count('class="boundary"') == 0

    def test_long_memory_renders_mean_line(self):
        rng = np.random.default_rng(5)
        series = TimeSeries(1900, rng.normal(9.0, 1.0, 60))
        svg = render_svg(series, fit_arfima(series, p=0))
        assert svg.count('class="fitted-mean"') == 1


class TestCliSimulate:
    def test_simulate_round_trips_and_echoes_seed(self, capsys):
        args = ["simulate", "--n", "40", "--taus", "15", "--mu", "0,2",
                "--sigma", "0.5", "--seed", "3", "--first-year", "1950"]
        rc = main(args)
        assert rc == 0
        captured = capsys.readouterr()
        assert "seed: 3" in captured.err
        series = parse_csv(captured.out)
        assert series.first_year == 1950
        assert series.n == 40
        direct = simulate_series(
            SimSpec(n=40, taus=(15,), mus=(0.0, 2.0), sigma=0.5, seed=3,
                    first_year=1950)
        )
        np.testing.assert_array_equal(series.values, direct.values)

    def test_simulate_is_deterministic(self, capsys):
        args = ["simulate", "--n", "25", "--seed", "6"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        assert first == capsys.readouterr().out

    @pytest.mark.parametrize("env, flag", [(None, ["--seed", "-1"]), ("-1", [])])
    def test_negative_seed_exits_3(self, capsys, monkeypatch, env, flag):
        if env is not None:
            monkeypatch.setenv("CETSEG_SEED", env)
        assert main(["simulate", "--n", "10", *flag]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("flags, message", [
        (["--sigma", "inf"], "sigma must be finite"),
        (["--sigma", "nan"], "sigma must be finite"),
        (["--mu", "inf"], "mus must be finite"),
        (["--beta", "inf"], "betas must be finite"),
        (["--mu", "1e308", "--sigma", "1e308"], "series values must be finite"),
    ])
    def test_non_finite_parameters_exit_3(self, capsys, flags, message):
        assert main(["simulate", "--n", "5", *flags]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")

    def test_bad_mu_count_exits_3(self, capsys):
        assert main(["simulate", "--n", "20", "--taus", "10", "--mu", "0"]) == 3

    def test_garbled_taus_exit_2(self, capsys):
        assert main(["simulate", "--n", "20", "--taus", "1,x", "--mu", "0,1"]) == 2

    @pytest.mark.parametrize("taus", ["4.7", "4,9.5", "inf"])
    def test_non_integer_taus_exit_2(self, capsys, taus):
        # a fractional changepoint used to be truncated silently
        assert main(["simulate", "--n", "20", "--taus", taus, "--mu", "0,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --taus expects integers")


# compare forks a worker for its MDL rows where the platform forks safely
_CAN_FORK = sys.platform != "darwin" and "fork" in multiprocessing.get_all_start_methods()


class TestCliCompare:
    def test_compare_json_structure_and_reproducibility(self, csv_file, capsys):
        rc = main(["compare", "--input", csv_file, "--format", "csv", *FAST,
                   "--seed", "6", "--out", "json"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        jsonschema.validate(doc, SCHEMA)
        assert doc["seed"] == 6
        triples = [(r["model"], r["errors"], r["penalty"]) for r in doc["rows"]]
        assert triples == _COMPARE_ROWS

        # each row is reproducible by a standalone fit with the same seed
        trend_row = doc["rows"][triples.index(("trend-shift", "wn", "bic"))]
        main(_fit_args(csv_file, "--model", "trend-shift", "--errors", "wn",
                       "--penalty", "bic", "--seed", "6", "--out", "json"))
        assert json.loads(capsys.readouterr().out) == trend_row

        joinpin_row = doc["rows"][triples.index(("joinpin", "wn", "bic"))]
        main(_fit_args(csv_file, "--model", "joinpin", "--seed", "6",
                       "--out", "json"))
        assert json.loads(capsys.readouterr().out) == joinpin_row

    def test_compare_table_lists_all_rows(self, csv_file, capsys):
        rc = main(["compare", "--input", csv_file, "--format", "csv", *FAST,
                   "--seed", "6"])
        assert rc == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 + len(_COMPARE_ROWS) + 1  # header, rows, seed
        assert out[-1] == "seed: 6"

    @pytest.fixture(params=["forked", "in-process"])
    def mode(self, request, monkeypatch):
        """Run compare with its MDL rows in a forked worker, or all in-process."""
        if request.param == "forked" and not _CAN_FORK:
            pytest.skip("fork is unavailable or unsafe here")
        monkeypatch.setattr(cli, "_fork_is_safe", lambda: request.param == "forked")
        return request.param

    @pytest.mark.skipif(not _CAN_FORK, reason="fork is unavailable or unsafe here")
    @pytest.mark.parametrize("seed", [1, 7])
    def test_forked_worker_prints_the_in_process_bytes(self, tmp_path, capsys,
                                                        monkeypatch, seed):
        spec = SimSpec(n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
                       betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=seed,
                       first_year=1659)
        data = tmp_path / "series.csv"
        data.write_text(series_to_csv(simulate_series(spec)), encoding="utf-8")
        argv = ["compare", "--input", str(data), "--format", "csv", "--out", "json",
                "--generations", "40", "--seed", str(seed)]
        outputs = []
        for fork in (True, False):
            monkeypatch.setattr(cli, "_fork_is_safe", lambda: fork)
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out.encode("utf-8"))
            assert multiprocessing.active_children() == []
        assert outputs[0] == outputs[1]

    # Both layouts run the same plan: the BIC rows (1, 3, 5, 7, 9, 10, 11),
    # then the MDL rows (2, 4, 6, 8), each group up to its first failure.
    @pytest.mark.parametrize("failing, printed, code, started", [
        # an MDL row alone; it runs in the worker when compare forks
        ({6: DegenerateFitError}, 6, 2, [1, 2, 3, 4, 5, 6, 7, 9, 10, 11]),
        # a BIC row earlier in the table wins over a later MDL row ...
        ({3: DegenerateFitError, 6: DegenerateFitError}, 3, 2, [1, 2, 3, 4, 6]),
        # ... and an MDL row over a later BIC row, whatever its error type
        ({4: InfeasibleModelError, 5: DegenerateFitError}, 4, 3, [1, 2, 3, 4, 5]),
        # each group stops at its first row
        ({1: InfeasibleModelError, 2: DegenerateFitError}, 1, 3, [1, 2]),
        ({2: DegenerateFitError, 3: InfeasibleModelError}, 2, 2, [1, 2, 3]),
    ], ids=["mdl", "bic-first", "mdl-first", "first-of-each", "mdl-first-row"])
    def test_error_of_the_earliest_failing_row_is_printed(self, csv_file, capsys, tmp_path,
                                                          monkeypatch, mode, failing,
                                                          printed, code, started):
        parent = os.getpid()
        run_analysis = cli.run_analysis
        log = tmp_path / "started.txt"

        def failing_rows(req):
            row = _COMPARE_ROWS.index((req.model, req.errors, req.penalty)) + 1
            with open(log, "a", encoding="utf-8") as stream:  # both processes append
                stream.write(f"{row}\n")
            forked = os.getpid() != parent
            if forked != (mode == "forked" and req.penalty == "mdl"):
                raise AssertionError(f"row {row} ran in the wrong process")
            if row in failing:
                raise failing[row](f"row {row} failed")
            return run_analysis(req)

        monkeypatch.setattr(cli, "run_analysis", failing_rows)
        assert main(["compare", "--input", csv_file, "--format", "csv", *FAST]) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: row {printed} failed\n"
        assert sorted(int(row) for row in log.read_text(encoding="utf-8").split()) == started
        assert multiprocessing.active_children() == []

    def test_in_process_groups_draw_each_generation_once(self, csv_file, capsys,
                                                         monkeypatch):
        # in-process, both row groups run in one draw memo
        monkeypatch.setattr(cli, "_fork_is_safe", lambda: False)
        drawn = []
        draw = search._draw

        def counted(params, n, child_count, gen):
            drawn.append((n, child_count, gen))
            return draw(params, n, child_count, gen)

        monkeypatch.setattr(search, "_draw", counted)
        assert main(["compare", "--input", csv_file, "--format", "csv", *FAST]) == 0
        assert drawn and len(drawn) == len(set(drawn))

    @pytest.mark.skipif(not _CAN_FORK, reason="fork is unavailable or unsafe here")
    def test_unflushed_stdout_is_written_once(self, csv_file, tmp_path, monkeypatch):
        # text left in a block-buffered stdout when the worker forks must
        # not be written again when the worker exits
        monkeypatch.setattr(cli, "_fork_is_safe", lambda: True)
        out = tmp_path / "out.txt"
        with open(out, "w", encoding="utf-8") as stream, monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", stream)
            stream.write("pending\n")
            assert main(["compare", "--input", csv_file, "--format", "csv", *FAST,
                         "--out", "json"]) == 0
        text = out.read_text(encoding="utf-8")
        assert text.startswith("pending\n{") and text.count("pending") == 1

    @pytest.mark.skipif(not _CAN_FORK, reason="fork is unavailable or unsafe here")
    def test_a_worker_that_dies_is_reported(self, csv_file, monkeypatch):
        monkeypatch.setattr(cli, "_fork_is_safe", lambda: True)
        monkeypatch.setattr(cli, "_worker", lambda conn, *args: os._exit(5))
        with pytest.raises(RuntimeError, match="exited with code 5 before sending its rows"):
            main(["compare", "--input", csv_file, "--format", "csv", *FAST])
        assert multiprocessing.active_children() == []

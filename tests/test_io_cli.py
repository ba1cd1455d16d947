import json
from importlib.resources import files

import jsonschema
import numpy as np
import pytest

from cetseg import (
    ChangepointConfiguration,
    DataError,
    ModelSpec,
    TimeSeries,
)
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

    def test_missing_input_exits_2(self, tmp_path, capsys):
        assert main(["fit", "--input", str(tmp_path / "nope.csv"),
                     "--format", "csv", "--model", "mean-shift"]) == 2

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

    def test_bad_mu_count_exits_3(self, capsys):
        assert main(["simulate", "--n", "20", "--taus", "10", "--mu", "0"]) == 3

    def test_garbled_taus_exit_2(self, capsys):
        assert main(["simulate", "--n", "20", "--taus", "1,x", "--mu", "0,1"]) == 2


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

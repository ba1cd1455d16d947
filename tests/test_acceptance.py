"""Acceptance gate: one test per criterion, frozen expected values.

Criteria 1-8 reproduce the reference analysis of the Central England
Temperature annual series (1659-2020) and therefore need the data file;
see conftest.load_cet_or_skip for where to put it.  Without the file
those tests skip loudly.  Criteria 9-11 are self-contained.

Searches over the full series use the package's default GA settings,
which are sized for series of this length; each one finishes in well
under a minute on ordinary hardware.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import lean_ga, patient_ga
from cetseg import (
    ChangepointConfiguration,
    ModelSpec,
    TimeSeries,
)
from cetseg.cli import main
from cetseg.io import fitted_values_of, series_to_csv
from cetseg.joinpin import joinpin_search
from cetseg.longmemory import fit_arfima
from cetseg.search import (
    GAParams,
    evaluate,
    exhaustive_optimize,
    ga_optimize,
    min_segment_length,
)
from cetseg.simulate import SimSpec, simulate_series


@pytest.fixture(scope="module")
def cet_fit(cet_series):
    """Memoized GA runs on the full series, shared across criteria."""
    cache = {}

    def run(mean, errors, penalty):
        key = (mean, errors, penalty)
        if key not in cache:
            spec = ModelSpec(mean, errors, penalty)
            cache[key] = ga_optimize(cet_series, spec, GAParams(seed=0)).best
        return cache[key]

    return run


def test_criterion_01_trend_wn_flags_years_and_scores(cet_series, cet_fit):
    bic = cet_fit("trend-shift", "wn", "bic")
    mdl = cet_fit("trend-shift", "wn", "mdl")
    assert bic.changepoint_years(cet_series) == (1700, 1739, 1988)
    assert mdl.changepoint_years(cet_series) == (1700, 1739, 1988)
    assert bic.score == pytest.approx(651.74, abs=0.5)
    assert mdl.score == pytest.approx(642.30, abs=0.5)
    assert bic.loglik == pytest.approx(-290.52, abs=0.3)


def test_criterion_02_trend_ar1_flags_and_parameters(cet_series, cet_fit):
    bic = cet_fit("trend-shift", "ar1", "bic")
    mdl = cet_fit("trend-shift", "ar1", "mdl")
    assert bic.changepoint_years(cet_series) == (1700, 1739, 1988)
    assert mdl.changepoint_years(cet_series) == (1700, 1739, 1988)
    assert bic.score == pytest.approx(655.43, abs=0.5)
    assert mdl.score == pytest.approx(645.98, abs=0.5)
    assert bic.phi_hat == pytest.approx(0.06, abs=0.01)
    assert bic.sigma2_hat == pytest.approx(0.29, abs=0.01)


def test_criterion_03_mean_ar1_flags_under_both_penalties(cet_series, cet_fit):
    bic = cet_fit("mean-shift", "ar1", "bic")
    mdl = cet_fit("mean-shift", "ar1", "mdl")
    assert bic.changepoint_years(cet_series) == (1706, 1740, 1741, 1893, 1989)
    assert bic.score == pytest.approx(652.41, abs=0.5)
    assert bic.phi_hat == pytest.approx(0.13, abs=0.01)
    assert mdl.changepoint_years(cet_series) == (
        1691, 1699, 1727, 1740, 1741, 1911, 1989,
    )
    assert mdl.score == pytest.approx(649.00, abs=0.7)


def test_criterion_04_fixed_slope_single_flag_1988(cet_series, cet_fit):
    bic = cet_fit("fixed-slope", "ar1", "bic")
    mdl = cet_fit("fixed-slope", "ar1", "mdl")
    assert bic.changepoint_years(cet_series) == (1988,)
    assert bic.score == pytest.approx(655.79, abs=0.5)
    # Only the configuration is pinned under MDL: the two reference
    # summaries of this row carry inconsistent scores, so the score
    # itself is informational here.
    assert mdl.changepoint_years(cet_series) == (1988,)


def test_criterion_05_winning_segment_parameters(cet_series, cet_fit):
    fit = cet_fit("trend-shift", "wn", "mdl")
    expected = ((9.25, -0.027), (7.78, 0.026), (8.78, 0.002), (6.50, 0.011))
    assert fit.means is not None and fit.slopes is not None
    assert len(fit.means) == len(expected)
    for (a, b), (mean, slope) in zip(expected, zip(fit.means, fit.slopes)):
        assert mean == pytest.approx(a, abs=0.02)
        assert slope == pytest.approx(b, abs=0.02)


def test_criterion_06_variance_search_on_trend_residuals_flat(cet_series, cet_fit):
    trend = cet_fit("trend-shift", "wn", "bic")
    residuals = cet_series.values - fitted_values_of(trend, cet_series)
    resid_series = TimeSeries(cet_series.first_year, residuals)
    for penalty in ("bic", "mdl"):
        spec = ModelSpec("variance-shift", "wn", penalty)
        best = ga_optimize(resid_series, spec, GAParams(seed=0)).best
        assert best.config.m == 0, f"{penalty} flagged {best.config.taus}"


def test_criterion_07_joinpin_flags_1972_and_is_continuous(cet_series):
    fit = joinpin_search(cet_series, sigma2_fixed=0.29, params=GAParams(seed=0)).best
    years = tuple(cet_series.first_year + tau for tau in fit.config.taus)
    assert years == (1972,)
    fitted = fitted_values_of(fit, cet_series)
    for i, tau in enumerate(fit.config.taus):
        at_left = fit.means[i] + fit.slopes[i] * tau
        at_right = fit.means[i + 1] + fit.slopes[i + 1] * tau
        assert abs(at_left - at_right) <= 1e-9
        assert abs(fitted[tau - 1] - at_left) <= 1e-9
    # flagged year must not depend on the exact error-variance plug-in
    for factor in (0.8, 1.2):
        wobble = joinpin_search(
            cet_series, sigma2_fixed=0.29 * factor, params=GAParams(seed=0)
        ).best
        flagged = tuple(cet_series.first_year + t for t in wobble.config.taus)
        assert flagged == (1972,), f"sigma2 x{factor} flagged {flagged}"


def test_criterion_08_long_memory_scores_exceed_trend_wn(cet_series, cet_fit):
    lm0 = fit_arfima(cet_series, p=0)
    lm1 = fit_arfima(cet_series, p=1)
    assert lm0.bic_score == pytest.approx(655.93, abs=3.0)
    assert lm1.bic_score == pytest.approx(656.75, abs=3.0)
    trend_bic = cet_fit("trend-shift", "wn", "bic").score
    assert lm0.bic_score > trend_bic
    assert lm1.bic_score > trend_bic


FAMILIES = (
    ("mean-shift", "ar1"),
    ("trend-shift", "ar1"),
    ("trend-shift", "wn"),
    ("fixed-slope", "ar1"),
    ("variance-shift", "wn"),
)


def test_criterion_09_ga_matches_exhaustive_oracle():
    for fam_idx, (mean, errors) in enumerate(FAMILIES):
        matches = 0
        for i in range(100):
            n = 12 + i % 3
            penalty = "bic" if i % 2 == 0 else "mdl"
            spec = ModelSpec(mean, errors, penalty)
            series = simulate_series(
                SimSpec(n=n, phi=0.4, sigma=1.0, seed=7000 + fam_idx * 1000 + i)
            )
            params = patient_ga(seed=i) if mean == "mean-shift" else lean_ga(seed=i)
            got = ga_optimize(series, spec, params).best
            want = exhaustive_optimize(series, spec).best
            # every GA answer must be a feasible configuration
            got.config.validate_for(n, min_segment_length(spec))
            if got.score == pytest.approx(want.score, abs=1e-9):
                matches += 1
        assert matches >= 98, f"{mean}+{errors}: {matches}/100"


def test_criterion_10_invariance_suite():
    # location shift: configurations and scores are unchanged
    for fam_idx, (mean, errors) in enumerate(
        (("mean-shift", "ar1"), ("trend-shift", "wn"), ("fixed-slope", "ar1"))
    ):
        for i in range(25):
            n = 10 + i % 3
            penalty = "bic" if i % 2 == 0 else "mdl"
            spec = ModelSpec(mean, errors, penalty)
            series = simulate_series(
                SimSpec(n=n, phi=0.3, sigma=1.0, seed=8000 + fam_idx * 100 + i)
            )
            shifted = TimeSeries(series.first_year, series.values + 7.25)
            base = exhaustive_optimize(series, spec).best
            moved = exhaustive_optimize(shifted, spec).best
            assert moved.config.taus == base.config.taus
            assert abs(moved.score - base.score) <= 1e-9

    # positive scaling: the BIC-minimal configuration is unchanged
    for fam_idx, (mean, errors) in enumerate(FAMILIES):
        for i in range(25):
            n = 10 + i % 3
            spec = ModelSpec(mean, errors, "bic")
            series = simulate_series(
                SimSpec(n=n, phi=0.3, sigma=1.0, seed=8500 + fam_idx * 100 + i)
            )
            scaled = TimeSeries(series.first_year, series.values * 2.7)
            base = exhaustive_optimize(series, spec).best
            grown = exhaustive_optimize(scaled, spec).best
            assert grown.config.taus == base.config.taus

    # nesting: refining a configuration never raises -2 log L* for the
    # families whose likelihood is fully profiled (pooled or per-regime
    # variance maximized exactly); the AR(1) plug-in families are
    # excluded, see test_ar1_plugin_refinement_can_raise_neg2loglik.
    rng = np.random.default_rng(9000)
    checked = 0
    while checked < 100:
        mean, errors = ("trend-shift", "wn") if checked % 2 == 0 else (
            "variance-shift", "wn",
        )
        spec = ModelSpec(mean, errors, "bic")
        min_len = min_segment_length(spec)
        n = int(rng.integers(12, 21))
        series = TimeSeries(1900, rng.normal(0.0, 1.0, n))
        taus = sorted(rng.choice(np.arange(1, n), size=3, replace=False).tolist())
        child = ChangepointConfiguration(tuple(taus))
        try:
            child.validate_for(n, min_len)
        except Exception:
            continue
        drop = int(rng.integers(0, 3))
        parent = ChangepointConfiguration(tuple(t for j, t in enumerate(taus) if j != drop))
        fine = evaluate(series, spec, child)
        coarse = evaluate(series, spec, parent)
        assert fine.neg2loglik <= coarse.neg2loglik + 1e-9
        checked += 1


def test_ar1_plugin_refinement_can_raise_neg2loglik():
    """Characterizes why criterion 10's nesting check excludes AR(1).

    The AR(1) coefficient is a moment plug-in, not a profile maximizer,
    so refining a configuration can worsen the plugged-in likelihood.
    This pins a concrete witness so the exclusion stays justified.
    """
    x = np.random.default_rng(397).normal(0, 1, 8)
    series = TimeSeries(2000, x)
    spec = ModelSpec("mean-shift", "ar1")
    flat = evaluate(series, spec, ChangepointConfiguration(()))
    split = evaluate(series, spec, ChangepointConfiguration((7,)))
    assert flat.neg2loglik == pytest.approx(6.461520, abs=1e-5)
    assert split.neg2loglik == pytest.approx(8.077329, abs=1e-5)
    assert split.neg2loglik > flat.neg2loglik


def test_criterion_11_same_seed_byte_identical_json(tmp_path):
    spec = SimSpec(n=60, taus=(30,), mus=(0.0, 2.5), sigma=0.6, seed=5, first_year=1900)
    data = tmp_path / "series.csv"
    data.write_text(series_to_csv(simulate_series(spec)), encoding="utf-8")
    argv = [
        sys.executable,
        "-c",
        "import sys; from cetseg.cli import main; sys.exit(main(sys.argv[1:]))",
        "fit", "--input", str(data), "--format", "csv",
        "--model", "trend-shift", "--out", "json", "--seed", "13",
        "--population", "60", "--generations", "120", "--stagnation", "40",
    ]
    env = dict(os.environ)
    env.pop("CETSEG_SEED", None)
    first = subprocess.run(argv, capture_output=True, env=env)
    second = subprocess.run(argv, capture_output=True, env=env)
    assert first.returncode == 0 and second.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.endswith(b"\n")
    json.loads(first.stdout)


# SHA-256 of whole canonical outputs on the fixed simulated CET-like
# series.  A change that alters any answer, digit or key re-pins these,
# recording old -> new digests in CHANGES.md.
CANONICAL_OUTPUTS = {
    "compare": (
        ["compare", "--out", "json", "--generations", "40", "--seed", "1"],
        "fcd196b3634850b537c1c2d71af350ee9f74eca8af91863f968a3616022ce39f",
    ),
    "fit": (
        ["fit", "--model", "trend-shift", "--errors", "wn", "--penalty", "mdl",
         "--generations", "100", "--seed", "1", "--out", "json"],
        "afcf265d1ef7547345974c3f6e5b4fcb3cfb000a25888df97928cda9cd82f13a",
    ),
    # the two-stage fits: a trend-shift+wn search, then the variance or
    # joinpin search
    "fit-variance-shift": (
        ["fit", "--model", "variance-shift", "--generations", "40", "--seed", "1",
         "--out", "json"],
        "5c9ae1024d756730cfe4c67a85038c05302c7650ded46a45d5427c54ec4c590c",
    ),
    "fit-joinpin": (
        ["fit", "--model", "joinpin", "--generations", "40", "--seed", "1", "--out", "json"],
        "019963bc2fe18c545d60c7d45aa536c7305680853d781eedc4140a5764ccd340",
    ),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_OUTPUTS))
def test_canonical_output_is_pinned(name, tmp_path, capsys):
    spec = SimSpec(n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
                   betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=1,
                   first_year=1659)
    data = tmp_path / "series.csv"
    data.write_text(series_to_csv(simulate_series(spec)), encoding="utf-8")
    command, digest = CANONICAL_OUTPUTS[name]
    assert main([command[0], "--input", str(data), "--format", "csv", *command[1:]]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest() == digest

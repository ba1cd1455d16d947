import itertools
import math
import sys
import warnings

import numpy as np
import pytest

from conftest import lean_ga

from cetseg import (
    ChangepointConfiguration,
    DegenerateFitError,
    DomainError,
    FitResult,
    TimeSeries,
)
from cetseg import joinpin
from cetseg.estimation import LOG_2PI
from cetseg.io import fitted_values_of
from cetseg.joinpin import (
    _design,
    _least_squares,
    default_knot_penalty,
    fit_joinpin,
    joinpin_search,
)
from cetseg.search import SearchReport


def _series(seed: int, n: int, sigma: float = 1.0) -> TimeSeries:
    rng = np.random.default_rng(seed)
    return TimeSeries(1900, rng.normal(0.0, sigma, n))


def _kinked(n: int, tau: int, slope_gain: float, sigma: float, seed: int) -> TimeSeries:
    t = np.arange(1.0, n + 1.0)
    mean = 1.0 + 0.5 * t + slope_gain * np.maximum(0.0, t - tau)
    rng = np.random.default_rng(seed)
    return TimeSeries(1900, mean + rng.normal(0.0, sigma, n))


class TestFitJoinpin:
    def test_perfect_v_is_interpolated(self):
        t = np.arange(1.0, 12.0)
        series = TimeSeries(1900, np.abs(t - 6.0))
        fit = fit_joinpin(series, ChangepointConfiguration((6,)), sigma2_fixed=0.29)
        assert fit.rss == pytest.approx(0.0, abs=1e-18)
        fitted = fitted_values_of(fit, series)
        assert fitted[5] == pytest.approx(0.0, abs=1e-9)
        np.testing.assert_allclose(fitted, series.values, atol=1e-9)
        assert fit.slopes == pytest.approx((-1.0, 1.0), abs=1e-9)
        assert fit.means[0] == pytest.approx(6.0, abs=1e-9)

    def test_no_knots_reduces_to_ols(self):
        series = _series(1, 20)
        fit = fit_joinpin(series, ChangepointConfiguration(()), sigma2_fixed=1.0)
        slope, intercept = np.polyfit(np.arange(1.0, 21.0), series.values, 1)
        line = intercept + slope * np.arange(1.0, 21.0)
        np.testing.assert_allclose(fitted_values_of(fit, series), line, atol=1e-9)
        assert fit.means + fit.slopes == pytest.approx((intercept, slope), abs=1e-9)

    @pytest.mark.parametrize("seed,taus", [(2, (5,)), (3, (4, 9)), (4, (3, 8, 14))])
    def test_continuous_at_every_knot(self, seed, taus):
        series = _series(seed, 18)
        fit = fit_joinpin(series, ChangepointConfiguration(taus), sigma2_fixed=0.7)
        fitted = fitted_values_of(fit, series)
        for i, tau in enumerate(taus):
            left = fit.means[i] + fit.slopes[i] * tau
            right = fit.means[i + 1] + fit.slopes[i + 1] * tau
            assert abs(left - right) <= 1e-9
            assert fitted[tau - 1] == pytest.approx(left, abs=1e-9)

    def test_segment_lines_reproduce_fitted_values(self):
        # the per-regime lines give the hinge least-squares values X @ coef
        series = _series(5, 16)
        cfg = ChangepointConfiguration((6, 11))
        fit = fit_joinpin(series, cfg, sigma2_fixed=1.3)
        coef, _ = _least_squares(series.values, cfg.taus)
        hinge = _design(cfg.taus, 16) @ coef
        for regime, sl in enumerate(cfg.slices(16)):
            a, b = fit.means[regime], fit.slopes[regime]
            t = np.arange(sl.start + 1, sl.stop + 1, dtype=float)
            np.testing.assert_allclose(hinge[sl], a + b * t, atol=1e-9)
        # and at the paper's length, on the planted knots of the CET-like fixture
        from cetseg.simulate import SimSpec, simulate_series

        series = simulate_series(SimSpec(
            n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
            betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=1, first_year=1659))
        cfg = ChangepointConfiguration((41, 80, 329))
        fit = fit_joinpin(series, cfg, sigma2_fixed=0.29)
        coef, _ = _least_squares(series.values, cfg.taus)
        hinge = _design(cfg.taus, 362) @ coef
        assert np.max(np.abs(fitted_values_of(fit, series) - hinge)) <= 1e-12

    def test_rss_never_beats_unconstrained_trend(self):
        from cetseg.estimation import fit_trend_shift, fitted_mean

        cfg = ChangepointConfiguration((7, 14))
        for seed in range(6, 12):
            series = _series(seed, 20)
            jfit = fit_joinpin(series, cfg, sigma2_fixed=1.0)
            means, slopes = fit_trend_shift(series, cfg)
            resid = series.values - fitted_mean(cfg, means, slopes, 20)
            assert jfit.rss >= float(resid @ resid) - 1e-9

    def test_score_identities(self):
        series = _series(12, 15)
        cfg = ChangepointConfiguration((8,))
        fit = fit_joinpin(series, cfg, sigma2_fixed=0.5, knot_penalty=4.0)
        assert isinstance(fit, FitResult)
        assert fit.model.label() == "joinpin+wn/bic"
        assert fit.penalty_value == 4.0
        expected_n2ll = fit.rss / 0.5 + 15 * math.log(0.5) + 15 * LOG_2PI
        assert fit.neg2loglik == pytest.approx(expected_n2ll, abs=1e-10)
        assert fit.bic_score == pytest.approx(fit.neg2loglik + 4.0 * 1, abs=1e-12)

    def test_default_penalty_is_three_log_n(self):
        series = _series(13, 15)
        cfg = ChangepointConfiguration((8,))
        fit = fit_joinpin(series, cfg, sigma2_fixed=0.5)
        assert fit.knot_penalty == pytest.approx(3.0 * math.log(15))
        explicit = fit_joinpin(series, cfg, 0.5, knot_penalty=default_knot_penalty(15))
        assert fit.bic_score == pytest.approx(explicit.bic_score, abs=1e-12)

    def test_singular_design_is_degenerate(self):
        # a knot at the last index gives an all-zero ramp column
        with pytest.raises(DegenerateFitError, match="singular"):
            _least_squares(np.arange(6.0), (6,))

    def test_rejects_bad_inputs(self):
        series = _series(14, 12)
        with pytest.raises(DomainError):
            fit_joinpin(series, ChangepointConfiguration((1,)), sigma2_fixed=1.0)
        with pytest.raises(DomainError):
            fit_joinpin(series, ChangepointConfiguration((6,)), sigma2_fixed=0.0)
        for sigma2 in (-0.29, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                fit_joinpin(series, ChangepointConfiguration((6,)), sigma2_fixed=sigma2)


def _exhaustive_joinpin(series, sigma2, max_m):
    """Independent oracle: itertools over knot sets, min segment 2."""
    n = series.n
    best = None
    for m in range(max_m + 1):
        for taus in itertools.combinations(range(2, n - 1), m):
            bounds = (0,) + taus + (n,)
            if any(b - a < 2 for a, b in zip(bounds, bounds[1:])):
                continue
            fit = fit_joinpin(series, ChangepointConfiguration(taus), sigma2)
            key = (fit.bic_score, m, taus)
            if best is None or key < best[0]:
                best = (key, fit)
    return best[1]


class TestJoinpinSearch:
    def test_recovers_clean_kink(self):
        series = _kinked(50, tau=25, slope_gain=-1.0, sigma=0.05, seed=21)
        fit = joinpin_search(series, sigma2_fixed=0.0025, params=lean_ga(seed=1)).best
        assert isinstance(fit, FitResult)
        assert fit.config.taus == (25,)
        assert fit.slopes[0] == pytest.approx(0.5, abs=0.02)
        assert fit.slopes[1] == pytest.approx(-0.5, abs=0.02)

    def test_matches_exhaustive_up_to_two_knots(self):
        for seed in range(30, 40):
            series = _series(seed, 12)
            oracle = _exhaustive_joinpin(series, sigma2=1.0, max_m=2)
            found = joinpin_search(
                series, sigma2_fixed=1.0, max_m=2, params=lean_ga(seed=seed)
            ).best
            assert found.bic_score == pytest.approx(oracle.bic_score, abs=1e-9), (
                f"seed {seed}: GA {found.config.taus} vs oracle {oracle.config.taus}"
            )

    def test_max_m_zero_is_plain_ols(self):
        series = _series(41, 20)
        found = joinpin_search(series, sigma2_fixed=1.0, max_m=0, params=lean_ga()).best
        direct = fit_joinpin(series, ChangepointConfiguration(()), 1.0)
        assert found.config.m == 0
        assert found.bic_score == pytest.approx(direct.bic_score, abs=1e-12)

    def test_deterministic_for_fixed_seed(self):
        series = _kinked(30, tau=14, slope_gain=0.8, sigma=0.4, seed=42)
        a = joinpin_search(series, 0.16, params=lean_ga(seed=9)).best
        b = joinpin_search(series, 0.16, params=lean_ga(seed=9)).best
        assert a.config.taus == b.config.taus
        assert a.bic_score == b.bic_score

    def test_reports_like_the_other_searches(self):
        series = _kinked(40, tau=20, slope_gain=-0.6, sigma=0.3, seed=43)
        report = joinpin_search(series, 0.09, params=lean_ga(seed=2))
        assert isinstance(report, SearchReport)
        history = report.score_history
        assert len(history) == report.generations_run + 1
        assert all(b <= a for a, b in zip(history, history[1:]))
        assert history[-1] == report.best.score
        assert report.evaluations_count >= lean_ga().population_size
        assert report.seed == 2

    def test_undecided_fast_scores_fall_back_to_the_fit(self, monkeypatch):
        # with no fast RSS, every knot tuple is scored by fit_joinpin alone
        series = _kinked(30, tau=14, slope_gain=0.8, sigma=0.4, seed=42)
        monkeypatch.setattr(
            joinpin, "joinpin_rss",
            lambda values: lambda regimes: np.full(regimes.m.size, np.nan),
        )
        report = joinpin_search(series, 0.16, params=lean_ga(seed=9))
        assert report.best == fit_joinpin(series, report.best.config, 0.16)

    def test_rejects_bad_variance(self):
        series = _series(44, 20)
        for sigma2 in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(DomainError, match="finite and positive"):
                joinpin_search(series, sigma2_fixed=sigma2, params=lean_ga())

    def test_rejects_a_variance_the_rss_overflows(self):
        series = _series(44, 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="1e-320 is too small for this series"):
                joinpin_search(series, sigma2_fixed=1e-320, params=lean_ga())
        # the least variance that does not overflow is searched as before
        centred = series.values - series.values.mean()
        tiny = float(np.dot(centred, centred)) / sys.float_info.max
        assert joinpin_search(series, sigma2_fixed=2 * tiny, params=lean_ga()).best.config.m >= 0


@pytest.mark.parametrize("seed, taus, score", [
    (21, (38, 41, 84, 86), "269.0080114801441"),
    (22, (31, 43, 81, 90), "254.5476382859672"),
])
def test_golden_search_answer(seed, taus, score):
    # pinned on the whole-generation GA stream, keyed by (seed, generation)
    from cetseg.search import GAParams
    from cetseg.simulate import SimSpec, simulate_series

    series = simulate_series(SimSpec(
        n=120, taus=(40, 85), mus=(0.0, 1.0, 0.3), betas=(0.0, 0.01, -0.01),
        phi=0.3, sigma=0.6, seed=seed, first_year=1900))
    params = GAParams(population_size=40, max_generations=40, stagnation_limit=15, seed=seed)
    fit = joinpin_search(series, 0.36, params=params).best
    assert fit.config.taus == taus
    assert repr(fit.bic_score) == score


def test_golden_search_answer_at_the_paper_length():
    # pinned before the search scored configurations with the fast RSS
    from cetseg import ModelSpec
    from cetseg.search import GAParams, ga_optimize
    from cetseg.simulate import SimSpec, simulate_series

    series = simulate_series(SimSpec(
        n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
        betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=1, first_year=1659))
    params = GAParams(max_generations=40)
    stage = ga_optimize(series, ModelSpec("trend-shift", "wn", "bic"), params)
    fit = joinpin_search(series, stage.best.sigma2_hat, params=params).best
    assert fit.config.taus == (78, 80, 328, 330)
    assert repr(fit.bic_score) == "623.7563344906548"

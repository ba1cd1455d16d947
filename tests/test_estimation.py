import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cetseg import ChangepointConfiguration, DegenerateFitError, DomainError, TimeSeries
from cetseg.estimation import (
    LOG_2PI,
    estimate_ar1,
    fit_fixed_slope,
    fit_mean_shift,
    fit_trend_shift,
    fit_variance_shift,
    fitted_mean,
    gaussian_neg2loglik,
    innovation_variance,
)


def _ts(values, first_year=1900):
    return TimeSeries(first_year, np.asarray(values, dtype=float))


class TestMeanShift:
    def test_segment_means(self):
        ts = _ts([1, 1, 1, 5, 5, 5, 5, 9, 9, 9])
        means = fit_mean_shift(ts, ChangepointConfiguration((3, 7)))
        assert means == (1.0, 5.0, 9.0)

    def test_single_regime_is_grand_mean(self):
        ts = _ts([2.0, 4.0, 9.0])
        assert fit_mean_shift(ts, ChangepointConfiguration(())) == (5.0,)


class TestTrendShift:
    def test_matches_polyfit_per_regime(self, rng):
        # independent oracle: numpy polyfit on the same global time axis
        x = rng.normal(0, 1, 30) + 0.3 * np.arange(1, 31)
        ts = _ts(x)
        cfg = ChangepointConfiguration((11, 21))
        mus, betas = fit_trend_shift(ts, cfg)
        t = np.arange(1.0, 31.0)
        for i, s in enumerate(cfg.slices(30)):
            beta_ref, mu_ref = np.polyfit(t[s], x[s], 1)
            assert mus[i] == pytest.approx(mu_ref, abs=1e-10)
            assert betas[i] == pytest.approx(beta_ref, abs=1e-10)

    def test_global_time_axis(self):
        # same line in both regimes: intercepts agree only if the
        # regressor does not restart at each regime
        t = np.arange(1.0, 21.0)
        ts = _ts(3.0 + 0.5 * t)
        mus, betas = fit_trend_shift(ts, ChangepointConfiguration((10,)))
        assert mus == pytest.approx((3.0, 3.0))
        assert betas == pytest.approx((0.5, 0.5))

    def test_min_segment_length_three(self):
        ts = _ts(np.arange(10.0))
        with pytest.raises(DomainError):
            fit_trend_shift(ts, ChangepointConfiguration((2,)))
        with pytest.raises(DomainError):
            fit_trend_shift(ts, ChangepointConfiguration((8,)))


class TestFixedSlope:
    def test_matches_dummy_regression_oracle(self, rng):
        # independent oracle: lstsq on [regime dummies | global t]
        x = rng.normal(0, 1, 24) + 0.2 * np.arange(1, 25)
        ts = _ts(x)
        cfg = ChangepointConfiguration((8, 15))
        mus, beta = fit_fixed_slope(ts, cfg)
        n = 24
        t = np.arange(1.0, n + 1.0)
        design = np.zeros((n, 4))
        for i, s in enumerate(cfg.slices(n)):
            design[s, i] = 1.0
        design[:, 3] = t
        coef, *_ = np.linalg.lstsq(design, x, rcond=None)
        assert beta == pytest.approx(coef[3], abs=1e-10)
        assert mus == pytest.approx(tuple(coef[:3]), abs=1e-10)

    def test_one_regime_equals_trend_shift_exactly(self, rng):
        x = rng.normal(0, 1, 15)
        ts = _ts(x)
        empty = ChangepointConfiguration(())
        mus, betas = fit_trend_shift(ts, empty)
        mus2, beta2 = fit_fixed_slope(ts, empty)
        assert (mus2[0], beta2) == (mus[0], betas[0])

    def test_min_segment_length_two(self):
        ts = _ts(np.arange(10.0))
        with pytest.raises(DomainError):
            fit_fixed_slope(ts, ChangepointConfiguration((1,)))


class TestFittedMeanAndDetrend:
    def test_step_function(self):
        cfg = ChangepointConfiguration((2,))
        f = fitted_mean(cfg, (1.0, 3.0), None, 5)
        assert list(f) == [1.0, 1.0, 3.0, 3.0, 3.0]

    def test_lines(self):
        cfg = ChangepointConfiguration((2,))
        f = fitted_mean(cfg, (0.0, 10.0), (1.0, -1.0), 4)
        assert list(f) == [1.0, 2.0, 7.0, 6.0]

    def test_parameter_count_mismatch(self):
        with pytest.raises(DomainError):
            fitted_mean(ChangepointConfiguration((2,)), (1.0,), None, 5)

    def test_residuals_of_own_fit_sum_to_zero_per_regime(self, rng):
        x = rng.normal(2, 1, 20)
        ts = _ts(x)
        cfg = ChangepointConfiguration((7,))
        means = fit_mean_shift(ts, cfg)
        d = ts.values - fitted_mean(cfg, means, None, 20)
        for s in cfg.slices(20):
            assert float(d[s].sum()) == pytest.approx(0.0, abs=1e-10)


class TestAr1:
    def test_hand_computed(self):
        d = np.array([1.0, 2.0, -1.0, 0.5])
        num = 1 * 2 + 2 * (-1) + (-1) * 0.5
        den = 1 + 4 + 1 + 0.25
        assert estimate_ar1(d) == pytest.approx(num / den)

    def test_all_zero_residuals_give_zero(self):
        assert estimate_ar1(np.zeros(5)) == 0.0

    def test_too_short(self):
        with pytest.raises(DomainError):
            estimate_ar1(np.array([1.0]))

    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60))
    def test_bounded_by_one(self, values):
        phi = estimate_ar1(np.array(values))
        assert abs(phi) <= 1.0 + 1e-12

    def test_persistent_series_has_positive_phi(self, rng):
        e = np.zeros(5000)
        z = rng.normal(0, 1, 5000)
        for t in range(1, 5000):
            e[t] = 0.6 * e[t - 1] + z[t]
        assert estimate_ar1(e) == pytest.approx(0.6, abs=0.05)


class TestInnovationVariance:
    def test_hand_computed(self):
        d = np.array([2.0, 1.0, 0.0])
        phi = 0.5
        expected = (4.0 + (1 - 0.5 * 2) ** 2 + (0 - 0.5 * 1) ** 2) / 3
        assert innovation_variance(d, phi) == pytest.approx(expected)

    def test_phi_zero_is_mean_square(self, rng):
        d = rng.normal(0, 2, 50)
        assert innovation_variance(d, 0.0) == pytest.approx(float(np.mean(d**2)))

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            innovation_variance(np.array([]), 0.0)


class TestNeg2Loglik:
    def test_formula(self):
        assert gaussian_neg2loglik(1.0, 10) == pytest.approx(10 * (1 + LOG_2PI))
        assert gaussian_neg2loglik(math.e, 7) == pytest.approx(7 * (2 + LOG_2PI))

    def test_degenerate(self):
        with pytest.raises(DegenerateFitError):
            gaussian_neg2loglik(0.0, 10)
        with pytest.raises(DegenerateFitError):
            gaussian_neg2loglik(-1.0, 10)


class TestVarianceShift:
    def test_worked_example(self):
        d = np.array([1.0, -1.0, 1.0, -1.0, 3.0, -3.0, 3.0, -3.0])
        variances, n2ll = fit_variance_shift(d, ChangepointConfiguration((4,)))
        assert variances == pytest.approx((1.0, 9.0))
        expected = 4 * math.log(1.0) + 4 * math.log(9.0) + 8 * (1 + LOG_2PI)
        assert n2ll == pytest.approx(expected)

    def test_single_regime_is_mean_square(self, rng):
        d = rng.normal(0, 1.5, 40)
        variances, _ = fit_variance_shift(d, ChangepointConfiguration(()))
        assert variances[0] == pytest.approx(float(np.mean(d**2)))

    def test_min_segment_length_two(self):
        with pytest.raises(DomainError):
            fit_variance_shift(np.ones(10), ChangepointConfiguration((1,)))

    def test_zero_variance_regime(self):
        d = np.array([0.0, 0.0, 1.0, -1.0])
        with pytest.raises(DegenerateFitError):
            fit_variance_shift(d, ChangepointConfiguration((2,)))


class TestInvariances:
    @settings(max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.floats(-50, 50))
    def test_location_shift(self, seed, c):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, 18)
        cfg = ChangepointConfiguration((6, 12))
        a = fit_mean_shift(_ts(x), cfg)
        b = fit_mean_shift(_ts(x + c), cfg)
        assert np.allclose(np.array(b) - np.array(a), c, atol=1e-9)
        # residual chain unchanged
        da = _ts(x).values - fitted_mean(cfg, a, None, 18)
        db = _ts(x + c).values - fitted_mean(cfg, b, None, 18)
        assert np.allclose(da, db, atol=1e-9)
        assert estimate_ar1(da) == pytest.approx(estimate_ar1(db), abs=1e-9)

    def test_scale_shifts_neg2loglik_uniformly(self, rng):
        x = rng.normal(5, 1, 20)
        a = 3.0
        cfg = ChangepointConfiguration((9,))
        d1 = _ts(x).values - fitted_mean(cfg, fit_mean_shift(_ts(x), cfg), None, 20)
        d2 = _ts(a * x).values - fitted_mean(
            cfg, fit_mean_shift(_ts(a * x), cfg), None, 20
        )
        phi1, phi2 = estimate_ar1(d1), estimate_ar1(d2)
        assert phi1 == pytest.approx(phi2, abs=1e-12)
        s1 = innovation_variance(d1, phi1)
        s2 = innovation_variance(d2, phi2)
        assert s2 == pytest.approx(a**2 * s1, rel=1e-12)
        n2_1 = gaussian_neg2loglik(s1, 20)
        n2_2 = gaussian_neg2loglik(s2, 20)
        assert n2_2 - n2_1 == pytest.approx(2 * 20 * math.log(a), abs=1e-9)

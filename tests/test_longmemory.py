import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cetseg import DomainError, FitResult, TimeSeries
from cetseg.longmemory import _css, _weights, fit_arfima, frac_diff
from cetseg.simulate import SimSpec, simulate_series


def _direct_binomial_weights(d: Fraction, nlags: int) -> list[float]:
    """Independent oracle: (-1)^j C(d, j) by direct factorial evaluation,
    in exact rational arithmetic."""
    out = [Fraction(1)]
    for j in range(1, nlags + 1):
        term = Fraction(1)
        for i in range(j):
            term *= d - i
        out.append((-1) ** j * term / math.factorial(j))
    return [float(v) for v in out]


def _lm_data(seed: int, n: int, d: float) -> TimeSeries:
    """Fractionally integrated noise via the inverse binomial filter."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, n)
    psi = np.empty(n)
    psi[0] = 1.0
    for j in range(1, n):
        psi[j] = psi[j - 1] * (j - 1 + d) / j
    return TimeSeries(1900, np.convolve(z, psi)[:n])


class TestFracDiff:
    def test_d_zero_is_identity(self, rng):
        x = rng.normal(0.0, 1.0, 25)
        np.testing.assert_array_equal(frac_diff(x, 0.0, 25), x)

    def test_d_one_is_first_difference(self, rng):
        x = rng.normal(0.0, 1.0, 25)
        out = frac_diff(x, 1.0, 25)
        assert out[0] == pytest.approx(x[0], abs=1e-15)
        np.testing.assert_allclose(out[1:], np.diff(x), atol=1e-12)

    def test_impulse_response_matches_direct_binomial(self):
        impulse = np.zeros(20)
        impulse[0] = 1.0
        out = frac_diff(impulse, 0.5, 19)
        oracle = _direct_binomial_weights(Fraction(1, 2), 19)
        np.testing.assert_allclose(out, oracle, atol=1e-10)

    def test_truncation_limits_memory(self):
        impulse = np.zeros(10)
        impulse[0] = 1.0
        out = frac_diff(impulse, 0.4, 3)
        assert np.all(out[4:] == 0.0)
        assert out[3] != 0.0

    @given(
        d=st.floats(0.0, 1.0),
        a=st.floats(-3.0, 3.0),
        b=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_linear_in_input(self, d, a, b, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0.0, 1.0, 15)
        y = rng.normal(0.0, 1.0, 15)
        lhs = frac_diff(a * x + b * y, d, 15)
        rhs = a * frac_diff(x, d, 15) + b * frac_diff(y, d, 15)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_scalar_weights_are_the_array_weights_bit_for_bit(self):
        # frac_diff takes a float d; the grid pass takes an array of them
        series = simulate_series(SimSpec(n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
                                         betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54,
                                         seed=1))
        probes = [d for p in (0, 1) for d, _ in fit_arfima(series, p).probes]
        ds = [0.0, 1.0, 1e-5, 0.5, *probes]
        columns = _weights(np.array(ds), series.n - 1)
        for d, column in zip(ds, columns.T):
            assert np.array_equal(_weights(d, series.n - 1), column)
        assert np.array_equal(_weights(0.3, 0), [1.0])

    def test_preconditions(self):
        x = np.ones(10)
        with pytest.raises(DomainError):
            frac_diff(x, -0.1, 5)
        with pytest.raises(DomainError):
            frac_diff(x, 1.1, 5)
        with pytest.raises(DomainError):
            frac_diff(x, 0.3, 0)
        with pytest.raises(DomainError):
            frac_diff(np.ones((2, 5)), 0.3, 3)


class TestFitArfima:
    def test_returned_point_minimizes_audit_trail(self):
        fit = fit_arfima(_lm_data(100, 200, 0.3), p=0)
        css_values = [v for _, v in fit.probes]
        assert fit.sigma2_hat * 200 == pytest.approx(min(css_values), abs=1e-12)
        assert (fit.d, fit.sigma2_hat * 200) == min(
            ((d, v) for d, v in fit.probes), key=lambda pv: (pv[1], pv[0])
        )

    def test_returned_css_reproducible_from_d(self):
        series = _lm_data(101, 150, 0.25)
        for p in (0, 1):
            fit = fit_arfima(series, p=p)
            w = frac_diff(series.values - fit.mu, fit.d, 150)
            css, phi = _css(w, p)
            assert fit.sigma2_hat == pytest.approx(css / 150, rel=1e-12)
            if p == 1:
                assert fit.phi_hat == pytest.approx(phi, abs=1e-15)
            else:
                assert fit.phi_hat is None

    def test_grid_probes_equal_the_one_at_a_time_filter(self):
        # the coarse grid filters with weights computed for all 41 points at
        # once; each probe must be bit for bit the one frac_diff gives
        series = _lm_data(102, 120, 0.2)
        x = series.values - series.values.mean()
        grid = np.linspace(1e-6, 0.5 - 1e-6, 41)
        for p in (0, 1):
            probes = list(fit_arfima(series, p=p).probes[:41])
            assert probes == [(float(d), _css(frac_diff(x, d, 120), p)[0]) for d in grid]

    def test_parameter_ranges(self):
        for p in (0, 1):
            fit = fit_arfima(_lm_data(102, 120, 0.2), p=p)
            assert 0.0 < fit.d < 0.5
            if p == 1:
                assert abs(fit.phi_hat) <= 0.99

    def test_recovers_generating_memory(self):
        fit = fit_arfima(_lm_data(100, 400, 0.3), p=0)
        assert fit.d == pytest.approx(0.3, abs=0.08)
        assert not fit.hit_boundary

    def test_white_noise_pins_lower_boundary(self):
        rng = np.random.default_rng(1)
        series = TimeSeries(1900, rng.normal(0.0, 1.0, 100))
        fit = fit_arfima(series, p=0)
        assert fit.d < 2e-3
        assert fit.hit_boundary

    def test_score_identities(self):
        series = _lm_data(103, 100, 0.2)
        for p in (0, 1):
            fit = fit_arfima(series, p=p)
            assert isinstance(fit, FitResult)
            assert fit.model.label() == ("long-memory+ar1/bic" if p else "long-memory+wn/bic")
            assert fit.config.m == 0
            # charge: mean, memory parameter, innovation variance, AR coefficient
            k = 3 + p
            assert fit.penalty_value == k * math.log(100)
            expected_n2ll = 100 * (math.log(fit.sigma2_hat) + 1.0 + math.log(2 * math.pi))
            assert fit.neg2loglik == pytest.approx(expected_n2ll, rel=1e-12)
            assert fit.bic_score == pytest.approx(
                fit.neg2loglik + k * math.log(100), abs=1e-10
            )

    def test_mu_is_sample_mean(self):
        series = _lm_data(104, 90, 0.1)
        fit = fit_arfima(series, p=0)
        assert fit.mu == pytest.approx(float(series.values.mean()), abs=1e-15)

    def test_preconditions(self):
        series = _lm_data(105, 60, 0.2)
        with pytest.raises(DomainError):
            fit_arfima(series, p=2)
        with pytest.raises(DomainError):
            fit_arfima(series, p=-1)
        short = TimeSeries(1900, np.arange(29, dtype=float))
        with pytest.raises(DomainError):
            fit_arfima(short, p=0)

    def test_deterministic(self):
        series = _lm_data(106, 80, 0.3)
        a = fit_arfima(series, p=1)
        b = fit_arfima(series, p=1)
        assert a == b

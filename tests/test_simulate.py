import numpy as np
import pytest

from cetseg import DomainError, ModelSpec
from cetseg.search import GAParams, ga_optimize
from cetseg.simulate import BURN_IN, SimSpec, simulate_series


class TestSimSpec:
    def test_defaults_are_white_noise_about_zero(self):
        spec = SimSpec(n=50)
        assert spec.taus == ()
        assert spec.mus == (0.0,)
        assert spec.betas is None
        assert spec.phi == 0.0

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n=0),
            dict(n=10, taus=(10,), mus=(0.0, 1.0)),  # boundary at series end
            dict(n=10, taus=(4,), mus=(1.0,)),  # one level short
            dict(n=10, taus=(4,), mus=(1.0, 2.0), betas=(0.1,)),
            dict(n=10, phi=1.0),
            dict(n=10, phi=-1.2),
            dict(n=10, sigma=-0.5),
            dict(n=10, seed=-1),
        ],
    )
    def test_rejects_inconsistent_specs(self, kw):
        with pytest.raises(DomainError):
            SimSpec(**kw)

    @pytest.mark.parametrize("name, kw", [
        ("sigma", dict(sigma=float("inf"))),
        ("sigma", dict(sigma=float("nan"))),
        ("mus", dict(taus=(4,), mus=(0.0, float("inf")))),
        ("mus", dict(mus=(float("nan"),))),
        ("betas", dict(betas=(float("-inf"),))),
    ])
    def test_rejects_non_finite_parameters(self, name, kw):
        with pytest.raises(DomainError, match=f"^{name} must be finite"):
            SimSpec(n=10, **kw)

    def test_config_round_trip(self):
        spec = SimSpec(n=30, taus=(10, 20), mus=(0.0, 1.0, 2.0))
        assert spec.config.taus == (10, 20)


class TestSimulateSeries:
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("kw", [dict(mus=(1e308,), sigma=1e308),
                                    dict(mus=(1e308,), betas=(1e308,))])
    def test_overflow_raises_without_a_warning(self, kw):
        with pytest.raises(DomainError, match="series values must be finite"):
            simulate_series(SimSpec(n=5, **kw))

    def test_zero_noise_reproduces_piecewise_mean(self):
        spec = SimSpec(
            n=12,
            taus=(5,),
            mus=(1.0, 2.0),
            betas=(0.1, -0.2),
            sigma=0.0,
            first_year=1850,
        )
        series = simulate_series(spec)
        expected = [
            (1.0 + 0.1 * t) if t <= 5 else (2.0 - 0.2 * t) for t in range(1, 13)
        ]
        np.testing.assert_allclose(series.values, expected, atol=1e-12)
        assert series.first_year == 1850
        assert series.n == 12

    def test_zero_noise_mean_shift_only(self):
        spec = SimSpec(n=8, taus=(3,), mus=(-1.0, 4.0), sigma=0.0)
        np.testing.assert_array_equal(
            simulate_series(spec).values, [-1.0] * 3 + [4.0] * 5
        )

    def test_same_seed_identical(self):
        spec = SimSpec(n=100, taus=(40,), mus=(0.0, 1.0), phi=0.5, sigma=0.8, seed=7)
        a = simulate_series(spec)
        b = simulate_series(spec)
        np.testing.assert_array_equal(a.values, b.values)

    def test_different_seeds_differ(self):
        base = dict(n=50, mus=(0.0,), sigma=1.0)
        a = simulate_series(SimSpec(seed=1, **base))
        b = simulate_series(SimSpec(seed=2, **base))
        assert not np.array_equal(a.values, b.values)

    def test_noise_lag1_autocorrelation(self):
        # pure noise: no signal, so the series is the AR(1) process itself
        for phi in (0.0, 0.6, -0.4):
            spec = SimSpec(n=100_000, phi=phi, sigma=1.2, seed=11)
            x = simulate_series(spec).values
            r1 = float(np.corrcoef(x[:-1], x[1:])[0, 1])
            assert r1 == pytest.approx(phi, abs=0.02)

    def test_noise_variance_matches_stationary_value(self):
        for phi, sigma in ((0.0, 1.0), (0.6, 1.2), (0.8, 0.5)):
            spec = SimSpec(n=100_000, phi=phi, sigma=sigma, seed=13)
            x = simulate_series(spec).values
            target = sigma * sigma / (1.0 - phi * phi)
            assert float(np.var(x)) == pytest.approx(target, rel=0.03)

    def test_burn_in_constant(self):
        assert BURN_IN == 100


class TestDetectionPower:
    def test_five_sigma_shift_is_found(self):
        # 100 seeded datasets, shift of 5 sigma at mid-series; the search
        # must place a boundary within +/-2 of the true one in >= 95
        params = GAParams(
            population_size=50, max_generations=60, stagnation_limit=20, seed=0
        )
        model = ModelSpec("mean-shift", "ar1", "bic")
        hits = 0
        for seed in range(100):
            spec = SimSpec(n=200, taus=(100,), mus=(0.0, 5.0), sigma=1.0, seed=seed)
            series = simulate_series(spec)
            taus = ga_optimize(series, model, params).best.config.taus
            hits += any(abs(t - 100) <= 2 for t in taus)
        assert hits >= 95

import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import lean_ga, patient_ga

from cetseg import (
    ChangepointConfiguration,
    DegenerateFitError,
    DomainError,
    InfeasibleModelError,
    ModelSpec,
    TimeSeries,
    estimation,
)
from cetseg.penalties import PenaltyContext, penalty_value
from cetseg.search import (
    EXHAUSTIVE_MAX_N,
    GAParams,
    MIN_SEGMENT_LENGTH,
    _bit_matrix,
    _enumerate_configs,
    _model_fitness,
    _repair,
    evaluate,
    exhaustive_optimize,
    ga_minimize,
    ga_optimize,
    min_segment_length,
)

SEARCH_FAMILIES = (
    ("mean-shift", "ar1"),
    ("trend-shift", "ar1"),
    ("trend-shift", "wn"),
    ("fixed-slope", "ar1"),
    ("variance-shift", "wn"),
)


def ar1_series(seed: int, n: int, phi: float = 0.5) -> TimeSeries:
    """Stationary AR(1) data with a burn-in, for oracle-scale searches."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, n + 50)
    x = np.empty(n + 50)
    x[0] = z[0]
    for t in range(1, n + 50):
        x[t] = phi * x[t - 1] + z[t]
    return TimeSeries(1900, x[50:])


def _segmentations(n, min_len):
    """Second, independent enumerator: boundary tuples via segment-length
    compositions instead of boundary recursion."""

    def parts(remaining):
        if remaining == 0:
            yield []
            return
        for first in range(min_len, remaining + 1):
            if remaining - first == 0 or remaining - first >= min_len:
                for rest in parts(remaining - first):
                    yield [first] + rest

    for lengths in parts(n):
        yield tuple(itertools.accumulate(lengths))[:-1]


def brute_force_best(series, model):
    """Argmin over _segmentations with the package's tie-break, scored by
    direct evaluate calls."""
    min_len = MIN_SEGMENT_LENGTH[model.mean_structure]
    best = None
    for taus in _segmentations(series.n, min_len):
        try:
            fit = evaluate(series, model, ChangepointConfiguration(taus))
        except DegenerateFitError:
            continue
        key = (fit.score, len(taus), taus)
        if best is None or key < best[0]:
            best = (key, fit)
    return best[1]


class TestEvaluate:
    def test_composes_estimation_and_penalty_modules(self):
        series = ar1_series(3, 10)
        cfg = ChangepointConfiguration((5,))
        model = ModelSpec("trend-shift", "ar1", "mdl")
        fit = evaluate(series, model, cfg)

        means, slopes = estimation.fit_trend_shift(series, cfg)
        d = series.values - estimation.fitted_mean(cfg, means, slopes, 10)
        phi = estimation.estimate_ar1(d)
        s2 = estimation.innovation_variance(d, phi)
        expected = estimation.gaussian_neg2loglik(s2, 10) + penalty_value(
            PenaltyContext(model, 10, cfg)
        )
        assert fit.score == pytest.approx(expected, abs=1e-12)
        assert fit.phi_hat == pytest.approx(phi, abs=1e-15)

    def test_white_noise_skips_ar1_step(self):
        series = ar1_series(4, 12)
        fit = evaluate(
            series, ModelSpec("trend-shift", "wn"), ChangepointConfiguration(())
        )
        assert fit.phi_hat is None
        d = series.values - np.mean(series.values)  # not the fitted mean; sanity only
        assert fit.sigma2_hat <= np.mean(d * d) + 1e-12

    def test_constant_series_is_degenerate(self):
        # zero residuals leave zero innovation variance
        series = TimeSeries(1900, np.full(8, 3.2))
        with pytest.raises(DegenerateFitError):
            evaluate(
                series, ModelSpec("mean-shift", "ar1"), ChangepointConfiguration(())
            )

    def test_invalid_config_is_never_repaired(self):
        series = ar1_series(5, 10)
        with pytest.raises(DomainError):
            evaluate(
                series, ModelSpec("trend-shift", "wn"), ChangepointConfiguration((2,))
            )

    def test_families_with_their_own_scoring_are_rejected(self):
        series = ar1_series(6, 10)
        with pytest.raises(DomainError):
            evaluate(
                series, ModelSpec("joinpin", "wn"), ChangepointConfiguration((5,))
            )
        with pytest.raises(DomainError):
            min_segment_length(ModelSpec("long-memory", "wn"))


class TestEnumeration:
    @pytest.mark.parametrize("n", [5, 8, 11])
    @pytest.mark.parametrize("min_len", [1, 2, 3])
    def test_matches_itertools_filter(self, n, min_len):
        for max_m in (0, 1, 2, n - 1):
            expected = set()
            for m in range(max_m + 1):
                for taus in itertools.combinations(range(1, n), m):
                    bounds = (0,) + taus + (n,)
                    if all(b - a >= min_len for a, b in zip(bounds, bounds[1:])):
                        expected.add(taus)
            got = list(_enumerate_configs(n, min_len, max_m))
            assert len(got) == len(set(got))  # no duplicates
            assert set(got) == expected

    def test_full_space_size(self):
        assert sum(1 for _ in _enumerate_configs(12, 1, 11)) == 2**11

    def test_matches_composition_enumerator(self):
        for n in (6, 9, 13):
            for min_len in (1, 2, 3):
                assert set(_enumerate_configs(n, min_len, n - 1)) == set(
                    _segmentations(n, min_len)
                )


class TestRepair:
    @given(
        bits=st.lists(st.booleans(), min_size=1, max_size=30),
        min_len=st.integers(1, 3),
        max_m=st.integers(0, 31),
    )
    @settings(max_examples=150, deadline=None)
    def test_always_yields_valid_configuration(self, bits, min_len, max_m):
        n = len(bits) + 1
        assume(n >= min_len)
        arr = np.array(bits, dtype=bool)
        [taus] = _repair(arr[None], n, min_len, max_m)

        assert len(taus) <= max_m
        assert set(taus) <= {int(i) + 1 for i in np.flatnonzero(arr)}
        cfg = ChangepointConfiguration(taus)
        cfg.validate_for(n, min_len)  # must not raise
        # idempotence: a repaired chromosome survives repair unchanged
        assert _repair(_bit_matrix([taus], n - 1), n, min_len, max_m) == [taus]

    def test_earlier_boundaries_win(self):
        bits = _bit_matrix([(2, 3, 9)], 9)
        assert _repair(bits, 10, 3, 9) == [(3,)]

    def test_greedy_on_saturated_chromosome(self):
        bits = np.ones((1, 9), dtype=bool)
        assert _repair(bits, 10, 2, 9) == [(2, 4, 6, 8)]
        assert _repair(bits, 10, 2, 2) == [(2, 4)]
        assert _repair(bits, 10, 2, 0) == [()]


class TestExhaustive:
    def test_shift_beats_flat(self):
        series = TimeSeries(1900, np.array([0.0, 0.0, 1.0, 10.0, 10.0, 11.0]))
        model = ModelSpec("mean-shift", "ar1")
        split = evaluate(series, model, ChangepointConfiguration((3,)))
        flat = evaluate(series, model, ChangepointConfiguration(()))
        assert split.score < flat.score
        report = exhaustive_optimize(series, model)
        assert report.best.config.m > 0
        assert report.best.score <= split.score

    def test_max_m_zero_returns_flat_fit(self):
        series = ar1_series(7, 12)
        model = ModelSpec("trend-shift", "wn", "mdl")
        report = exhaustive_optimize(series, model, max_m=0)
        flat = evaluate(series, model, ChangepointConfiguration(()))
        assert report.best.config.m == 0
        assert report.best.score == pytest.approx(flat.score, abs=1e-12)

    def test_report_bookkeeping(self):
        series = ar1_series(8, 8)
        report = exhaustive_optimize(series, ModelSpec("mean-shift", "ar1"))
        assert report.evaluations_count == 2**7
        assert report.generations_run == 0
        assert report.seed is None
        assert report.score_history == (report.best.score,)

    def test_guard_above_max_n(self):
        series = ar1_series(9, EXHAUSTIVE_MAX_N + 1)
        with pytest.raises(DomainError, match="ga_optimize"):
            exhaustive_optimize(series, ModelSpec("mean-shift", "ar1"))

    def test_too_short_for_one_regime(self):
        series = TimeSeries(1900, np.array([1.0, 2.0]))
        with pytest.raises(InfeasibleModelError):
            exhaustive_optimize(series, ModelSpec("trend-shift", "wn"))

    def test_all_degenerate_raises(self):
        series = TimeSeries(1900, np.full(6, 1.5))
        with pytest.raises(DegenerateFitError):
            exhaustive_optimize(series, ModelSpec("mean-shift", "ar1"))

    def test_matches_independent_reimplementation(self):
        # 100 AR(1) datasets of length 12, families and penalties cycled
        rotation = ("mean-shift", "trend-shift", "fixed-slope", "variance-shift")
        for i in range(100):
            mean = rotation[i % 4]
            errors = "wn" if mean == "variance-shift" else "ar1"
            model = ModelSpec(mean, errors, "bic" if i % 2 == 0 else "mdl")
            series = ar1_series(1000 + i, 12)
            report = exhaustive_optimize(series, model)
            oracle = brute_force_best(series, model)
            assert report.best.score == pytest.approx(oracle.score, abs=1e-12)
            assert report.best.config.taus == oracle.config.taus


class TestGAParams:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(population_size=1),
            dict(stagnation_limit=0),
            dict(max_generations=-1),
            dict(crossover_prob=1.5),
            dict(mutation_rate=-0.1),
            dict(elite_fraction=0.6),
            dict(seed=-1),
        ],
    )
    def test_rejects_bad_settings(self, kw):
        with pytest.raises(DomainError):
            GAParams(**kw)


class TestGA:
    def test_deterministic_for_fixed_seed(self):
        series = ar1_series(11, 40)
        model = ModelSpec("trend-shift", "wn")
        params = lean_ga(seed=7, population_size=40, max_generations=40,
                         stagnation_limit=15)
        a = ga_optimize(series, model, params)
        b = ga_optimize(series, model, params)
        assert a.best.config.taus == b.best.config.taus
        assert a.score_history == b.score_history
        assert a.generations_run == b.generations_run
        assert a.evaluations_count == b.evaluations_count
        assert a.seed == b.seed == 7

    def test_history_non_increasing(self):
        series = ar1_series(12, 40)
        report = ga_optimize(series, ModelSpec("mean-shift", "ar1"), lean_ga(seed=3))
        hist = report.score_history
        assert len(hist) == report.generations_run + 1
        assert all(b <= a for a, b in zip(hist, hist[1:]))
        assert hist[-1] == report.best.score

    def test_zero_operators_return_seeded_optimum(self):
        series = ar1_series(13, 14)
        model = ModelSpec("trend-shift", "ar1", "mdl")
        oracle = exhaustive_optimize(series, model).best
        params = GAParams(
            population_size=20,
            max_generations=25,
            stagnation_limit=5,
            crossover_prob=0.0,
            mutation_rate=0.0,
            seed=5,
        )
        report = ga_optimize(series, model, params, initial=(oracle.config,))
        assert report.best.config.taus == oracle.config.taus
        assert report.best.score == pytest.approx(oracle.score, abs=1e-12)

    @staticmethod
    def _scored_by(params, initial=()):
        """Every boundary tuple a GA run asks its fitness to score."""
        fitness = _model_fitness(ar1_series(21, 80), ModelSpec("trend-shift", "wn"))
        scored = set()

        def recording(taus):
            scored.add(taus)
            return fitness(taus)

        return scored, ga_minimize(recording, 80, 3, params, initial=initial)

    def test_crossover_only_recombines_initial_boundaries(self):
        # the parent matrix must map each ranked individual to its own bits
        params = GAParams(population_size=30, max_generations=0, mutation_rate=0.0, seed=8)
        seeds = [(10, 11, 40), (25, 60)]
        start, _ = self._scored_by(params, seeds)
        pool = {tau for taus in start for tau in taus}
        scored, run = self._scored_by(
            GAParams(population_size=30, max_generations=30, mutation_rate=0.0, seed=8), seeds
        )
        assert run.generations_run == 30
        assert len(scored) > len(start)
        assert {tau for taus in scored for tau in taus} <= pool

    def test_no_operators_score_only_the_initial_population(self):
        params = dict(population_size=30, crossover_prob=0.0, mutation_rate=0.0, seed=9)
        start, _ = self._scored_by(GAParams(max_generations=0, **params))
        scored, run = self._scored_by(GAParams(max_generations=20, **params))
        assert run.generations_run > 0
        assert scored == start
        assert run.evaluations_count == len(start)

    def test_max_m_is_honored(self):
        series = ar1_series(14, 14)
        model = ModelSpec("mean-shift", "ar1")
        capped = ga_optimize(series, model, lean_ga(seed=2), max_m=1)
        assert capped.best.config.m <= 1
        oracle = exhaustive_optimize(series, model, max_m=1)
        assert capped.best.score == pytest.approx(oracle.best.score, abs=1e-12)

    def test_max_m_zero_searches_nothing_but_flat(self):
        series = ar1_series(15, 20)
        model = ModelSpec("trend-shift", "wn")
        report = ga_optimize(series, model, lean_ga(seed=1), max_m=0)
        assert report.best.config.m == 0

    def test_series_too_short_to_search(self):
        series = ar1_series(16, 5)
        with pytest.raises(InfeasibleModelError):
            ga_optimize(series, ModelSpec("trend-shift", "wn"), lean_ga())

    def test_constant_series_raises(self):
        series = TimeSeries(1900, np.zeros(20))
        with pytest.raises(DegenerateFitError):
            ga_optimize(series, ModelSpec("mean-shift", "ar1"), lean_ga())

    def test_initial_config_out_of_range_rejected(self):
        series = ar1_series(17, 14)
        bad = ChangepointConfiguration((20,))
        with pytest.raises(DomainError):
            ga_optimize(
                series, ModelSpec("mean-shift", "ar1"), lean_ga(), initial=(bad,)
            )

    def test_matches_exhaustive_on_random_batch(self):
        # 50 length-14 datasets, each paired with one family from the rotation;
        # mean-shift needs the patient settings (dense near-saturated optima)
        for i in range(50):
            mean, errors = SEARCH_FAMILIES[i % len(SEARCH_FAMILIES)]
            model = ModelSpec(mean, errors, "bic" if i % 2 == 0 else "mdl")
            series = ar1_series(2000 + i, 14)
            oracle = exhaustive_optimize(series, model)
            params = patient_ga(seed=i) if mean == "mean-shift" else lean_ga(seed=i)
            report = ga_optimize(series, model, params)
            assert report.best.score == pytest.approx(oracle.best.score, abs=1e-9), (
                f"instance {i}: {model.label()} GA {report.best.config.taus} "
                f"vs oracle {oracle.best.config.taus}"
            )
            report.best.config.validate_for(14, min_segment_length(model))

    def test_default_params_reach_oracle(self):
        # single seeded witness; the batch rate lives in the acceptance suite
        series = ar1_series(18, 12)
        model = ModelSpec("mean-shift", "ar1")
        oracle = exhaustive_optimize(series, model)
        report = ga_optimize(series, model, GAParams(seed=11))
        assert report.best.score == pytest.approx(oracle.best.score, abs=1e-9)


# GA trajectories pinned on the whole-generation random stream, keyed by
# (seed, generation): (family, taus, repr(best score), generations run,
# distinct configurations scored).  A change that moves any of these
# changes the seeded answers the package gives.
GOLDEN_SPEC = dict(n=120, taus=(40, 85), mus=(0.0, 1.0, 0.3), betas=(0.0, 0.01, -0.01),
                   phi=0.3, sigma=0.6, first_year=1900)
GOLDEN = (
    (("mean-shift", "ar1", "bic"), (35, 50, 85), "225.10674779910403", 36, 907),
    (("mean-shift", "ar1", "mdl"), (34, 49, 85), "224.65044788968993", 22, 569),
    (("trend-shift", "ar1", "bic"), (85,), "249.24095808686593", 16, 361),
    (("trend-shift", "ar1", "mdl"), (85,), "241.29949800891515", 20, 441),
    (("trend-shift", "wn", "bic"), (40, 61, 83, 95), "279.236040421453", 26, 684),
    (("trend-shift", "wn", "mdl"), (40, 56, 61, 83, 96), "271.1330753903452", 40, 1009),
    (("fixed-slope", "ar1", "bic"), (40, 85), "251.85890352209043", 20, 506),
    (("fixed-slope", "ar1", "mdl"), (40, 85), "249.2439316876544", 24, 601),
    (("variance-shift", "wn", "bic"), (42, 85), "370.23476403334365", 23, 566),
    (("variance-shift", "wn", "mdl"), (39,), "363.57653139476645", 20, 514),
)


@pytest.mark.parametrize("case", range(len(GOLDEN)), ids=lambda i: "-".join(GOLDEN[i][0]))
def test_golden_ga_trajectory(case):
    from cetseg.simulate import SimSpec, simulate_series

    (mean, errors, penalty), taus, score, generations, evaluations = GOLDEN[case]
    family = SEARCH_FAMILIES.index((mean, errors))
    series = simulate_series(SimSpec(seed=11 + family, **GOLDEN_SPEC))
    params = GAParams(population_size=40, max_generations=40, stagnation_limit=15,
                      seed=3 + family)
    report = ga_optimize(series, ModelSpec(mean, errors, penalty), params)
    assert report.best.config.taus == taus
    assert repr(report.best.score) == score
    assert report.generations_run == generations
    assert report.evaluations_count == evaluations
    assert report.score_history[-1] == report.best.score
    assert all(b <= a for a, b in zip(report.score_history, report.score_history[1:]))

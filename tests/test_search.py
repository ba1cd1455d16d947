import hashlib
import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

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
from cetseg.core import Regimes
from cetseg.fastscore import score_function
from cetseg.penalties import penalty_value
from cetseg import search
from cetseg.search import (
    EXHAUSTIVE_MAX_N,
    GAParams,
    _fallback,
    _feasible_rows,
    _keys,
    _reference,
    _repair,
    _repair_table,
    _taus_of,
    evaluate,
    exhaustive_optimize,
    ga_minimize,
    ga_optimize,
    ga_search,
    min_segment_length,
    shared_scope,
)

SEARCH_FAMILIES = (
    ("mean-shift", "ar1"),
    ("trend-shift", "ar1"),
    ("trend-shift", "wn"),
    ("fixed-slope", "ar1"),
    ("variance-shift", "wn"),
)


def _bit_matrix(configs, length):
    """Inclusion bitvectors of ``configs`` over boundaries ``1..length``, one row each."""
    bits = np.zeros((len(configs), length), dtype=bool)
    for row, taus in zip(bits, configs):
        row[np.array(taus, np.intp) - 1] = True
    return bits


def ar1_series(seed: int, n: int, phi: float = 0.5) -> TimeSeries:
    """Stationary AR(1) data with a burn-in, for oracle-scale searches."""
    rng = np.random.default_rng(seed)
    z = rng.normal(0.0, 1.0, n + 50)
    x = np.empty(n + 50)
    x[0] = z[0]
    for t in range(1, n + 50):
        x[t] = phi * x[t - 1] + z[t]
    return TimeSeries(1900, x[50:])


def _model_fitness(series, model):
    """The scores ``ga_optimize`` ranks ``model``'s configurations by."""
    return _fallback(score_function(series, model), _reference(series, model))


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
    min_len = min_segment_length(model)
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
        expected = estimation.gaussian_neg2loglik(s2, 10) + penalty_value(model, 10, cfg)
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


def _feasible_configs(n, min_len, max_m):
    """The boundary tuples of every row ``_feasible_rows`` yields, in order."""
    return [tuple((np.flatnonzero(row) + 1).tolist())
            for rows in _feasible_rows(n, min_len, max_m) for row in rows]


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
            got = _feasible_configs(n, min_len, max_m)
            assert len(got) == len(set(got))  # no duplicates
            assert set(got) == expected

    def test_full_space_size(self):
        assert len(_feasible_configs(12, 1, 11)) == 2**11

    def test_matches_composition_enumerator(self):
        for n in (6, 9, 13):
            for min_len in (1, 2, 3):
                assert set(_feasible_configs(n, min_len, n - 1)) == set(
                    _segmentations(n, min_len)
                )

    @pytest.mark.parametrize("bound", [1, 5, 64, search._ROWS])
    @pytest.mark.parametrize("n, min_len, max_m", [(12, 1, 11), (16, 2, 15), (20, 3, 19),
                                                   (14, 1, 3), (9, 5, 8)])
    def test_rows_are_distinct_within_the_row_bound(self, monkeypatch, bound, n, min_len,
                                                    max_m):
        monkeypatch.setattr(search, "_ROWS", bound)
        matrices = list(_feasible_rows(n, min_len, max_m))
        assert all(rows.dtype == bool and rows.shape[1] == n - 1 for rows in matrices)
        assert all(1 <= len(rows) <= bound for rows in matrices)
        rows = np.concatenate(matrices)
        assert len(np.unique(rows, axis=0)) == len(rows)
        configs = _feasible_configs(n, min_len, max_m)
        assert all(len(taus) <= max_m for taus in configs)
        assert set(configs) == {taus for taus in _segmentations(n, min_len)
                                if len(taus) <= max_m}


def _greedy_repair(row, n, min_len, max_m):
    """Reference repair of one bit row: scan its boundaries left to right,
    keep each that closes a regime of at least ``min_len`` while fewer
    than ``max_m`` are kept, then drop trailing ones that leave a short
    final regime."""
    kept = []
    prev = 0
    for tau in (np.flatnonzero(row) + 1).tolist():
        if len(kept) == max_m:
            break
        if tau - prev >= min_len:
            kept.append(tau)
            prev = tau
    while kept and n - kept[-1] < min_len:
        kept.pop()
    return tuple(kept)


def _repaired(bits, n, min_len, max_m):
    """The boundary tuples of ``bits`` after an in-place ``_repair``."""
    assert _repair(bits, n, min_len, max_m) is None
    return [tuple((np.flatnonzero(row) + 1).tolist()) for row in bits]


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
        [taus] = _repaired(arr[None].copy(), n, min_len, max_m)

        assert len(taus) <= max_m
        assert set(taus) <= {int(i) + 1 for i in np.flatnonzero(arr)}
        cfg = ChangepointConfiguration(taus)
        cfg.validate_for(n, min_len)  # must not raise
        # idempotence: a repaired chromosome survives repair unchanged
        assert _repaired(_bit_matrix([taus], n - 1), n, min_len, max_m) == [taus]

    @given(
        rows=st.integers(1, 12).flatmap(lambda length: st.lists(
            st.lists(st.booleans(), min_size=length, max_size=length), min_size=1, max_size=8)),
        min_len=st.integers(1, 3),
        cap=st.sampled_from(("zero", "one", "n-1")),
    )
    @settings(max_examples=300, deadline=None)
    def test_in_place_repair_matches_the_greedy_reference(self, rows, min_len, cap):
        drawn = np.array(rows, dtype=bool)
        n = drawn.shape[1] + 1
        max_m = {"zero": 0, "one": 1, "n-1": n - 1}[cap]
        # a slice of a larger matrix, as the GA repairs its children in place
        buffer = np.ones((len(drawn) + 1, n - 1), dtype=bool)
        buffer[1:] = drawn
        bits = buffer[1:]
        expected = [_greedy_repair(row, n, min_len, max_m) for row in drawn]
        assert _repaired(bits, n, min_len, max_m) == expected
        assert buffer[0].all()
        for row, before, taus in zip(bits, drawn, expected):
            if tuple((np.flatnonzero(before) + 1).tolist()) == taus:
                # a feasible row is left bit for bit as drawn
                assert np.array_equal(row, before)

    def test_earlier_boundaries_win(self):
        bits = _bit_matrix([(2, 3, 9)], 9)
        assert _repaired(bits, 10, 3, 9) == [(3,)]

    def test_greedy_on_saturated_chromosome(self):
        for max_m, taus in ((9, (2, 4, 6, 8)), (2, (2, 4)), (0, ())):
            assert _repaired(np.ones((1, 9), dtype=bool), 10, 2, max_m) == [taus]

    def test_only_rows_with_a_flagged_bit_change(self):
        # rows: feasible; too close; past n - min_len; over the cap
        bits = _bit_matrix([(3, 7), (3, 4, 8), (3, 9), (2, 4, 6)], 9)
        drawn = bits.copy()
        assert _repaired(bits, 10, 2, 2) == [(3, 7), (3, 8), (3,), (2, 4)]
        assert np.array_equal(bits[0], drawn[0])


def _repair_by_code(n, min_len, max_m):
    """The GA's repair table, or the identity where it keeps none."""
    fix = _repair_table(n, min_len, max_m)
    if fix is None:
        assert min_len == 1 and max_m >= n - 1
        return np.arange(1 << (n - 1))
    assert fix.shape == (1 << (n - 1),)
    return fix


class TestRepairTable:
    @pytest.mark.parametrize("n", range(2, 16))
    def test_is_the_greedy_reference_on_every_code(self, n):
        rows = (np.arange(1 << (n - 1))[:, None] >> np.arange(n - 1) & 1).astype(bool)
        for min_len in (1, 2, 3, 4):
            for max_m in sorted({0, 1, 2, n - 1}):
                fixed = _repair_by_code(n, min_len, max_m)
                expected = [_greedy_repair(row, n, min_len, max_m) for row in rows]
                assert [tuple((np.flatnonzero(code >> np.arange(n - 1) & 1) + 1).tolist())
                        for code in fixed] == expected, (min_len, max_m)

    @pytest.mark.parametrize("n", range(2, 16))
    def test_fixed_points_are_exactly_the_feasible_codes(self, n):
        # Codes off the feasible set rank as the best one, so none may pass.
        bit = 1 << np.arange(n - 1)
        codes = np.arange(1 << (n - 1))
        for min_len in range(1, min(4, n) + 1):
            for max_m in sorted({0, 1, 2, n - 1}):
                fixed = _repair_by_code(n, min_len, max_m)
                feasible = np.concatenate(list(_feasible_rows(n, min_len, max_m))) @ bit
                assert sorted(feasible.tolist()) == codes[fixed == codes].tolist()
                assert np.array_equal(fixed[fixed], fixed)  # repair is idempotent


def _draw_by_reshape(params, n, child_count, gen):
    """Reference for ``_draw``: the same stream, each pair of tournament
    winners taken as the minimum over a ``(C, 2, 3)`` view of the picks."""
    length = n - 1
    rng = np.random.default_rng((params.seed, gen))
    picks = rng.integers(0, params.population_size, (child_count, 6))
    crossed = rng.random(child_count) < params.crossover_prob
    from_second = rng.random((child_count, length)) < 0.5
    flips = rng.random((child_count, length)) < params.mutation_rate / length
    winners = picks.reshape(child_count, 2, 3).min(axis=2)
    return winners[:, 0], winners[:, 1], crossed[:, None] & from_second, flips


@given(seed=st.integers(0, 2**32 - 1), gen=st.integers(1, 20000),
       population=st.integers(2, 300), data=st.data(),
       n=st.one_of(st.integers(2, 40), st.just(362)),
       crossover=st.sampled_from([0.0, 0.8, 1.0]),
       mutation=st.sampled_from([0.0, 1.0, 4.0, "above n - 1"]))
@settings(max_examples=150, deadline=None)
def test_draw_is_the_reshape_reference_bit_for_bit(seed, gen, population, data, n, crossover,
                                                    mutation):
    child_count = data.draw(st.integers(1, population - 1))
    rate = float(n) if mutation == "above n - 1" else mutation  # flips every bit
    params = GAParams(population_size=population, crossover_prob=crossover,
                      mutation_rate=rate, seed=seed)
    got = search._draw(params, n, child_count, gen)
    expected = _draw_by_reshape(params, n, child_count, gen)
    for a, b in zip(got, expected):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    if mutation == "above n - 1":
        assert got[3].all()


class TestMemoKeys:
    @given(n=st.integers(2, 400), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_key_order_is_boundary_order_at_equal_m(self, n, seed, data):
        rng = np.random.default_rng(seed)
        m = data.draw(st.integers(0, n - 1))
        a = tuple(sorted(rng.choice(np.arange(1, n), m, replace=False).tolist()))
        if data.draw(st.booleans()) and 0 < m < n - 1:
            # the same boundaries but one, moved to a free position
            free = sorted(set(range(1, n)) - set(a))
            moved = set(a) - {a[data.draw(st.integers(0, m - 1))]}
            b = tuple(sorted(moved | {free[data.draw(st.integers(0, len(free) - 1))]}))
        else:
            b = tuple(sorted(rng.choice(np.arange(1, n), m, replace=False).tolist()))
        key_a, key_b = _keys(_bit_matrix([a, b], n - 1))
        assert (key_a < key_b) == (a < b)
        assert (key_a == key_b) == (a == b)
        assert _taus_of(key_a, n - 1) == a
        assert _taus_of(key_b, n - 1) == b


@given(length=st.integers(0, 24), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_least_orders_rows_by_score_then_count_then_boundaries(length, seed):
    rng = np.random.default_rng(seed)
    rows = np.unique(rng.random((40, length)) < rng.random(), axis=0)
    rng.shuffle(rows)
    scores = rng.choice([-1.0, 0.0, 2.0, math.inf], len(rows))
    m = rows.sum(axis=1)
    taus = [tuple((np.flatnonzero(row) + 1).tolist()) for row in rows]
    expected = sorted(range(len(rows)), key=lambda i: (scores[i], m[i], taus[i]))
    assert search._least(scores, m, rows).tolist() == expected


def test_fallback_fits_only_undecided_rows_each_with_its_own_tuple():
    configs = [(), (3,), (2, 5), (4,), (1, 3, 6)]
    fitted = []

    def fast(regimes):
        assert regimes.m.tolist() == [0, 1, 2, 1, 3]
        return np.array([1.0, np.nan, 2.0, np.nan, np.nan])

    def reference(taus):
        fitted.append(taus)
        if taus == (4,):
            raise DegenerateFitError("exact fit")
        return SimpleNamespace(score=10.0 + len(taus))

    scores = _fallback(fast, reference)(Regimes(configs, 8))
    assert scores == [1.0, 11.0, 2.0, math.inf, 13.0]
    assert fitted == [(3,), (4,), (1, 3, 6)]
    assert all(type(tau) is int for taus in fitted for tau in taus)


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

    def test_negative_max_m_is_rejected(self):
        with pytest.raises(DomainError, match="max_m must be >= 0"):
            exhaustive_optimize(ar1_series(7, 12), ModelSpec("mean-shift", "ar1"), max_m=-1)

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
        # with no operators, every generation copies the initial population
        series = ar1_series(13, 14)
        model = ModelSpec("trend-shift", "ar1", "mdl")
        params = GAParams(
            population_size=20,
            max_generations=25,
            stagnation_limit=5,
            crossover_prob=0.0,
            mutation_rate=0.0,
            seed=5,
        )
        start = ga_optimize(series, model, replace(params, max_generations=0))
        report = ga_optimize(series, model, params)
        assert report.generations_run == params.stagnation_limit
        assert report.best == start.best
        assert set(report.score_history) == {start.best.score}

    @staticmethod
    def _scored_by(params):
        """Every boundary tuple a GA run asks its fitness to score."""
        fitness = _model_fitness(ar1_series(21, 80), ModelSpec("trend-shift", "wn"))
        scored = set()

        def recording(regimes):
            scored.update(map(regimes.taus, range(regimes.m.size)))
            return fitness(regimes)

        return scored, ga_minimize(recording, 80, 3, params)

    @pytest.mark.parametrize("rule", ["constant", "one-boundary", "fewer-boundaries-first"])
    def test_ties_break_by_m_then_boundaries(self, rule):
        # The winner is the least (score, m, taus) over every tuple scored.
        n = 30
        score_of = {
            "constant": lambda taus: 0.0,
            "one-boundary": lambda taus: float(len(taus) != 1),
            # two-boundary tuples tie with late one-boundary tuples, and most
            # of them sort first on their boundaries alone
            "fewer-boundaries-first": lambda taus: float(
                not (len(taus) == 2 or (len(taus) == 1 and taus[0] >= n // 2))
            ),
        }[rule]
        scored = {}

        def recording(regimes):
            configs = [regimes.taus(i) for i in range(regimes.m.size)]
            scores = [score_of(taus) for taus in configs]
            scored.update(zip(configs, scores))
            return scores

        params = GAParams(population_size=40, max_generations=30, seed=3)
        taus = ga_minimize(recording, n, 2, params).taus
        assert taus == min(scored, key=lambda t: (scored[t], len(t), t))
        ties = [t for t, score in scored.items() if score == 0.0]
        if rule == "constant":
            assert taus == ()
        else:
            assert taus == min(t for t in ties if len(t) == 1)
        if rule == "fewer-boundaries-first":
            assert min(ties) < taus

    def test_crossover_only_recombines_initial_boundaries(self):
        # the parent matrix must map each ranked individual to its own bits
        params = GAParams(population_size=30, max_generations=0, mutation_rate=0.0, seed=8)
        start, _ = self._scored_by(params)
        pool = {tau for taus in start for tau in taus}
        scored, run = self._scored_by(replace(params, max_generations=30))
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

    def test_undecided_scores_fall_back_to_the_reference(self):
        # every fast score is NaN, so the reference scores every configuration
        series = ar1_series(19, 30)
        model = ModelSpec("trend-shift", "wn")
        fitted = []

        def reference(taus):
            fitted.append(taus)
            return evaluate(series, model, ChangepointConfiguration(taus))

        undecided = lambda regimes: np.full(regimes.m.size, np.nan)
        report = ga_search(undecided, reference, series.n, 3, lean_ga(seed=2))
        # one reference fit per distinct configuration, plus the winner's refit
        assert len(fitted) == report.evaluations_count + 1
        assert report.best == evaluate(series, model, report.best.config)
        assert report.score_history[-1] == report.best.score

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


class TestSharedDraws:
    """Searches inside one shared_scope() replay each other's draws."""

    N = 60
    PARAMS = GAParams(population_size=30, max_generations=12, stagnation_limit=1000, seed=4)

    @staticmethod
    def _count_generators(monkeypatch):
        """Record the ``(seed, generation)`` of each generator a GA builds.

        Generation 0, the fresh population, is drawn by every search."""
        built = []
        make = np.random.default_rng

        def counting(seed=None):
            if isinstance(seed, tuple):
                built.append(seed)
            return make(seed)

        monkeypatch.setattr(np.random, "default_rng", counting)
        return built

    def _fitness(self, mean, errors, seed=31):
        return _model_fitness(ar1_series(seed, self.N), ModelSpec(mean, errors))

    def _calls(self):
        """Searches with one draw key but other segment rules, caps and
        stopping points; the fourth runs longer than the first three."""
        p = self.PARAMS
        return [
            lambda: ga_minimize(self._fitness("mean-shift", "ar1"), self.N, 1, p),
            lambda: ga_minimize(self._fitness("fixed-slope", "ar1"), self.N, 2, p, max_m=2),
            lambda: ga_minimize(self._fitness("trend-shift", "wn"), self.N, 3,
                                replace(p, stagnation_limit=3)),
            lambda: ga_minimize(self._fitness("trend-shift", "wn"), self.N, 3,
                                replace(p, max_generations=30), max_m=3),
            lambda: ga_optimize(ar1_series(32, self.N), ModelSpec("variance-shift", "wn"),
                                replace(p, max_generations=20)),
        ]

    def test_each_search_matches_its_unscoped_run(self, monkeypatch):
        alone = [call() for call in self._calls()]
        built = self._count_generators(monkeypatch)
        with shared_scope():
            shared = [call() for call in self._calls()]
        assert shared == alone
        assert alone[2].generations_run < 12
        # every generation 1..30 was drawn once, by whichever search reached it first
        assert sorted(gen for _, gen in built if gen) == list(range(1, 31))

    def test_searches_over_codes_match_their_unscoped_runs(self, monkeypatch):
        # At N = 13 individuals are codes; the second search replays kept
        # draws, which come back as bool arrays.
        n = 13
        calls = [
            lambda: ga_minimize(_model_fitness(ar1_series(34, n), ModelSpec("mean-shift", "ar1")),
                                n, 1, self.PARAMS),
            lambda: ga_minimize(_model_fitness(ar1_series(35, n), ModelSpec("fixed-slope", "ar1",
                                                                            "mdl")),
                                n, 2, self.PARAMS, max_m=2),
        ]
        alone = [call() for call in calls]
        built = self._count_generators(monkeypatch)
        with shared_scope():
            shared = [call() for call in calls]
        assert shared == alone
        assert [run.generations_run for run in alone] == [12, 12]
        assert built == [(4, gen) for gen in range(13)] + [(4, 0)]

    @pytest.mark.parametrize("change", [
        {"seed": 5},
        {"population_size": 32},
        {"elite_fraction": 0.2},
        {"n": 61},
        {"mutation_rate": 2.0},
        {"crossover_prob": 0.5},
    ])
    def test_searches_with_another_key_draw_their_own(self, monkeypatch, change):
        change = dict(change)
        n = change.pop("n", self.N)
        params = replace(self.PARAMS, **change)
        fitness = _model_fitness(ar1_series(33, n), ModelSpec("trend-shift", "wn"))
        alone = ga_minimize(fitness, n, 3, params)
        built = self._count_generators(monkeypatch)
        with shared_scope():
            ga_minimize(self._fitness("trend-shift", "wn", 33), self.N, 3, self.PARAMS)
            del built[:]
            assert ga_minimize(fitness, n, 3, params) == alone
        assert len(built) == params.max_generations + 1

    def test_a_replaying_search_builds_no_generator_for_drawn_generations(self, monkeypatch):
        fitness = self._fitness("mean-shift", "ar1")
        built = self._count_generators(monkeypatch)
        with shared_scope():
            ga_minimize(fitness, self.N, 1, self.PARAMS)
            assert len(built) == 13
            ga_minimize(fitness, self.N, 1, replace(self.PARAMS, max_generations=8))
            assert built[13:] == [(4, 0)]
            ga_minimize(fitness, self.N, 1, replace(self.PARAMS, max_generations=15))
            assert built[14:] == [(4, 0), (4, 13), (4, 14), (4, 15)]

    def test_memo_stops_growing_at_its_byte_limit(self, monkeypatch):
        fitness = self._fitness("trend-shift", "wn")
        alone = ga_minimize(fitness, self.N, 3, self.PARAMS)
        # 28 children of 59 candidate bits pack into 8 bytes each
        monkeypatch.setattr(search, "_SHARED_BYTES", 5 * 28 * 8)
        built = self._count_generators(monkeypatch)
        with shared_scope():
            assert ga_minimize(fitness, self.N, 3, self.PARAMS) == alone
            assert [len(kept) for kept in search._SHARED.get().values()] == [5]
            del built[:]
            assert ga_minimize(fitness, self.N, 3, self.PARAMS) == alone
        assert [gen for _, gen in built] == [0, *range(6, 13)]

    def test_memo_is_dropped_on_exit_and_a_new_scope_starts_empty(self, monkeypatch):
        fitness = self._fitness("mean-shift", "ar1")
        built = self._count_generators(monkeypatch)
        assert search._SHARED.get() is None
        with shared_scope():
            ga_minimize(fitness, self.N, 1, self.PARAMS)
            assert [len(kept) for kept in search._SHARED.get().values()] == [12]
        assert search._SHARED.get() is None
        # outside any scope, and in a new scope, every search draws afresh
        ga_minimize(fitness, self.N, 1, self.PARAMS)
        with shared_scope():
            assert search._SHARED.get() == {}
            ga_minimize(fitness, self.N, 1, self.PARAMS)
        assert len(built) == 3 * 13

    def test_memo_is_dropped_when_the_scope_raises(self):
        with pytest.raises(DegenerateFitError):
            with shared_scope():
                ga_minimize(lambda regimes: [np.inf] * regimes.m.size, self.N, 1, self.PARAMS)
        assert search._SHARED.get() is None


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


# The same pins at the paper's length, on the CET-like fixture of the
# benchmark, with default populations: (family, GA params, taus,
# repr(best score), generations run, distinct configurations scored).
GOLDEN_362_SPEC = dict(n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
                       betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=1,
                       first_year=1659)
GOLDEN_362 = (
    (("trend-shift", "wn", "mdl"), GAParams(seed=1, max_generations=100),
     (79, 329), "560.153163161482", 100, 9573),
    (("mean-shift", "ar1", "bic"), GAParams(seed=1, max_generations=40),
     (35, 81, 173, 229, 329, 342), "597.4024669018572", 40, 6072),
)


@pytest.mark.parametrize("case", range(len(GOLDEN_362)),
                         ids=lambda i: "-".join(GOLDEN_362[i][0]))
def test_golden_ga_trajectory_at_the_paper_length(case):
    from cetseg.simulate import SimSpec, simulate_series

    family, params, taus, score, generations, evaluations = GOLDEN_362[case]
    series = simulate_series(SimSpec(**GOLDEN_362_SPEC))
    report = ga_optimize(series, ModelSpec(*family), params)
    assert report.best.config.taus == taus
    assert repr(report.best.score) == score
    assert report.generations_run == generations
    assert report.evaluations_count == evaluations


# Trajectories at the oracle's lengths, where the GA ranks a table of the
# whole feasible space: the oracle-short families on short AR(1) series
# (phi 0.4), searched with the acceptance suite's budgets, as (family,
# N, taus, repr(best score), generations run, distinct configurations
# visited, digest of the score history, configurations enumerated by
# the exhaustive search, whose answer is the GA's on every case here).
# The digest is the first 16 hex digits of the SHA-256 of the history's
# repr, so one changed bit of any entry moves it.
SHORT_GOLDEN = (
    (("mean-shift", "ar1", "bic"), 12, (1, 2, 3, 4, 5, 6, 8, 9, 10, 11),
     "-32.82737898508661", 160, 2042, "dfd142a8cd23acba", 2048),
    (("mean-shift", "ar1", "bic"), 13, (1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12),
     "17.601363682672492", 165, 3963, "cb487db0a0187f0b", 4096),
    (("mean-shift", "ar1", "bic"), 14, (1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 12, 13),
     "24.8251128964424", 294, 7560, "684ac7dfc4831cb0", 8192),
    (("mean-shift", "ar1", "mdl"), 12, (1, 2, 3, 4, 5, 6, 8, 9, 10, 11),
     "-100.63690102500485", 164, 2041, "debbdbe023ffb6dc", 2048),
    (("mean-shift", "ar1", "mdl"), 13, (1, 2, 4, 5, 6, 7, 8, 9, 10, 11, 12),
     "-57.45639387416231", 162, 3893, "ed277c9a3b89411b", 4096),
    (("mean-shift", "ar1", "mdl"), 14, (1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12, 13),
     "5.239571572390744", 180, 6705, "9578bf378ce19586", 8192),
    (("trend-shift", "wn", "bic"), 12, (), "31.482522752475642", 30, 19, "3e508b4f8ee71c48", 19),
    (("trend-shift", "wn", "bic"), 13, (4, 7, 10), "37.50277886329075", 30, 28,
     "b5e89d060d29bbee", 28),
    (("trend-shift", "wn", "bic"), 14, (11,), "22.802318398192153", 30, 40,
     "cf27d7a28715714b", 41),
    (("trend-shift", "wn", "mdl"), 12, (4, 9), "25.83456468629786", 30, 19,
     "7604aae869307f76", 19),
    (("trend-shift", "wn", "mdl"), 13, (4, 7, 10), "17.679975481696687", 30, 28,
     "24d49304def1894b", 28),
    (("trend-shift", "wn", "mdl"), 14, (), "33.3381320315132", 30, 39, "c8d1e534fe3cb355", 41),
    (("fixed-slope", "ar1", "bic"), 12, (3, 6, 8), "38.497866172276076", 31, 84,
     "a74cc2f73b19a221", 89),
    (("fixed-slope", "ar1", "bic"), 13, (2, 8, 11), "35.69068356635312", 30, 123,
     "5401a5ebf066d34f", 144),
    (("fixed-slope", "ar1", "bic"), 14, (5, 7, 11), "20.463185631057264", 31, 143,
     "20262f815e86c707", 233),
    (("fixed-slope", "ar1", "mdl"), 12, (), "23.62075730317174", 30, 74, "b5ef9cf3cc1b4869", 89),
    (("fixed-slope", "ar1", "mdl"), 13, (), "22.837630912304014", 30, 104,
     "af21c79747024ef2", 144),
    (("fixed-slope", "ar1", "mdl"), 14, (), "37.49887836549935", 30, 157,
     "0b74f8dc21c0f978", 233),
    (("variance-shift", "wn", "bic"), 12, (), "33.27342045029692", 30, 78,
     "c67f4a911ba84a4b", 89),
    (("variance-shift", "wn", "bic"), 13, (), "45.49643083543781", 30, 106,
     "5bef068bcd04ae26", 144),
    (("variance-shift", "wn", "bic"), 14, (), "44.27782759544617", 30, 136,
     "d5bca730d4a6c700", 233),
    (("variance-shift", "wn", "mdl"), 12, (3,), "24.675225075758256", 30, 77,
     "cbe3b6d0add9db7a", 89),
    (("variance-shift", "wn", "mdl"), 13, (), "41.826824252855765", 30, 104,
     "fae56b3f7d4b11ab", 144),
    (("variance-shift", "wn", "mdl"), 14, (3,), "40.70188202574158", 30, 136,
     "871364f6c74d6b5a", 233),
)


def _short_case(n, seed, mean):
    """A short oracle series and the acceptance suite's budget for ``mean``."""
    from cetseg.simulate import SimSpec, simulate_series

    series = simulate_series(SimSpec(n=n, phi=0.4, sigma=1.0, seed=seed, first_year=1900))
    if mean == "mean-shift":
        return series, patient_ga(seed=seed)
    return series, lean_ga(seed=seed)


def _pin(report):
    """What a short-series pin records of a search report."""
    digest = hashlib.sha256(repr(report.score_history).encode()).hexdigest()[:16]
    return (report.best.config.taus, repr(report.best.score), report.generations_run,
            report.evaluations_count, digest)


@pytest.mark.parametrize("case", range(len(SHORT_GOLDEN)),
                         ids=lambda i: "-".join(SHORT_GOLDEN[i][0]) + f"-{SHORT_GOLDEN[i][1]}")
def test_golden_ga_trajectory_at_oracle_lengths(case):
    family, n, taus, score, generations, evaluations, digest, space = SHORT_GOLDEN[case]
    f = ("mean-shift", "trend-shift", "fixed-slope", "variance-shift").index(family[0])
    seed = 500 + 10 * f + 3 * ("bic", "mdl").index(family[2]) + n
    series, params = _short_case(n, seed, family[0])
    model = ModelSpec(*family)
    assert _pin(ga_optimize(series, model, params)) == (
        taus, score, generations, evaluations, digest)
    exact = exhaustive_optimize(series, model)
    assert _pin(exact)[:2] == (taus, score)
    assert exact.evaluations_count == space


def test_golden_ga_trajectories_with_a_cap_a_seed_and_knots():
    from cetseg.joinpin import joinpin_search

    series, params = _short_case(14, 601, "fixed-slope")
    capped = ga_optimize(series, ModelSpec("fixed-slope", "ar1", "bic"), params, max_m=2)
    assert _pin(capped) == ((5, 7), "43.957157880203845", 30, 55, "59dd80d790013c49")
    series, params = _short_case(14, 603, "joinpin")
    knots = joinpin_search(series, 1.0, params=params)
    assert _pin(knots) == ((3,), "36.95353578185338", 30, 131, "f92f233263091647")


# The family whose segment rule a memo-equivalence case searches under,
# by min_len.
_BY_MIN_LEN = {1: ("mean-shift", "ar1"), 2: ("fixed-slope", "ar1"), 3: ("trend-shift", "ar1"),
               4: ("variance-shift", "wn")}


def _partly_undecided(series, model, seed):
    """The fitness :func:`ga_search` builds from a fast score that leaves
    about one row in 16 undecided (NaN), and a reference fit that is
    degenerate on a third of the tuples it is asked for."""
    fast = score_function(series, model)

    def undecided(regimes):
        scores = np.asarray(fast(regimes), float)
        ends = np.bincount(regimes.row, regimes.ends, regimes.m.size)
        scores[ends % 16 == seed % 16] = np.nan
        return scores

    def reference(taus):
        if sum(taus) % 3 == 0:
            raise DegenerateFitError("a stand-in exact fit")
        return evaluate(series, model, ChangepointConfiguration(taus))

    return _fallback(undecided, reference)


def _tied(seed):
    """A fitness under which most configurations tie: four finite values
    and +inf, by a hash of the boundary tuple."""
    values = (0.0, 1.0, -2.5, 1.0, math.inf)
    return lambda regimes: [values[hash((seed, *regimes.taus(i))) % 5]
                            for i in range(regimes.m.size)]


@given(n=st.integers(2, 15), min_len=st.integers(1, 4),
       max_m=st.one_of(st.none(), st.integers(0, 3)), seed=st.integers(0, 2**16),
       tied=st.booleans(), population=st.integers(2, 30), generations=st.integers(0, 25),
       stagnation=st.integers(1, 10), mutation=st.sampled_from([0.0, 1.0, 4.0]),
       crossover=st.sampled_from([0.0, 0.8, 1.0]))
@settings(max_examples=60, deadline=None)
def test_table_memo_matches_the_dict_memo(n, min_len, max_m, seed, tied, population,
                                          generations, stagnation, mutation, crossover):
    assume(n >= 2 * min_len)
    if tied:
        fitness = _tied(seed)
    else:
        model = ModelSpec(*_BY_MIN_LEN[min_len], ("bic", "mdl")[seed % 2])
        fitness = _partly_undecided(ar1_series(seed, n), model, seed)
    params = GAParams(population_size=population, max_generations=generations,
                      stagnation_limit=stagnation, mutation_rate=mutation,
                      crossover_prob=crossover, seed=seed)

    def run():
        try:
            return ga_minimize(fitness, n, min_len, params, max_m=max_m)
        except DegenerateFitError:
            return DegenerateFitError

    table = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_TABLE_LENGTH", 0)  # every length takes the dict memo
        by_dict = run()
    assert table == by_dict
    if table is not DegenerateFitError:
        assert repr(table.score_history) == repr(by_dict.score_history)

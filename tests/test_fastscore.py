"""The O(m) batch search scores against the two-pass reference fit, and
against themselves in other batches."""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cetseg import ChangepointConfiguration, DegenerateFitError, ModelSpec, TimeSeries, fastscore, search
from cetseg.core import Regimes
from cetseg.estimation import LOG_2PI
from cetseg.fastscore import _centred_sums, joinpin_rss, regime_tables, score_function
from cetseg.joinpin import _neg2loglik, default_knot_penalty, fit_joinpin, joinpin_search
from cetseg.penalties import penalty_function
from cetseg.search import (
    REFIT_RTOL,
    GAParams,
    RefitMismatchError,
    _repair,
    evaluate,
    min_segment_length,
)
from cetseg.simulate import SimSpec, simulate_series

SEARCH_FAMILIES = (
    ("mean-shift", "ar1"),
    ("trend-shift", "ar1"),
    ("trend-shift", "wn"),
    ("fixed-slope", "ar1"),
    ("variance-shift", "wn"),
)
MODELS = [ModelSpec(mean, errors, penalty)
          for mean, errors in SEARCH_FAMILIES for penalty in ("bic", "mdl")]


def _searched(series, model, configs):
    """The scores a search of ``model`` ranks ``configs`` by."""
    reference = search._reference(series, model)
    return search._fallback(score_function(series, model), reference)(Regimes(configs, series.n))


def _repaired(rows, n, min_len):
    """The feasible configurations ``_repair`` makes of bit rows over ``1..n-1``."""
    bits = np.array(rows, dtype=bool).reshape(len(rows), n - 1)
    _repair(bits, n, min_len, n - 1)
    return [tuple((np.flatnonzero(row) + 1).tolist()) for row in bits]


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFIT_RTOL, abs_tol=REFIT_RTOL)


def _cet_like(seed):
    return simulate_series(SimSpec(
        n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
        betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=seed))


def _random_configs(series, min_len, count, seed):
    """Feasible configurations with sparse to dense boundary draws."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        bits = rng.random(series.n - 1) < rng.choice([0.01, 0.05, 0.3])
        [taus] = _repaired([bits], series.n, min_len)
        yield taus


def _reference(series, model, taus):
    try:
        return evaluate(series, model, ChangepointConfiguration(taus)).score
    except DegenerateFitError:
        return None


@st.composite
def scored_cases(draw):
    """A model, a series and a feasible configuration.

    The series is an offset plus noise at a drawn scale; each regime of
    the configuration is then left as it is, made near-constant, or made
    exactly constant or exactly linear in t (integer levels and slopes).
    """
    model = draw(st.sampled_from(MODELS))
    min_len = min_segment_length(model)
    n = draw(st.integers(2 * min_len, 40))
    bits = np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    [taus] = _repaired([bits], n, min_len)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e4, 1e4)))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e-6)))
    x = offset + scale * rng.standard_normal(n)
    bounds = (0, *taus, n)
    for a, b in zip(bounds, bounds[1:]):
        kind = draw(st.sampled_from(("noise", "near-constant", "constant", "linear")))
        level = float(draw(st.integers(-50, 50)))
        if kind == "near-constant":
            x[a:b] = offset + level + 1e-9 * rng.standard_normal(b - a)
        elif kind == "constant":
            x[a:b] = level
        elif kind == "linear":
            x[a:b] = level + draw(st.integers(-3, 3)) * np.arange(a + 1.0, b + 1.0)
    return model, TimeSeries(1900, x), taus


@given(scored_cases())
@settings(max_examples=600, deadline=None)
def test_fast_score_matches_reference(case):
    model, series, taus = case
    reference = _reference(series, model, taus)
    [fast] = score_function(series, model)(Regimes([taus], series.n))
    [searched] = _searched(series, model, [taus])
    if reference is None:
        # a degenerate fit is never scored fast: it falls back and ranks last
        assert math.isnan(fast)
        assert searched == math.inf
        return
    assert math.isnan(fast) or _close(fast, reference), (fast, reference)
    assert _close(searched, reference), (searched, reference)


@pytest.mark.parametrize("model", MODELS, ids=ModelSpec.label)
def test_well_conditioned_series_never_fall_back(model):
    # the fast path must carry the search, not the fallback
    series = _cet_like(3)
    configs = list(_random_configs(series, min_segment_length(model), 200, 4))
    for taus, score in zip(configs, score_function(series, model)(Regimes(configs, series.n))):
        assert not math.isnan(score), taus
        assert _close(score, _reference(series, model, taus))


@pytest.mark.parametrize("model", MODELS, ids=ModelSpec.label)
def test_constant_series_falls_back_to_degenerate(model):
    # variance shifts read the values as residuals, so only zeros are degenerate
    level = 0.0 if model.mean_structure.value == "variance-shift" else 1e4
    series = TimeSeries(1900, np.full(12, level))
    taus = (4, 8)
    assert math.isnan(score_function(series, model)(Regimes([taus], series.n))[0])
    assert _searched(series, model, [taus]) == [math.inf]


def _largest_table(scorer):
    """The largest array a scorer closes over (the owner of a view)."""
    arrays = []
    for cell in scorer.__closure__:
        value = cell.cell_contents
        for item in value if isinstance(value, list) else [value]:
            if isinstance(item, np.ndarray):
                arrays.append(item if item.base is None else item.base)
    return max(arrays, key=lambda array: array.nbytes)


@pytest.mark.parametrize("model", MODELS, ids=ModelSpec.label)
def test_scorer_is_freed_without_the_cycle_collector(model):
    # a scorer in a reference cycle keeps its tables until the cyclic
    # collector runs, so memory grew with every search of a run; compare
    # holds one row's scorer at a time on that understanding
    scorer = score_function(_cet_like(1), model)
    owner = weakref.ref(getattr(scorer, "__self__", scorer))
    table = weakref.ref(_largest_table(scorer))
    gc.disable()
    try:
        del scorer
        assert owner() is None
        assert table() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("penalty", ["bic", "mdl"])
def test_exact_search_builds_its_rss_table_once(monkeypatch, penalty):
    # the exact search's scorer reads the table the search built
    built = []

    def counted(values, min_len, trend, ar1):
        built.append(min_len)
        return regime_tables(values, min_len, trend, ar1)

    monkeypatch.setattr(fastscore, "regime_tables", counted)
    monkeypatch.setattr(search, "regime_tables", counted)
    model = ModelSpec("trend-shift", "wn", penalty)
    search.exact_optimize(_cet_like(1), model)
    assert built == [3]
    # a search that builds no table of its own leaves it to the scorer
    search.ga_optimize(_cet_like(1), model, GAParams(population_size=10, max_generations=2))
    assert built == [3, 3]


class TestSharedTables:
    """Inside a shared_scope(), regime_tables keeps one family's tables."""

    def test_both_penalties_of_a_family_build_once(self, table_builds):
        series = _cet_like(1)
        configs = Regimes(list(_random_configs(series, 1, 50, 3)), series.n)
        with search.shared_scope():
            scores = [score_function(series, ModelSpec("mean-shift", "ar1", penalty))(configs)
                      for penalty in ("bic", "mdl")]
        assert table_builds == [(1, False, True)]
        for penalty, score in zip(("bic", "mdl"), scores):
            alone = score_function(series, ModelSpec("mean-shift", "ar1", penalty))(configs)
            assert np.array_equal(score, alone, equal_nan=True)

    def test_a_white_noise_search_reads_the_ar1_rss_table(self, table_builds):
        series = _cet_like(1)
        wn = ModelSpec("trend-shift", "wn", "bic")
        with search.shared_scope():
            score_function(series, ModelSpec("trend-shift", "ar1", "bic"))
            report = search.exact_optimize(series, wn)
            [kept], _ = regime_tables(series.values, 3, True, False)
            assert table_builds == [(3, True, True)]
            # the lag-1 tables were dropped, so an AR(1) search builds again
            regime_tables(series.values, 3, True, True)
            assert table_builds == [(3, True, True)] * 2
        [fresh], _ = fastscore._build_tables(series.values, 3, True, False)
        assert np.array_equal(kept, fresh)
        assert report == search.exact_optimize(series, wn)

    def test_another_key_rebuilds(self, table_builds):
        values, other = _cet_like(1).values, _cet_like(2).values
        with search.shared_scope():
            for args in ((values, 1, False, True), (values, 3, True, True),
                         (values, 1, False, True), (other, 1, False, True),
                         (values, 3, True, False), (values, 3, True, True)):
                regime_tables(*args)
        # the last: an AR(1) call after a white-noise entry builds again
        assert table_builds == [(1, False, True), (3, True, True), (1, False, True),
                                (1, False, True), (3, True, False), (3, True, True)]

    def test_nothing_is_kept_outside_a_scope(self, table_builds):
        values = _cet_like(1).values
        regime_tables(values, 1, False, True)
        regime_tables(values, 1, False, True)
        with search.shared_scope():
            pass
        regime_tables(values, 1, False, True)
        assert table_builds == [(1, False, True)] * 3

    def test_kept_tables_are_read_only(self):
        with search.shared_scope():
            tables, _ = regime_tables(_cet_like(1).values, 1, False, True)
            [rss], _ = regime_tables(_cet_like(1).values, 1, False, False)
        for table in (*tables, rss):
            with pytest.raises(ValueError):
                table[5, 2] = 0.0

    def test_tables_are_freed_at_scope_exit_without_the_cycle_collector(self):
        gc.disable()
        try:
            with search.shared_scope():
                tables, _ = regime_tables(_cet_like(1).values, 3, True, True)
                refs = [weakref.ref(table) for table in tables]
                del tables
                assert all(ref() is not None for ref in refs)
            assert all(ref() is None for ref in refs)
        finally:
            gc.enable()


def test_winner_whose_refit_disagrees_raises(monkeypatch):
    monkeypatch.setattr(search, "score_function",
                        lambda series, model: lambda regimes: np.full(regimes.m.size, -1.0))
    series = simulate_series(SimSpec(n=12, phi=0.4, seed=5))
    with pytest.raises(search.RefitMismatchError):
        search.exhaustive_optimize(series, ModelSpec("mean-shift", "ar1"))


def _joinpin_score(series, taus, rss, sigma2):
    return _neg2loglik(rss, series.n, sigma2) + default_knot_penalty(series.n) * len(taus)


@st.composite
def joinpin_cases(draw):
    """A series, a feasible knot configuration and a variance.

    The series is an offset plus noise at a drawn scale; each regime is
    then left as it is, made exactly linear with a jump at its start, or
    made exactly linear continuing from the last value before it (a
    continuous kink).  ``exact`` marks series that are continuous
    piecewise linear throughout, with knots among the configuration's.
    """
    n = draw(st.integers(4, 40))
    bits = np.array(draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)))
    [taus] = _repaired([bits], n, 2)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    offset = draw(st.one_of(st.just(0.0), st.floats(-1e4, 1e4)))
    scale = draw(st.sampled_from((1.0, 1e-3, 1e-6)))
    x = offset + scale * rng.standard_normal(n)
    t = np.arange(1.0, n + 1.0)
    bounds = (0, *taus, n)
    kinds = [draw(st.sampled_from(("noise", "linear", "kinked"))) for _ in bounds[1:]]
    for (a, b), kind in zip(zip(bounds, bounds[1:]), kinds):
        slope = float(draw(st.integers(-3, 3)))
        level = offset + draw(st.integers(-50, 50))
        if kind == "linear" or (kind == "kinked" and a == 0):
            x[a:b] = level + slope * t[a:b]
        elif kind == "kinked":
            x[a:b] = x[a - 1] + slope * (t[a:b] - a)
    exact = all(kind == "kinked" for kind in kinds)
    return TimeSeries(1900, x), taus, scale * scale, exact


@given(joinpin_cases())
@settings(max_examples=600, deadline=None)
def test_joinpin_fast_rss_matches_reference(case):
    series, taus, sigma2, exact = case
    [rss] = joinpin_rss(series.values)(Regimes([taus], series.n))
    if exact:
        # an exact fit is never scored fast: the search leaves it to the least squares
        assert math.isnan(rss)
        return
    if not math.isnan(rss):
        reference = fit_joinpin(series, ChangepointConfiguration(taus), sigma2).bic_score
        assert _close(_joinpin_score(series, taus, rss, sigma2), reference), (rss, reference)


def test_joinpin_cet_like_series_never_falls_back():
    series = _cet_like(1)
    configs = list(_random_configs(series, 2, 100, 4))
    for taus, rss in zip(configs, joinpin_rss(series.values)(Regimes(configs, series.n))):
        assert not math.isnan(rss), taus
        reference = fit_joinpin(series, ChangepointConfiguration(taus), 0.29).bic_score
        assert _close(_joinpin_score(series, taus, rss, 0.29), reference)


def test_joinpin_winner_whose_refit_disagrees_raises(monkeypatch):
    from cetseg import joinpin

    def perturbed(values):
        fast = joinpin_rss(values)
        return lambda regimes: fast(regimes) + 1.0  # NaN rows stay NaN

    monkeypatch.setattr(joinpin, "joinpin_rss", perturbed)
    series = simulate_series(SimSpec(n=30, phi=0.4, seed=5))
    with pytest.raises(RefitMismatchError):
        joinpin_search(series, 1.0, params=GAParams(population_size=20, max_generations=5))


def _same(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))


def _extra_configs(draw, n, min_len):
    """Up to five more feasible configurations of a length-``n`` series."""
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1), max_size=5))
    return _repaired(rows, n, min_len)


@st.composite
def batch_cases(draw):
    """A batch scorer, its configurations, and an order to shuffle them by.

    The scorer is a searched family's fast score or the joinpin RSS, on
    the series of :func:`scored_cases` or :func:`joinpin_cases`, whose
    degenerate regimes follow the first configuration, so batches mix
    fast and fallback rows.
    """
    if draw(st.booleans()):
        model, series, taus = draw(scored_cases())
        score = score_function(series, model)
        min_len = min_segment_length(model)
    else:
        series, taus, _, _ = draw(joinpin_cases())
        score = joinpin_rss(series.values)
        min_len = 2
    configs = [taus, *_extra_configs(draw, series.n, min_len)]
    order = draw(st.permutations(range(len(configs))))
    return lambda batch: score(Regimes(batch, series.n)), configs, order


@given(batch_cases())
@settings(max_examples=400, deadline=None)
def test_batch_scores_do_not_depend_on_the_batch(case):
    score, configs, order = case
    alone = [score([taus])[0] for taus in configs]
    shuffled = score([configs[i] for i in order])
    for value, i in zip(shuffled, order):
        assert _same(value, alone[i]), (configs[i], value, alone[i])
    # each configuration twice, the copies apart
    doubled = score(configs + [configs[i] for i in order])
    for value, i in zip(doubled, [*range(len(configs)), *order]):
        assert _same(value, alone[i]), (configs[i], value, alone[i])


def _check_rss_table(series, configs, penalty):
    """The exact search's regime-RSS table, summed in regime order, scores
    each configuration as the trend-shift+wn batch scorer does, bit for bit."""
    n = series.n
    model = ModelSpec("trend-shift", "wn", penalty)
    [table], _ = regime_tables(series.values, min_segment_length(model), True, False)
    scores = score_function(series, model)(Regimes(configs, n))
    penalties = penalty_function(model, n)(Regimes(configs, n))
    checked = 0
    for taus, score, pen in zip(configs, scores.tolist(), penalties.tolist()):
        if math.isnan(score):  # left to the reference fit
            continue
        bounds = (0, *taus, n)
        rss = 0.0
        for s, e in zip(bounds, bounds[1:]):
            rss += table[e, s]
        assert n * (math.log(rss / n) + 1.0 + LOG_2PI) + pen == score, taus
        checked += 1
    return checked


@given(n=st.integers(6, 40), offset=st.floats(0.0, 1e6), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1), penalty=st.sampled_from(("bic", "mdl")))
@settings(max_examples=300, deadline=None)
def test_rss_table_matches_the_trend_scorer_bit_for_bit(n, offset, scale, seed, penalty):
    series = TimeSeries(1900, offset + scale * np.random.default_rng(seed).standard_normal(n))
    _check_rss_table(series, [(), *_random_configs(series, 3, 20, seed)], penalty)


@pytest.mark.parametrize("penalty", ["bic", "mdl"])
def test_rss_table_matches_the_trend_scorer_at_the_paper_length(penalty):
    series = _cet_like(1)
    configs = [(), (41, 80, 329), *_random_configs(series, 3, 200, 5)]
    assert _check_rss_table(series, configs, penalty) == len(configs)


def _ar1_terms(values, min_len, trend):
    """Every regime ``(s, e)`` with ``e - s >= min_len``, and its RSS, inside
    lag-1 sum, opening residual and closing residual by the prefix-sum
    formulas, applied to flat per-regime arrays (a mean shift's slope is
    the float 0.0)."""
    n = values.size
    x, t, sums, _ = _centred_sums(values)
    e, s = np.nonzero(np.subtract.outer(np.arange(n + 1), np.arange(n + 1)) >= min_len)
    sx, sxx, st, stx = sums[:, e] - sums[:, s]
    k = e - s
    if trend:
        stt = np.arange(n + 1.0)
        stt = stt * (stt * stt - 1) / 12.0
        stx = stx - st * sx / k
        q = stx / stt[k]
        rss = sxx - sx * sx / k - stx * q
        p = (sx - q * st) / k
    else:
        p = sx / k
        rss = sxx - sx * p
        q = 0.0
    x0, x1, t0, t1 = x[:-1], x[1:], t[:-1], t[1:]
    pairs = np.zeros((5, n))
    np.cumsum(np.stack((x0 * x1, x0 + x1, x0 * t1 + x1 * t0, t0 + t1, t0 * t1)), axis=1,
              out=pairs[:, 1:])
    last = e - 1
    pxx, px, ptx, pt, ptt = pairs[:, last] - pairs[:, s]
    inside = pxx - p * px - q * ptx + (last - s) * p * p + p * q * pt + q * q * ptt
    return e, s, (rss, inside, x[s] - p - q * t[s], x[last] - p - q * t[last])


# (trend, AR(1) errors, min_len) of the RSS tables: trend-shift+wn, and
# the mean-shift+ar1 and trend-shift+ar1 scorers' tables.
RSS_TABLES = [(True, False, 2), (True, False, 3), (False, True, 1), (True, True, 3)]


@given(n=st.integers(4, 80), offset=st.floats(0.0, 1e6), scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1), family=st.sampled_from(RSS_TABLES))
@settings(max_examples=200, deadline=None)
def test_rss_table_is_every_regime_term_and_inf_elsewhere(n, offset, scale, seed, family):
    # a DP over the table reads +inf for every regime shorter than min_len
    trend, ar1, min_len = family
    values = offset + scale * np.random.default_rng(seed).standard_normal(n)
    [table, *_], _ = regime_tables(values, min_len, trend, ar1)
    e, s, (terms, *_) = _ar1_terms(values, min_len, trend)
    assert np.array_equal(table[e, s], terms)
    rest = np.ones(table.shape, bool)
    rest[e, s] = False
    assert np.all(table[rest] == math.inf)


@pytest.mark.parametrize("seed", [1, 7])
def test_rss_table_is_every_regime_term_at_the_paper_length(seed):
    values = _cet_like(seed).values
    [table], _ = regime_tables(values, 3, True, False)
    e, s, (terms, *_) = _ar1_terms(values, 3, True)
    assert np.array_equal(table[e, s], terms)
    assert np.isinf(table).sum() == table.size - terms.size


def _same_bits(a, b):
    """Equal bit for bit, NaN (of any payload) exactly where NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and np.array_equal(a[~nan].view(np.int64),
                                                               b[~nan].view(np.int64))


@st.composite
def conditioned_series(draw):
    """A family, its shortest regime and a badly conditioned series: an
    offset (up to 1e6) plus noise at a drawn scale, with drawn stretches
    made near-constant, exactly constant or exactly linear in t; or zeros
    of either sign, whose residuals' signs show the formulas' order."""
    trend = draw(st.booleans())
    min_len = 3 if trend else 1
    n = draw(st.integers(2 * min_len, 90))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.integers(0, 9)) == 0:
        return trend, min_len, np.where(rng.random(n) < 0.5, -0.0, 0.0)
    offset = draw(st.sampled_from((0.0, 1e6, -1e6, 12.5)))
    x = offset + draw(st.sampled_from((1.0, 1e-3, 1e-6))) * rng.standard_normal(n)
    for _ in range(draw(st.integers(0, 3))):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a + 1, n))
        kind = draw(st.sampled_from(("near-constant", "constant", "linear")))
        level = offset + draw(st.integers(-50, 50))
        if kind == "near-constant":
            x[a:b] = level + 1e-9 * rng.standard_normal(b - a)
        elif kind == "constant":
            x[a:b] = level
        else:
            x[a:b] = level + draw(st.integers(-3, 3)) * np.arange(a + 1.0, b + 1.0)
    return trend, min_len, x


@given(conditioned_series())
@settings(max_examples=300, deadline=None)
def test_ar1_tables_are_every_regime_term_bit_for_bit(case):
    # the AR(1) scorers gather these entries in place of the formulas
    trend, min_len, values = case
    tables, _ = regime_tables(values, min_len, trend, True)
    e, s, terms = _ar1_terms(values, min_len, trend)
    for table, term in zip(tables, terms):
        assert _same_bits(table[e, s], term)


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("trend", [False, True])
def test_ar1_tables_are_every_regime_term_at_the_paper_length(seed, trend):
    values = _cet_like(seed).values
    min_len = 3 if trend else 1
    tables, _ = regime_tables(values, min_len, trend, True)
    e, s, terms = _ar1_terms(values, min_len, trend)
    for table, term in zip(tables, terms):
        assert _same_bits(table[e, s], term)

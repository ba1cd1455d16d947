"""The O(m) search scores against the two-pass reference fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cetseg import ChangepointConfiguration, DegenerateFitError, ModelSpec, TimeSeries
from cetseg.fastscore import score_function
from cetseg.search import REFIT_RTOL, _model_fitness, _repair, evaluate, min_segment_length
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


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REFIT_RTOL, abs_tol=REFIT_RTOL)


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
    taus = _repair(bits, n, min_len, n - 1)
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
    fast = score_function(series, model)(taus)
    searched = _model_fitness(series, model)(taus)
    if reference is None:
        # a degenerate fit is never scored fast: it falls back and ranks last
        assert fast is None
        assert searched == math.inf
        return
    assert fast is None or _close(fast, reference), (fast, reference)
    assert _close(searched, reference), (searched, reference)


@pytest.mark.parametrize("model", MODELS, ids=ModelSpec.label)
def test_well_conditioned_series_never_fall_back(model):
    # the fast path must carry the search, not the fallback
    series = simulate_series(SimSpec(
        n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
        betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, seed=3))
    fast = score_function(series, model)
    rng = np.random.default_rng(4)
    min_len = min_segment_length(model)
    for _ in range(200):
        bits = rng.random(series.n - 1) < rng.choice([0.01, 0.05, 0.3])
        taus = _repair(bits, series.n, min_len, series.n - 1)
        score = fast(taus)
        assert score is not None, taus
        assert _close(score, _reference(series, model, taus))


@pytest.mark.parametrize("model", MODELS, ids=ModelSpec.label)
def test_constant_series_falls_back_to_degenerate(model):
    # variance shifts read the values as residuals, so only zeros are degenerate
    level = 0.0 if model.mean_structure.value == "variance-shift" else 1e4
    series = TimeSeries(1900, np.full(12, level))
    taus = (4, 8)
    assert score_function(series, model)(taus) is None
    assert _model_fitness(series, model)(taus) == math.inf


def test_winner_whose_refit_disagrees_raises(monkeypatch):
    from cetseg import search

    monkeypatch.setattr(search, "score_function", lambda series, model: lambda taus: -1.0)
    series = simulate_series(SimSpec(n=12, phi=0.4, seed=5))
    with pytest.raises(search.RefitMismatchError):
        search.exhaustive_optimize(series, ModelSpec("mean-shift", "ar1"))

"""The exact trend-shift+wn search: against the exhaustive oracle at small N,
against the GA at the paper's length, and its place in every search."""

import inspect
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import lean_ga

from cetseg import DegenerateFitError, DomainError, InfeasibleModelError, ModelSpec, TimeSeries
from cetseg import search
from cetseg.cli import main
from cetseg.io import series_to_csv
from cetseg.search import (
    GAParams,
    UncertifiedError,
    exact_optimize,
    exhaustive_optimize,
    ga_optimize,
    solve,
)
from cetseg.simulate import SimSpec, simulate_series

# The CET-like fixture of the benchmark, at the paper's length.
FIXTURE = dict(n=362, taus=(41, 80, 329), mus=(9.0, 8.5, 9.3, 10.2),
               betas=(0.0, 0.0, 0.003, 0.02), phi=0.06, sigma=0.54, first_year=1659)


def fixture(seed: int) -> TimeSeries:
    return simulate_series(SimSpec(seed=seed, **FIXTURE))


@st.composite
def short_series(draw) -> TimeSeries:
    """N = 6..16: unit noise with a jump, a change of trend, or a stretch
    that is linear to within 1e-3."""
    n = draw(st.integers(6, 16))
    kind = draw(st.sampled_from(["noise", "jump", "trend", "near-linear"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = np.arange(n, dtype=float)
    x = rng.normal(0.0, 1.0, n)
    at = int(rng.integers(2, n - 2))
    if kind == "jump":
        x += rng.uniform(2.0, 6.0) * (t >= at)
    elif kind == "trend":
        x += rng.uniform(0.5, 2.0) * np.maximum(t - at, 0.0) + 0.3 * t
    elif kind == "near-linear":
        x[at:] = 5.0 + 0.7 * t[at:] + rng.normal(0.0, 1e-3, n - at)
    return TimeSeries(1900, x)


@given(series=short_series(), penalty=st.sampled_from(["bic", "mdl"]),
       max_m=st.sampled_from([None, 0, 1, 2]))
@settings(max_examples=300, deadline=None)
def test_matches_exhaustive(series, penalty, max_m):
    model = ModelSpec("trend-shift", "wn", penalty)
    try:
        report = exact_optimize(series, model, max_m)
    except UncertifiedError:  # left to the GA; see test_degenerate_data_takes_the_ga_path
        return
    oracle = exhaustive_optimize(series, model, max_m).best
    assert report.best.config.taus == oracle.config.taus
    assert math.isclose(report.best.score, oracle.score, rel_tol=1e-9, abs_tol=1e-9)
    assert report.score_history == (report.best.score,)
    assert (report.generations_run, report.seed) == (0, None)
    assert report.evaluations_count >= 1


# Answers the GA misses at the default budget with the CLI's seed 0:
# (fixture seed, penalty, taus, repr(score)).  The GA stops at (79, 329).
PINNED = (
    (7, "bic", (80, 329), "587.2246887407698"),
    (8, "bic", (80, 329), "649.1920894633244"),
    (10, "mdl", (80, 329), "628.8547520929257"),
)


@pytest.mark.parametrize("seed, penalty, taus, score", PINNED)
def test_pinned_answers_at_the_paper_length(seed, penalty, taus, score):
    best = exact_optimize(fixture(seed), ModelSpec("trend-shift", "wn", penalty)).best
    assert best.config.taus == taus
    assert repr(best.score) == score


@pytest.mark.parametrize("seed", range(1, 11))
def test_no_worse_than_the_ga(seed):
    series = fixture(seed)
    for penalty in ("bic", "mdl"):
        model = ModelSpec("trend-shift", "wn", penalty)
        exact = exact_optimize(series, model).best
        ga = ga_optimize(series, model, GAParams(seed=seed, max_generations=100)).best
        assert exact.score <= ga.score + 1e-9 * abs(ga.score)


def test_max_m_caps_the_answer():
    series = fixture(6)
    model = ModelSpec("trend-shift", "wn", "mdl")
    assert exact_optimize(series, model).best.config.m == 3
    for max_m in (0, 1, 2):
        best = exact_optimize(series, model, max_m).best
        assert best.config.m <= max_m
        # the best configuration with at most max_m changepoints
        assert best.score == min(exact_optimize(series, model, k).best.score
                                 for k in range(max_m + 1))


def test_trust_floor_is_checked_at_the_cap():
    # A zigzag of period 6: seven changepoints fit it to within the trust
    # floor, but the least RSS with at most two is far above it.
    t = np.arange(24.0)
    series = TimeSeries(1900, np.abs(t % 6 - 3) + 1e-4 * np.random.default_rng(0).normal(size=24))
    for penalty in ("bic", "mdl"):
        model = ModelSpec("trend-shift", "wn", penalty)
        with pytest.raises(UncertifiedError):
            exact_optimize(series, model)
        best = exact_optimize(series, model, 2).best
        oracle = exhaustive_optimize(series, model, 2).best
        assert best.config.taus == oracle.config.taus
        assert math.isclose(best.score, oracle.score, rel_tol=1e-9)


def _run_counting_line(func, line_text, *args):
    """``func(*args)``, and how often it ran its line that contains ``line_text``."""
    source, first = inspect.getsourcelines(func)
    [line] = [first + i for i, text in enumerate(source) if line_text in text]
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == line:
            hits.append(line)
        return local

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: local if frame.f_code is func.__code__ else None)
    try:
        result = func(*args)
    finally:
        sys.settrace(previous)
    return result, len(hits)


# Unit-noise series whose MDL solve splits an RSS interval in two at a
# round's winner, as CROPS does: (seed, n) of np.random.default_rng(seed).
@pytest.mark.parametrize("seed, n", [(26, 18), (43, 18), (47, 15), (74, 12), (148, 12)])
def test_crops_split_keeps_the_answer_exact(seed, n):
    series = TimeSeries(1900, np.random.default_rng(seed).normal(size=n))
    model = ModelSpec("trend-shift", "wn", "mdl")
    report, splits = _run_counting_line(exact_optimize, "(j, a, split), (j, split, b)",
                                        series, model)
    assert splits >= 1
    oracle = exhaustive_optimize(series, model).best
    assert report.best.config.taus == oracle.config.taus
    assert math.isclose(report.best.score, oracle.score, rel_tol=1e-9, abs_tol=1e-9)


def test_rejects_what_it_cannot_solve():
    series = fixture(1)
    with pytest.raises(DomainError, match="no exact search"):
        exact_optimize(series, ModelSpec("trend-shift", "ar1"))
    with pytest.raises(DomainError, match="max_m must be >= 0"):
        exact_optimize(series, ModelSpec("trend-shift", "wn"), -1)
    with pytest.raises(InfeasibleModelError, match="too short to search"):
        exact_optimize(TimeSeries(1900, [1.0, 3.0, 2.0, 5.0, 4.0]), ModelSpec("trend-shift", "wn"))


@pytest.mark.parametrize("values", [np.full(12, 5.0), 0.5 * np.arange(12.0) + 3.0],
                         ids=["constant", "linear"])
@pytest.mark.parametrize("penalty", ["bic", "mdl"])
def test_degenerate_data_takes_the_ga_path(values, penalty, monkeypatch):
    series = TimeSeries(1900, values)
    model = ModelSpec("trend-shift", "wn", penalty)
    with pytest.raises(UncertifiedError):
        exact_optimize(series, model)
    calls = []
    ga = search.ga_optimize
    monkeypatch.setattr(search, "ga_optimize", lambda *a, **kw: calls.append(a) or ga(*a, **kw))
    with pytest.raises(DegenerateFitError):
        solve(series, model, lean_ga())
    assert len(calls) == 1


@pytest.mark.parametrize("values", [np.full(12, 5.0), 0.5 * np.arange(12.0) + 3.0],
                         ids=["constant", "linear"])
def test_degenerate_data_exits_2(values, tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text(series_to_csv(TimeSeries(1900, values)), encoding="utf-8")
    for model in ("trend-shift", "variance-shift", "joinpin"):
        assert main(["fit", "--input", str(path), "--format", "csv", "--model", model,
                     "--errors", "wn", "--population", "20", "--generations", "10"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


def test_solve_looks_its_searches_up_when_called(monkeypatch):
    series = fixture(1)
    used = []
    for name in ("exact_optimize", "ga_optimize"):
        found = getattr(search, name)
        monkeypatch.setattr(search, name, lambda *a, _f=found, _n=name, **kw:
                            used.append(_n) or _f(*a, **kw))
    params = GAParams(max_generations=2)
    for errors in ("wn", "ar1"):
        solve(series, ModelSpec("trend-shift", errors), params)
    assert used == ["exact_optimize", "ga_optimize"]


def test_fit_honours_max_m(tmp_path, capsys):
    path = tmp_path / "series.csv"
    path.write_text(series_to_csv(fixture(1)), encoding="utf-8")
    years = {}
    for cap in ([], ["--max-m", "1"]):
        assert main(["fit", "--input", str(path), "--format", "csv", "--model", "trend-shift",
                     "--errors", "wn", "--out", "json", *cap]) == 0
        years[bool(cap)] = json.loads(capsys.readouterr().out)["changepoint_years"]
    assert len(years[False]) == 2
    assert len(years[True]) == 1

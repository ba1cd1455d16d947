"""Changepoint search: exact enumeration for tiny series, GA otherwise.

Searches score configurations with the O(m) fast fits of
:mod:`cetseg.fastscore`, built once per search from prefix sums of the
series.  A configuration the fast fit cannot score safely is scored
with the reference :func:`evaluate` instead.  The cache holds one sort
key per configuration, not a fit.  The winner of each search is fitted
once more with :func:`evaluate`; that refit is the reported result, and
it must agree with the score the search ranked it by.

The genetic algorithm is deterministic for a given seed.  Each
generation draws from one stream keyed by ``(seed, generation)``, as
whole arrays in a fixed order with one row per slot, so the values an
individual consumes sit at fixed positions: they never depend on what
another individual drew, and results are independent of evaluation
order.

Ties are broken identically everywhere: lower score, then fewer
changepoints, then lexicographically smaller boundary indices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from . import estimation
from .core import (
    CetsegError,
    ChangepointConfiguration,
    DegenerateFitError,
    DomainError,
    ErrorModel,
    FitResult,
    InfeasibleModelError,
    MeanStructure,
    ModelSpec,
    TimeSeries,
)
from .fastscore import score_function
from .penalties import PenaltyContext, penalty_value

__all__ = [
    "MIN_SEGMENT_LENGTH",
    "min_segment_length",
    "evaluate",
    "GAParams",
    "SearchReport",
    "GARun",
    "RefitMismatchError",
    "exhaustive_optimize",
    "ga_minimize",
    "ga_optimize",
    "EXHAUSTIVE_MAX_N",
    "REFIT_RTOL",
]

# Shortest regime each mean structure can estimate its parameters on.
MIN_SEGMENT_LENGTH = {
    MeanStructure.MEAN_SHIFT: 1,
    MeanStructure.TREND_SHIFT: 3,
    MeanStructure.FIXED_SLOPE: 2,
    MeanStructure.VARIANCE_SHIFT: 2,
    MeanStructure.JOINPIN: 2,
}

# Enumeration over all subsets of boundary positions is exponential in
# N; keep the exact path as a small-N oracle only.
EXHAUSTIVE_MAX_N = 25

# Largest relative gap allowed between the score a search ranked its
# winner by and the winner's reference refit.
REFIT_RTOL = 1e-9


class RefitMismatchError(CetsegError):
    """Raised when a search winner's reference refit disagrees with the
    score the search ranked it by."""


def min_segment_length(model: ModelSpec) -> int:
    try:
        return MIN_SEGMENT_LENGTH[model.mean_structure]
    except KeyError:
        raise DomainError(f"no segment constraint defined for {model.label()}") from None


def evaluate(series: TimeSeries, model: ModelSpec, config: ChangepointConfiguration) -> FitResult:
    """Fit ``model`` at ``config`` and return the penalized result.

    The configuration is validated against the model's minimum segment
    length and never silently repaired.  For variance-shift models the
    series values are treated as an already-detrended residual series.

    Raises
    ------
    DomainError
        If the configuration violates the model's segment constraints.
    DegenerateFitError
        If the fit leaves zero innovation variance.
    """
    n = series.n
    config.validate_for(n, min_segment_length(model))
    ms = model.mean_structure
    pen = penalty_value(PenaltyContext(model, n, config))

    if ms is MeanStructure.VARIANCE_SHIFT:
        vfit = estimation.fit_variance_shift(series.values, config)
        return FitResult(model, config, vfit.neg2loglik, pen, regime_variances=vfit.variances)

    if ms is MeanStructure.MEAN_SHIFT:
        means = estimation.fit_mean_shift(series, config)
        slopes = None
    elif ms is MeanStructure.TREND_SHIFT:
        means, slopes = estimation.fit_trend_shift(series, config)
    elif ms is MeanStructure.FIXED_SLOPE:
        means, beta = estimation.fit_fixed_slope(series, config)
        slopes = (beta,) * (config.m + 1)
    else:
        raise DomainError(f"{ms.value} is not fitted through this search")

    d = series.values - estimation.fitted_mean(config, means, slopes, n)
    if model.error_model is ErrorModel.AR1:
        phi = estimation.estimate_ar1(d)
    else:
        phi = None
    sigma2 = estimation.innovation_variance(d, phi or 0.0)
    n2ll = estimation.gaussian_neg2loglik(sigma2, n)
    return FitResult(
        model, config, n2ll, pen,
        means=means, slopes=slopes, phi_hat=phi, sigma2_hat=sigma2,
    )


@dataclass(frozen=True)
class GAParams:
    """Genetic-algorithm settings.

    ``mutation_rate`` is the expected number of flipped boundary
    positions per child, spread uniformly over all positions.
    """

    population_size: int = 200
    max_generations: int = 20000
    stagnation_limit: int = 1000
    crossover_prob: float = 0.8
    mutation_rate: float = 1.0
    elite_fraction: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.population_size < 2:
            raise DomainError("population_size must be >= 2")
        if self.max_generations < 0 or self.stagnation_limit < 1:
            raise DomainError("max_generations must be >= 0 and stagnation_limit >= 1")
        if not 0.0 <= self.crossover_prob <= 1.0:
            raise DomainError("crossover_prob must lie in [0, 1]")
        if self.mutation_rate < 0.0:
            raise DomainError("mutation_rate must be >= 0")
        if not 0.0 <= self.elite_fraction <= 0.5:
            raise DomainError("elite_fraction must lie in [0, 0.5]")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SearchReport:
    """Outcome of a changepoint search.

    ``best`` is the reference :func:`evaluate` refit of the winning
    configuration; the search itself ranked configurations by their
    fast scores, which the refit matches within ``REFIT_RTOL``.
    ``score_history`` holds the best score seen up to and including
    each generation (a single entry for exact enumeration), so it is
    non-increasing; entries are fast scores, except that the final best
    score is replaced by its refit, so ``score_history[-1] ==
    best.score``.  ``evaluations_count`` counts distinct configurations
    scored; the search caches one score per configuration.
    """

    best: FitResult
    score_history: tuple[float, ...]
    generations_run: int
    evaluations_count: int
    seed: int | None


@dataclass(frozen=True)
class GARun:
    """What :func:`ga_minimize` found: the winning boundaries and their
    score, the best score after each generation, the generations run
    and the number of distinct configurations scored."""

    taus: tuple[int, ...]
    score: float
    score_history: tuple[float, ...]
    generations_run: int
    evaluations_count: int


_INF = math.inf

Fitness = Callable[[tuple[int, ...]], float]


def _model_fitness(series: TimeSeries, model: ModelSpec) -> Fitness:
    """Score of ``model`` at a feasible boundary tuple, +inf if degenerate.

    Fast O(m) scores, with the reference fit where the fast one cannot
    be trusted.
    """
    fast = score_function(series, model)

    def fitness(taus: tuple[int, ...]) -> float:
        score = fast(taus)
        if score is not None:
            return score
        try:
            return evaluate(series, model, ChangepointConfiguration(taus)).score
        except DegenerateFitError:
            return _INF

    return fitness


def _refit(series: TimeSeries, model: ModelSpec, taus: tuple[int, ...], score: float) -> FitResult:
    """The reference fit of a search winner, checked against its search score."""
    if score == _INF:
        raise DegenerateFitError("every configuration encountered fits the data exactly")
    best = evaluate(series, model, ChangepointConfiguration(taus))
    if not math.isclose(best.score, score, rel_tol=REFIT_RTOL, abs_tol=REFIT_RTOL):
        raise RefitMismatchError(
            f"{model.label()} at {taus}: search score {score!r}, reference refit {best.score!r}"
        )
    return best


def _enumerate_configs(n: int, min_len: int, max_m: int) -> Iterator[tuple[int, ...]]:
    """All boundary tuples whose regimes each span >= min_len indices."""

    def extend(prefix: tuple[int, ...], last: int) -> Iterator[tuple[int, ...]]:
        if n - last >= min_len:
            yield prefix
        if len(prefix) < max_m:
            for tau in range(last + min_len, n - min_len + 1):
                yield from extend(prefix + (tau,), tau)

    yield from extend((), 0)


def exhaustive_optimize(
    series: TimeSeries, model: ModelSpec, max_m: int | None = None
) -> SearchReport:
    """Score every feasible configuration and return the best.

    Only defined for ``N <= EXHAUSTIVE_MAX_N``; meant as an exact
    oracle for validating the GA on short series.
    """
    n = series.n
    if n > EXHAUSTIVE_MAX_N:
        raise DomainError(
            f"exhaustive search is limited to N <= {EXHAUSTIVE_MAX_N}; use ga_optimize"
        )
    min_len = min_segment_length(model)
    if n < min_len:
        raise InfeasibleModelError(
            f"series of length {n} cannot hold one regime of length {min_len}"
        )
    if max_m is None:
        max_m = n - 1
    fitness = _model_fitness(series, model)
    best_key = None
    evaluations = 0
    for taus in _enumerate_configs(n, min_len, max_m):
        key = (fitness(taus), len(taus), taus)
        evaluations += 1
        if best_key is None or key < best_key:
            best_key = key
    best = _refit(series, model, best_key[2], best_key[0])
    return SearchReport(
        best=best,
        score_history=(best.score,),
        generations_run=0,
        evaluations_count=evaluations,
        seed=None,
    )


def _bit_matrix(configs: Sequence[tuple[int, ...]], length: int) -> np.ndarray:
    """Inclusion bitvectors of ``configs`` over boundaries ``1..length``, one row each."""
    bits = np.zeros((len(configs), length), dtype=bool)
    rows = [row for row, taus in enumerate(configs) for _ in taus]
    bits[rows, [tau - 1 for taus in configs for tau in taus]] = True
    return bits


def _repair(bits: np.ndarray, n: int, min_len: int, max_m: int) -> list[tuple[int, ...]]:
    """Greedily drop boundaries until each row's configuration is feasible.

    Scans each row of the bitvector matrix left to right keeping a
    boundary only if the regime it closes is long enough (earlier
    boundaries win), truncates to ``max_m``, then drops trailing
    boundaries that would leave a short final regime.
    """
    rows, cols = bits.nonzero()
    taus = (cols + 1).tolist()
    repaired = []
    start = 0
    for end in np.bincount(rows, minlength=len(bits)).cumsum().tolist():
        kept: list[int] = []
        prev = 0
        for tau in taus[start:end]:
            if len(kept) == max_m:
                break
            if tau - prev >= min_len:
                kept.append(tau)
                prev = tau
        while kept and n - kept[-1] < min_len:
            kept.pop()
        repaired.append(tuple(kept))
        start = end
    return repaired


def ga_minimize(
    fitness: Fitness,
    n: int,
    min_len: int,
    params: GAParams = GAParams(),
    *,
    max_m: int | None = None,
    initial: Sequence[tuple[int, ...]] = (),
) -> GARun:
    """Minimize ``fitness`` over boundary tuples of a length-``n`` series.

    ``fitness`` maps a boundary tuple whose regimes all span at least
    ``min_len`` indices to its score, or +inf if it cannot be scored.
    Each distinct tuple is scored once; only its sort key
    ``(score, m, taus)`` is kept.  Individuals are inclusion bitvectors
    over candidate boundaries ``1..n-1``; infeasible children are
    repaired, never rejected.  See :func:`ga_optimize` for the
    generation scheme and the stopping rule.

    Each generation's draws come from one stream keyed by
    ``(params.seed, generation)``, generation 0 building the initial
    population.  A generation of C children draws, in this order,
    tournament picks ``(C, 6)``, crossover uniforms ``(C,)``, a
    crossover mask ``(C, n-1)`` and mutation flips ``(C, n-1)``, with
    row i belonging to child i.

    Raises
    ------
    InfeasibleModelError
        If ``n < 2 * min_len``, i.e. no single changepoint is feasible.
    DomainError
        If ``max_m < 0``.
    DegenerateFitError
        If every configuration encountered scores +inf.
    """
    if n < 2 * min_len:
        raise InfeasibleModelError(
            f"series of length {n} is too short to search (need >= {2 * min_len})"
        )
    length = n - 1
    cap = length if max_m is None else max_m
    if cap < 0:
        raise DomainError("max_m must be >= 0")
    pop_size = params.population_size
    cache: dict[tuple[int, ...], tuple] = {}

    def ranked(pop: list[tuple[int, ...]]) -> list[tuple]:
        keys = []
        for taus in pop:
            key = cache.get(taus)
            if key is None:
                key = cache[taus] = (fitness(taus), len(taus), taus)
            keys.append(key)
        keys.sort()
        return keys

    include_prob = min(1.0, 3.0 / n)
    population = [()] + _repair(_bit_matrix(initial, length), n, min_len, cap)
    population = population[:pop_size]
    rng = np.random.default_rng((params.seed, 0))
    fresh = rng.random((pop_size, length)) < include_prob
    population += _repair(fresh[len(population):], n, min_len, cap)

    elite_count = max(1, round(params.elite_fraction * pop_size))
    child_count = pop_size - elite_count
    flip_prob = params.mutation_rate / length
    current = ranked(population)
    best_key = current[0]
    history = [best_key[0]]
    stagnation = 0
    generations = 0

    for gen in range(1, params.max_generations + 1):
        # Every array is drawn every generation, in this order, so each
        # slot's values sit at fixed positions of the stream.
        rng = np.random.default_rng((params.seed, gen))
        picks = rng.integers(0, pop_size, (child_count, 6))
        crossed = rng.random(child_count) < params.crossover_prob
        from_second = rng.random((child_count, length)) < 0.5
        flips = rng.random((child_count, length)) < flip_prob

        # Rows are ranks, so a tournament's winner is its smallest pick.
        parents = _bit_matrix([key[2] for key in current], length)
        first = parents[picks[:, :3].min(axis=1)]
        second = parents[picks[:, 3:].min(axis=1)]
        bits = np.where(crossed[:, None] & from_second, second, first) ^ flips
        population = [key[2] for key in current[:elite_count]]
        population += _repair(bits, n, min_len, cap)
        current = ranked(population)
        generations = gen
        gen_key = current[0]
        if gen_key[0] < best_key[0]:
            stagnation = 0
        else:
            stagnation += 1
        if gen_key < best_key:
            best_key = gen_key
        history.append(best_key[0])
        if stagnation >= params.stagnation_limit:
            break

    if best_key[0] == _INF:
        raise DegenerateFitError("every configuration encountered fits the data exactly")
    return GARun(best_key[2], best_key[0], tuple(history), generations, len(cache))


def ga_optimize(
    series: TimeSeries,
    model: ModelSpec,
    params: GAParams = GAParams(),
    *,
    max_m: int | None = None,
    initial: Sequence[ChangepointConfiguration] = (),
) -> SearchReport:
    """Minimize the penalized score over configurations with a GA.

    Individuals are inclusion bitvectors over candidate boundaries
    ``1..N-1``; infeasible children are repaired, never rejected.  Each
    generation keeps the elite unchanged and fills the rest with
    tournament-selected, uniformly crossed, mutated children.  The
    search stops after ``stagnation_limit`` generations without a
    strict improvement of the best score, or at ``max_generations``.

    ``initial`` seeds known-good configurations into the starting
    population (alongside the always-included empty configuration).

    Raises
    ------
    InfeasibleModelError
        If ``N < 2 * min_segment_length(model)``, i.e. no single
        changepoint is feasible and there is nothing to search.
    DegenerateFitError
        If every configuration encountered fits the data exactly.
    RefitMismatchError
        If the winner's reference refit disagrees with its search score.
    """
    n = series.n
    for config in initial:
        config._check_n(n)
    run = ga_minimize(
        _model_fitness(series, model), n, min_segment_length(model), params,
        max_m=max_m, initial=[config.taus for config in initial],
    )
    best = _refit(series, model, run.taus, run.score)
    # The final best entries are the winner's fast score; report its refit
    # there, without letting an earlier entry fall below it.
    history = tuple(
        best.score if score == run.score else max(score, best.score)
        for score in run.score_history
    )
    return SearchReport(
        best=best,
        score_history=history,
        generations_run=run.generations_run,
        evaluations_count=run.evaluations_count,
        seed=params.seed,
    )

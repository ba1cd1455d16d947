"""Changepoint search: an exact DP for trend-shift+wn, exhaustive
enumeration for tiny series, and a GA for the other families.

:func:`solve` is the search a command runs: :func:`exact_optimize` for
trend-shift+wn and :func:`ga_optimize` otherwise.  Searches score
configurations in batches with an O(m) fast score, for the families
here the one :mod:`cetseg.fastscore` builds per search from prefix sums:
the GA one batch per generation (the configurations it has not scored
yet), exhaustive enumeration fixed-size chunks, the DP the winners of
each pass.  No score rule is written here: :mod:`cetseg.penalties` owns
the penalties and :mod:`cetseg.fastscore` the fast scores, and the DP
reads its penalty parts and its per-regime RSS table from them.  One
rule, shared with joinpin through :func:`ga_search`, trusts those
scores: a configuration the fast score leaves undecided
(NaN) is scored by the reference fit, here :func:`evaluate`, and the
winner's reference refit is the reported result, which must match its
search score within ``REFIT_RTOL``.  A configuration's score does not
depend on the batch it is scored in.  The cache holds one sort key per
configuration, not a fit.

The genetic algorithm is deterministic for a given seed.  Each
generation draws from one stream keyed by ``(seed, generation)``, as
whole arrays in a fixed order with one row per slot, so the values an
individual consumes sit at fixed positions: they never depend on what
another individual drew, and results are independent of evaluation
order.  A generation's draws depend only on ``(seed, generation)`` and
on the key ``(seed, population size, child count, N - 1, crossover
probability, per-position flip probability)``, never on the fitness
or the population, so searches that share the key draw the same
arrays.  Inside a :func:`shared_draws` scope they are drawn once, kept
compactly up to a size limit, and replayed to every later search with
that key; outside any scope each search draws its own and keeps
nothing.  Replaying a kept generation costs about 2% of drawing it.

Ties are broken identically everywhere: lower score, then fewer
changepoints, then lexicographically smaller boundary indices.
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
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
from .estimation import LOG_2PI
from .fastscore import by_length, score_function, trend_rss_table
from .penalties import penalty_parts, penalty_value

__all__ = [
    "min_segment_length",
    "evaluate",
    "GAParams",
    "SearchReport",
    "GARun",
    "RefitMismatchError",
    "UncertifiedError",
    "exhaustive_optimize",
    "exact_optimize",
    "ga_minimize",
    "ga_optimize",
    "ga_search",
    "solve",
    "shared_draws",
    "EXHAUSTIVE_MAX_N",
    "REFIT_RTOL",
]

# Enumeration over all subsets of boundary positions is exponential in
# N; keep the exact path as a small-N oracle only.
EXHAUSTIVE_MAX_N = 25

# Configurations scored per fitness call by exhaustive enumeration.
_CHUNK = 256

# Largest relative gap allowed between the score a search ranked its
# winner by and the winner's reference refit.
REFIT_RTOL = 1e-9


class RefitMismatchError(CetsegError):
    """Raised when a search winner's reference refit disagrees with the
    score the search ranked it by."""


def min_segment_length(model: ModelSpec) -> int:
    """Shortest regime ``model`` can estimate its parameters on."""
    if model.family.min_len is None:
        raise DomainError(f"no segment constraint defined for {model.label()}")
    return model.family.min_len


def evaluate(series: TimeSeries, model: ModelSpec, config: ChangepointConfiguration) -> FitResult:
    """Fit ``model`` at ``config`` and return the penalized result.

    The configuration is validated against the model's minimum segment
    length and never silently repaired.  For variance-shift models the
    series values are treated as an already-detrended residual series.

    Raises
    ------
    DomainError
        If the configuration violates the model's segment constraints,
        and for the families that carry their own scoring rule.
    DegenerateFitError
        If the fit leaves zero innovation variance.
    """
    n = series.n
    config.validate_for(n, min_segment_length(model))
    ms = model.mean_structure
    pen = penalty_value(model, n, config)

    if ms is MeanStructure.VARIANCE_SHIFT:
        variances, n2ll = estimation.fit_variance_shift(series.values, config)
        return FitResult(model, config, n2ll, pen, regime_variances=variances)

    if ms is MeanStructure.MEAN_SHIFT:
        means = estimation.fit_mean_shift(series, config)
        slopes = None
    elif ms is MeanStructure.TREND_SHIFT:
        means, slopes = estimation.fit_trend_shift(series, config)
    else:  # fixed-slope: joinpin and long-memory have raised above
        means, beta = estimation.fit_fixed_slope(series, config)
        slopes = (beta,) * (config.m + 1)

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

    ``best`` is the reference refit of the winning configuration; the
    search itself ranked configurations by their fast scores, which the
    refit matches within ``REFIT_RTOL``.  ``score_history`` holds the
    best score seen up to and including each generation (a single entry
    for exact enumeration), so it is non-increasing; entries are fast
    scores, except that the final best score is replaced by its refit,
    so ``score_history[-1] == best.score``.  ``evaluations_count``
    counts distinct configurations scored; the search caches one score
    per configuration.
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


# A batch of distinct boundary tuples -> one score each (NaN: undecided).
Fitness = Callable[[list[tuple[int, ...]]], Sequence[float]]
# One feasible boundary tuple -> its reference fit.
Reference = Callable[[tuple[int, ...]], FitResult]


def _fallback(fast: Fitness, reference: Reference) -> Fitness:
    """``fast``'s scores of a batch, each NaN replaced by its tuple's
    ``reference`` score, or +inf where that fit is degenerate.  Every
    score is the one its tuple gets alone, whatever else is in the batch."""

    def fitness(configs: list[tuple[int, ...]]) -> list[float]:
        scores = fast(configs)
        for i in np.flatnonzero(np.isnan(scores)).tolist():
            try:
                scores[i] = reference(configs[i]).score
            except DegenerateFitError:
                scores[i] = math.inf
        return scores.tolist()

    return fitness


def _refit(reference: Reference, taus: tuple[int, ...], score: float) -> FitResult:
    """The ``reference`` fit of a search winner, checked against its search score."""
    if score == math.inf:
        raise DegenerateFitError("every configuration encountered fits the data exactly")
    best = reference(taus)
    if not math.isclose(best.score, score, rel_tol=REFIT_RTOL, abs_tol=REFIT_RTOL):
        raise RefitMismatchError(f"{best.model.label()} at {taus}: search score "
                                 f"{score!r}, reference refit {best.score!r}")
    return best


def _reference(series: TimeSeries, model: ModelSpec) -> Reference:
    return lambda taus: evaluate(series, model, ChangepointConfiguration(taus))


def _report(reference: Reference, taus: tuple[int, ...], score: float, evaluations: int,
            history: Sequence[float] = (), generations: int = 0,
            seed: int | None = None) -> SearchReport:
    """The report of a search whose winner ``taus`` scored ``score``: the
    winner's ``reference`` refit, and the best score after each generation
    (``score`` alone for a search without generations), with the winner's
    fast score replaced by its refit and no earlier entry below that."""
    best = _refit(reference, taus, score)
    history = tuple(best.score if entry == score else max(entry, best.score)
                    for entry in history or (score,))
    return SearchReport(best, history, generations, evaluations, seed)


def _changepoint_cap(n: int, min_len: int, max_m: int | None) -> int:
    """``max_m``, or ``n - 1`` where it is None.  Raises
    :class:`InfeasibleModelError` if ``n < 2 * min_len``, so that no
    changepoint fits, and :class:`DomainError` if ``max_m < 0``."""
    if n < 2 * min_len:
        raise InfeasibleModelError(
            f"series of length {n} is too short to search (need >= {2 * min_len})"
        )
    cap = n - 1 if max_m is None else max_m
    if cap < 0:
        raise DomainError("max_m must be >= 0")
    return cap


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
    max_m = n - 1 if max_m is None else max_m
    if max_m < 0:
        raise DomainError("max_m must be >= 0")
    reference = _reference(series, model)
    fitness = _fallback(score_function(series, model), reference)
    keys = []  # the least per chunk
    evaluations = 0
    configs = _enumerate_configs(n, min_len, max_m)
    while chunk := list(islice(configs, _CHUNK)):
        evaluations += len(chunk)
        keys.append(min(zip(fitness(chunk), map(len, chunk), chunk)))
    score, _, taus = min(keys)
    return _report(reference, taus, score, evaluations)


def _least_penalized(rss: np.ndarray, min_len: int, betas: np.ndarray) -> np.ndarray:
    """For each ``beta``, the least ``RSS + beta m`` over all configurations
    (optimal partitioning, Jackson et al. 2005)."""
    n = rss.shape[0] - 1
    best = np.full((betas.size, n + 1), math.inf)
    best[:, 0] = -betas  # the first regime closes no changepoint
    for e in range(min_len, n + 1):
        best[:, e] = np.min(best[:, :e - min_len + 1] + rss[e, :e - min_len + 1], axis=1)
        best[:, e] += betas
    return best[:, n]


class _Partitions:
    """Segment-neighbourhood DP (Auger and Lawrence 1989) over ``R + mu A``,
    where ``A = per_regime sum_k log len_k + per_boundary sum_{i>=2} log
    tau_i`` is the part of the penalty that is additive over regimes
    (:func:`~cetseg.penalties.penalty_parts`)."""

    def __init__(self, rss: np.ndarray, per_regime: float, per_boundary: float, min_len: int):
        self.rss, self.min_len = rss, min_len
        self.per_regime, self.per_boundary = per_regime, per_boundary
        n = rss.shape[0] - 1
        self.log = np.log(np.maximum(np.arange(n + 1), 1))
        self.len_term = by_length(per_regime * np.log(np.maximum(np.arange(-n, n + 1.0), 1.0)))
        self.block = np.empty_like(rss)
        self.cost = None  # made at the first mu > 0

    def _cost(self, mu: float) -> np.ndarray:
        """The table ``R + mu per_regime log len``, in one buffer for every ``mu > 0``."""
        if mu == 0.0:
            return self.rss
        if self.cost is None:
            self.cost = np.empty_like(self.rss)
        np.multiply(self.len_term, mu, out=self.cost)
        self.cost += self.rss
        return self.cost

    def layers(self, mu: float, depth: int) -> Iterator[tuple[np.ndarray, np.ndarray | None]]:
        """The DP's layers at ``mu`` for ``j = 0..depth`` changepoints, in
        order: each ``(least, back)``, where ``least[e]`` is the least total
        over configurations of ``1..e`` with ``j`` changepoints and
        ``back[e]`` the last boundary of one attaining it."""
        rss, min_len = self.rss, self.min_len
        n = rss.shape[0] - 1
        cost = self._cost(mu)
        start = self.per_boundary * mu * self.log
        least = cost[:, 0].copy()
        yield least, None
        for j in range(1, depth + 1):
            # Ends from lo, last boundaries s in [first, n - min_len].
            first = min_len * j
            lo = first + min_len
            prev = least[first:n - min_len + 1]
            if j >= 2:
                prev = prev + start[first:n - min_len + 1]
            block = np.add(prev, cost[lo:, first:n - min_len + 1],
                           out=self.block[:n + 1 - lo, :prev.size])
            arg = block.argmin(axis=1)
            least = np.full(n + 1, math.inf)
            least[lo:] = block[np.arange(arg.size), arg]
            back = np.zeros(n + 1, np.intp)
            back[lo:] = arg + first
            yield least, back

    def taus(self, layers: list, m: int) -> tuple[int, ...]:
        """The configuration of ``1..N`` with ``m`` changepoints that
        ``layers`` hold."""
        e = self.rss.shape[0] - 1
        taus = []
        for _, back in reversed(layers[1:m + 1]):
            e = int(back[e])
            taus.append(e)
        return tuple(reversed(taus))

    def totals(self, taus: tuple[int, ...]) -> tuple[float, float]:
        """``(R, A)`` of one configuration."""
        bounds = (0, *taus, self.rss.shape[0] - 1)
        segments = list(zip(bounds[1:], bounds))
        rss = math.fsum(self.rss[e, s] for e, s in segments)
        additive = self.per_regime * math.fsum(self.log[e - s] for e, s in segments)
        return rss, additive + self.per_boundary * math.fsum(self.log[tau] for tau in taus[1:])


class UncertifiedError(CetsegError):
    """Raised by :func:`exact_optimize` when it cannot certify an optimum:
    a configuration's residual sum of squares is at or below the fast
    scorers' trust floor (e.g. constant or exactly linear data), or the
    DP's rounding exceeds the certificate's margin."""


# The model exact_optimize solves, as (mean structure, errors).
_EXACT = (MeanStructure.TREND_SHIFT, ErrorModel.WHITE_NOISE)

# Relative margin within which a lower bound counts as reaching the best
# score found.  At residual sums of squares above the trust floor, the
# DP's rounding is about 1e-10 of a score or less.
_EXACT_MARGIN = 1e-9


def exact_optimize(
    series: TimeSeries, model: ModelSpec, max_m: int | None = None
) -> SearchReport:
    """Exact minimum of the trend-shift+wn score over configurations with
    at most ``max_m`` changepoints.

    The score is ``N log RSS`` plus a penalty, whose parts
    (:func:`~cetseg.penalties.penalty_parts`) are a term in ``m`` and
    ``A``, a sum over regimes and boundaries.  The RSS is a sum of
    per-regime least squares (:func:`~cetseg.fastscore.trend_rss_table`),
    so segment-neighbourhood DP over them gives the least RSS for each
    changepoint count ``m``.  Where ``A`` is 0 (BIC), that is the answer
    for ``m``.  Counts stop where a lower bound on the scores of all
    larger counts reaches the best score found: a bound on the least RSS
    at each count, from optimal partitioning with a grid of penalties per
    changepoint (the Lagrangian dual), plus a floor on the penalty.
    Otherwise (MDL), for each ``m`` the RSS that can still beat
    the best score lies in an interval, from the least RSS at ``m`` to
    the largest the best score allows.  On it the chord of ``N log RSS``
    bounds the score below by ``c + N slope (R + A / (N slope))``, which
    one DP over ``R + mu A`` minimizes for every ``m`` at once; a DP at
    a smaller ``mu`` bounds ``A`` by its least value at ``m``.  Each
    round runs one DP, at the least ``mu`` any interval asks for.  An
    interval whose bound is within a relative ``1e-9`` of the best score
    is dropped; that round's winner splits the interval that set ``mu``
    in two, as CROPS does (Haynes, Eckley and Fearnhead 2017).  Every DP
    winner is rescored by the batch scorer; ties go to fewer
    changepoints, then smaller boundaries, and the winner's reference
    refit is ``best``.

    Raises
    ------
    DomainError
        For a model other than trend-shift+wn, or if ``max_m < 0``.
    InfeasibleModelError
        If ``N < 2 * min_segment_length(model)``, as :func:`ga_optimize`.
    UncertifiedError
        If a lower bound on the least RSS over configurations with at most
        ``max_m`` changepoints is at or below the fast scorers' trust
        floor; :func:`ga_optimize` searches such series.
    RefitMismatchError
        If the winner's reference refit disagrees with its search score.
    """
    if (model.mean_structure, model.error_model) != _EXACT:
        raise DomainError(f"no exact search for {model.label()}")
    n = series.n
    min_len = min_segment_length(model)
    top = min(_changepoint_cap(n, min_len, max_m), n // min_len - 1)
    rss, floor = trend_rss_table(series.values, min_len)
    # At every m, RSS >= least(RSS + beta m') - beta m for each beta of a
    # grid (beta = 0 gives the least RSS of all).  The bound falls in m, so
    # its value at top bounds the RSS at every count the search may return.
    betas = rss[n, 0] * np.concatenate(([0.0], 0.5 ** np.arange(1, 17)))
    m = np.arange(top + 1)
    least_rss = np.max(_least_penalized(rss, min_len, betas)[:, None] - np.outer(betas, m),
                       axis=0)
    if not least_rss[top] > floor:
        raise UncertifiedError(f"{model.label()}: a configuration may fit to within the "
                               "fast scorers' trust floor")

    reference = _reference(series, model)
    fitness = _fallback(score_function(series, model), reference)
    scored: dict[tuple[int, ...], float] = {}

    def consider(configs) -> float:
        """Score the configurations not scored yet; the best score so far."""
        fresh = list(dict.fromkeys(taus for taus in configs if taus not in scored))
        if fresh:
            scored.update(zip(fresh, fitness(fresh)))
        return min(scored.values())

    # The score is base + N log RSS + by_count[m] + A.
    base = n * (1.0 + LOG_2PI - math.log(n))
    by_count, per_regime, per_boundary = penalty_parts(model, n)
    # The least A at m: m regimes of min_len and one of the rest, with
    # tau_i = min_len i.
    least_a = per_regime * (m * math.log(min_len) + np.log(n - min_len * m))
    later = np.where(m >= 2, math.log(min_len) + np.log(np.maximum(m, 1)), 0.0)
    least_a += per_boundary * np.cumsum(later)
    # A lower bound on every score at m or more changepoints, rising in m.
    rising = base + n * np.log(least_rss)
    rising += by_count[:top + 1] + least_a
    rising = np.minimum.accumulate(rising[::-1])[::-1]

    def margin(score: float) -> float:
        return _EXACT_MARGIN * max(abs(score), n)

    # The least RSS at each m (mu = 0), up to where the rising bound
    # reaches the best of their scores.
    partitions = _Partitions(rss, per_regime, per_boundary, min_len)
    layers = []
    winners = []
    incumbent = math.inf
    for j, layer in enumerate(partitions.layers(0.0, top)):
        layers.append(layer)
        winners.append(partitions.taus(layers, j))
        incumbent = min(incumbent, base + n * math.log(layer[0][n]) + by_count[j]
                        + partitions.totals(winners[j])[1])
        if j == top or rising[j + 1] >= incumbent - margin(incumbent):
            break
    incumbent = consider(winners)

    # (m, low, high) intervals of RSS that may still beat the best; where
    # A is 0 (BIC), the least RSS at m is that count's answer.
    intervals = [(j, float(layers[j][0][n]), math.inf) for j in range(1, len(layers))
                 if per_regime or per_boundary]
    while intervals:
        chords = []
        for j, a, b in intervals:
            log_b = (incumbent - base - by_count[j] - least_a[j]) / n
            b = min(b, math.exp(log_b) if log_b < 709.0 else sys.float_info.max)
            if b >= a:
                slope = math.log1p((b - a) / a) / (b - a) if b > a else 1.0 / a
                chords.append((1.0 / (n * slope), j, a, b))
        if not chords:
            break
        chords.sort()
        mu = chords[0][0]
        layers = list(partitions.layers(mu, max(j for _, j, _, _ in chords)))
        found = {j: partitions.taus(layers, j) for _, j, _, _ in chords}
        fresh = {j for j, taus in found.items() if taus not in scored}
        incumbent = consider(found.values())
        intervals = []
        for i, (mu_j, j, a, b) in enumerate(chords):
            # R + mu_j A >= (R + mu A) + (mu_j - mu) min A, for mu <= mu_j.
            value = float(layers[j][0][n]) + (mu_j - mu) * least_a[j]
            if base + n * math.log(a) + by_count[j] + (value - a) / mu_j \
                    >= incumbent - margin(incumbent):
                continue
            if i:
                intervals.append((j, a, b))
                continue
            split = partitions.totals(found[j])[0]
            if a < split < b:
                intervals += [(j, a, split), (j, split, b)]
            elif j in fresh:
                intervals.append((j, a, b))
            else:
                raise UncertifiedError(f"{model.label()}: rounding exceeds the "
                                       "certificate's margin")

    score, _, taus = min((score, len(taus), taus) for taus, score in scored.items())
    return _report(reference, taus, score, len(scored))


def _bit_matrix(configs: Sequence[tuple[int, ...]], length: int) -> np.ndarray:
    """Inclusion bitvectors of ``configs`` over boundaries ``1..length``, one row each."""
    bits = np.zeros((len(configs), length), dtype=bool)
    counts = np.fromiter(map(len, configs), np.intp, len(configs))
    taus = np.fromiter(chain.from_iterable(configs), np.intp, int(counts.sum()))
    bits[np.repeat(np.arange(len(configs)), counts), taus - 1] = True
    return bits


def _repair(bits: np.ndarray, n: int, min_len: int, max_m: int) -> list[tuple[int, ...]]:
    """Greedily drop boundaries until each row's configuration is feasible.

    Scans each row of the bitvector matrix left to right keeping a
    boundary only if the regime it closes is long enough (earlier
    boundaries win), truncates to ``max_m``, then drops trailing
    boundaries that would leave a short final regime.
    """
    rows, cols = np.divmod(np.flatnonzero(bits), bits.shape[1])
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


# Generations >= 1 of each draw key's draws, kept by the open
# shared_draws() scope (list index = generation - 1); None outside any
# scope.
_SHARED: ContextVar[dict | None] = ContextVar("cetseg_shared_draws", default=None)

# Bytes of packed crossover masks a scope keeps per draw key (about 85%
# of what it keeps); later generations are drawn by every search that
# reaches them.  At N=362 and the default population that is 959
# generations, nearly the 1,000 that a default-budget search runs at
# least, and about 9 MB in all.
_SHARED_BYTES = 8 * 2**20


@contextmanager
def shared_draws() -> Iterator[None]:
    """Let the GA searches run inside this scope share their draws.

    Each generation's random arrays are drawn once per draw key (see
    :func:`ga_minimize`) and replayed to every later search with the
    same key, so the searches' results are exactly those they give
    alone.  A scope starts with an empty memo and drops it on exit.
    """
    token = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(token)


def _draw(params: GAParams, n: int, child_count: int, gen: int):
    """Generation ``gen``'s (>= 1) random arrays, drawn from
    ``default_rng((seed, gen))``: the ranks of each child's two
    tournament winners ``(C,)``, the mask of bits a child takes from its
    second parent ``(C, n-1)`` and the mutation flip mask ``(C, n-1)``.
    """
    # Every array is drawn every generation, in this order, so each
    # slot's values sit at fixed positions of the stream.
    length = n - 1
    rng = np.random.default_rng((params.seed, gen))
    picks = rng.integers(0, params.population_size, (child_count, 6))
    crossed = rng.random(child_count) < params.crossover_prob
    from_second = rng.random((child_count, length)) < 0.5
    flips = rng.random((child_count, length)) < params.mutation_rate / length
    # Rows are ranks, so a tournament's winner is its smallest pick.
    return (picks[:, :3].min(axis=1), picks[:, 3:].min(axis=1),
            crossed[:, None] & from_second, flips)


def _pack(drawn, population_size: int):
    """``drawn`` kept compactly: ranks in the smallest integer type, the
    take mask as bits, the sparse flips as flat indices."""
    first, second, take, flips = drawn
    rank_type = np.min_scalar_type(population_size - 1)
    flat_flips = np.flatnonzero(flips).astype(np.min_scalar_type(flips.size - 1))
    return (first.astype(rank_type), second.astype(rank_type),
            np.packbits(take, axis=1), flat_flips)


def _unpack(kept, length: int):
    """The arrays :func:`_pack` kept, as :func:`_draw` gave them."""
    first, second, take, flat_flips = kept
    flips = np.zeros((len(first), length), dtype=bool)
    flips.reshape(-1)[flat_flips] = True
    return first, second, np.unpackbits(take, axis=1, count=length).view(bool), flips


def _draws(params: GAParams, n: int, child_count: int) -> Callable[[int], tuple]:
    """A search's source of :func:`_draw`'s arrays by generation, replayed
    from the :func:`shared_draws` memo inside a scope."""
    memo = _SHARED.get()
    if memo is None:
        return partial(_draw, params, n, child_count)
    length = n - 1
    key = (params.seed, params.population_size, child_count, length,
           params.crossover_prob, params.mutation_rate / length)
    kept = memo.setdefault(key, [])
    limit = _SHARED_BYTES // (child_count * ((length + 7) // 8))

    def replay(gen: int) -> tuple:
        if gen <= len(kept):
            return _unpack(kept[gen - 1], length)
        drawn = _draw(params, n, child_count, gen)
        # Generations are asked for in order, so below the limit a new
        # one is the next to keep.
        if len(kept) < limit:
            kept.append(_pack(drawn, params.population_size))
        return drawn

    return replay


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

    ``fitness`` maps a list of distinct boundary tuples, whose regimes
    all span at least ``min_len`` indices, to their scores (+inf where
    one cannot be scored).  A tuple's score must not depend on the rest
    of the list.  Each generation's tuples not yet scored are collected
    in first-seen order and scored by one call; each distinct tuple is
    scored once, and only its sort key ``(score, m, taus)`` is kept.
    Individuals are inclusion bitvectors over candidate boundaries
    ``1..n-1``; infeasible children are repaired, never rejected.  See
    :func:`ga_optimize` for the generation scheme and the stopping rule.

    Each generation's draws come from one stream keyed by
    ``(params.seed, generation)``, generation 0 building the initial
    population.  A generation of C children draws, in this order,
    tournament picks ``(C, 6)``, crossover uniforms ``(C,)``, a
    crossover mask ``(C, n-1)`` and mutation flips ``(C, n-1)``, with
    row i belonging to child i; see the module docstring for the draw
    key that :func:`shared_draws` replays by.

    Raises
    ------
    InfeasibleModelError
        If ``n < 2 * min_len``, i.e. no single changepoint is feasible.
    DomainError
        If ``max_m < 0``, or an ``initial`` tuple is not a configuration
        of a length-``n`` series.
    DegenerateFitError
        If every configuration encountered scores +inf.
    """
    cap = _changepoint_cap(n, min_len, max_m)
    length = n - 1
    for taus in initial:
        ChangepointConfiguration(taus)._check_n(n)
    pop_size = params.population_size
    cache: dict[tuple[int, ...], tuple] = {}

    def ranked(pop: list[tuple[int, ...]]) -> list[tuple]:
        missing = [taus for taus in dict.fromkeys(pop) if taus not in cache]
        if missing:
            for taus, score in zip(missing, fitness(missing)):
                cache[taus] = (score, len(taus), taus)
        keys = [cache[taus] for taus in pop]
        keys.sort()
        return keys

    elite_count = max(1, round(params.elite_fraction * pop_size))
    child_count = pop_size - elite_count
    draws = _draws(params, n, child_count)
    include_prob = min(1.0, 3.0 / n)
    population = [()] + _repair(_bit_matrix(initial, length), n, min_len, cap)
    population = population[:pop_size]
    rng = np.random.default_rng((params.seed, 0))
    fresh = rng.random((pop_size, length)) < include_prob
    population += _repair(fresh[len(population):], n, min_len, cap)
    current = ranked(population)
    best_key = current[0]
    history = [best_key[0]]
    stagnation = 0
    generations = 0

    for gen in range(1, params.max_generations + 1):
        first_rank, second_rank, take, flips = draws(gen)
        parents = _bit_matrix([key[2] for key in current], length)
        first = parents[first_rank]
        second = parents[second_rank]
        # Uniform crossover as bit operations: the second parent's bit where
        # a crossed child takes it, the first parent's elsewhere.
        bits = first ^ ((first ^ second) & take) ^ flips
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

    if best_key[0] == math.inf:
        raise DegenerateFitError("every configuration encountered fits the data exactly")
    return GARun(best_key[2], best_key[0], tuple(history), generations, len(cache))


def ga_search(
    fast: Fitness, reference: Reference, n: int, min_len: int, params: GAParams = GAParams(),
    *, max_m: int | None = None, initial: Sequence[tuple[int, ...]] = (),
) -> SearchReport:
    """:func:`ga_minimize` over ``fast``'s batch scores, each NaN replaced
    by the score of ``reference``, the tuple's reference fit (+inf where
    it raises :class:`DegenerateFitError`).  The winner's ``reference``
    refit is the report's ``best``.  Raises what :func:`ga_minimize`
    raises, and :class:`RefitMismatchError` if the refit disagrees with
    the winner's search score by more than ``REFIT_RTOL``.
    """
    run = ga_minimize(
        _fallback(fast, reference), n, min_len, params, max_m=max_m, initial=initial
    )
    return _report(reference, run.taus, run.score, run.evaluations_count,
                   run.score_history, run.generations_run, params.seed)


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
    The search is :func:`ga_search` with :func:`evaluate` as reference.

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
    return ga_search(
        score_function(series, model), _reference(series, model), series.n,
        min_segment_length(model), params,
        max_m=max_m, initial=[config.taus for config in initial],
    )


def solve(
    series: TimeSeries,
    model: ModelSpec,
    params: GAParams = GAParams(),
    *,
    max_m: int | None = None,
) -> SearchReport:
    """The changepoint search for ``model``: :func:`exact_optimize` for
    trend-shift+wn, unless it raises :class:`UncertifiedError`, and
    :func:`ga_optimize` with ``params`` otherwise.  Both are looked up in
    this module when called."""
    if (model.mean_structure, model.error_model) == _EXACT:
        try:
            return exact_optimize(series, model, max_m)
        except UncertifiedError:
            pass
    return ga_optimize(series, model, params, max_m=max_m)

"""Changepoint search: an exact DP for trend-shift+wn, exhaustive
enumeration for tiny series, and a GA for the other families.

:func:`solve` is the search a command runs: :func:`exact_optimize` for
trend-shift+wn and :func:`ga_optimize` otherwise.  Searches score
configurations in batches with an O(m) fast score, for the families
here the one :mod:`cetseg.fastscore` builds per search: from per-regime
tables for mean shifts and trend shifts, from prefix sums for fixed
slopes and variance shifts.  The tables
(:func:`~cetseg.fastscore.regime_tables`) share one ``(N+1, N+1)``
layout, entry ``[e, s]`` for the regime ``s+1..e``, which the DP's
kernels read too; the exact search builds its RSS table once and hands
it to its scorer.  Exhaustive enumeration, and the GA up to N = 15,
score the whole feasible space in batches of at most 1,024; the GA
above scores one batch per generation (the configurations it has not
scored yet), the DP the winners of each pass, which a Lagrangian bound
per changepoint count stops near the answer under BIC and MDL alike.
No score rule is written here:
:mod:`cetseg.penalties` owns the penalties and :mod:`cetseg.fastscore`
the fast scores, and the DP reads its penalty parts and its per-regime
RSS table from them.  One rule, shared with joinpin through
:func:`ga_search`, trusts those scores: a configuration the fast score
leaves undecided (NaN) is scored by the reference fit, here
:func:`evaluate`, and the winner's reference refit is the reported
result, which must match its search score within ``REFIT_RTOL``.  A
configuration's score does not depend on the batch it is scored in.
Scorers take a :class:`~cetseg.core.Regimes` batch; a boundary tuple is
made only for a reference fit and for a winner.

The GA keeps each generation best first.  Up to N = 15 a generation is
a vector of integer codes, the inclusion bits read as an integer;
children are repaired by a table over all codes, and the memo is the
rank of every feasible configuration by code.  Above, a generation is a
bool matrix of inclusion bits, one row per individual; children are
repaired in place, and the memo keeps one sort key per configuration
scored, keyed by the bytes of each row's complemented bits, packed,
whose order at equal changepoint counts is that of boundary tuples.
The first generation is drawn at random, with the empty configuration
as its first individual.

The genetic algorithm is deterministic for a given seed.  Each
generation draws from one stream keyed by ``(seed, generation)``, as
whole arrays in a fixed order with one row per slot, so the values an
individual consumes sit at fixed positions: they never depend on what
another individual drew, and results are independent of evaluation
order.  A generation's draws depend only on ``(seed, generation)`` and
on the key ``(seed, population size, child count, N - 1, crossover
probability, per-position flip probability)``, never on the fitness
or the population, so searches that share the key draw the same
arrays.  Inside a :func:`shared_scope` they are drawn once, kept
compactly up to a size limit, and replayed to every later search with
that key; outside any scope each search draws its own and keeps
nothing.  Replaying a kept generation costs about 2% of drawing it.

Ties are broken identically everywhere: lower score, then fewer
changepoints, then lexicographically smaller boundary indices.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Sequence

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
    Regimes,
    TimeSeries,
)
from .estimation import LOG_2PI
from .fastscore import by_length, regime_tables, row_blocks, score_function
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
    "shared_scope",
    "EXHAUSTIVE_MAX_N",
    "REFIT_RTOL",
]

# Enumeration over all subsets of boundary positions is exponential in
# N; keep the exact path as a small-N oracle only.
EXHAUSTIVE_MAX_N = 25

# Most rows per matrix of _feasible_rows, so most configurations per call.
_ROWS = 1024

# Largest n - 1 at which the GA scores the whole feasible space up front.
_TABLE_LENGTH = 14

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
    counts the distinct configurations the search visited (a GA on a
    short series scores every feasible one but visits fewer).
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
    and the number of distinct configurations visited."""

    taus: tuple[int, ...]
    score: float
    score_history: tuple[float, ...]
    generations_run: int
    evaluations_count: int


# A batch of distinct configurations -> one score each (NaN: undecided).
Fitness = Callable[[Regimes], Sequence[float]]
# One feasible boundary tuple -> its reference fit.
Reference = Callable[[tuple[int, ...]], FitResult]


def _fallback(fast: Fitness, reference: Reference) -> Fitness:
    """``fast``'s scores of a batch, each NaN replaced by the ``reference``
    score of that row's boundary tuple, or +inf where that fit is
    degenerate; only those rows are made tuples.  Every score is the one
    its configuration gets alone, whatever else is in the batch."""

    def fitness(regimes: Regimes) -> list[float]:
        scores = fast(regimes)
        for i in np.flatnonzero(np.isnan(scores)).tolist():
            try:
                scores[i] = reference(regimes.taus(i)).score
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


def _feasible_rows(n: int, min_len: int, cap: int) -> Iterator[np.ndarray]:
    """Each configuration of ``1..n`` (``n >= min_len``) with at most ``cap``
    changepoints and regimes of ``min_len`` or more once, as bool rows over
    boundaries ``1..n-1`` in matrices of at most ``_ROWS`` rows.  A block's
    rows extend their last boundary ``last`` by each ``tau`` in ``[last +
    min_len, n - min_len]``, so the work grows with the feasible rows."""
    stack = [(np.zeros((1, n - 1), bool), np.zeros(1, np.intp), 0)]  # rows, last, m
    batch = []  # blocks yielded together, up to _ROWS rows
    while stack:
        rows, last, m = stack.pop()
        if sum(map(len, batch)) + len(rows) > _ROWS:
            yield np.concatenate(batch)
            batch = []
        batch.append(rows)
        if m == cap:
            continue
        counts = np.maximum(n - 2 * min_len + 1 - last, 0)  # children per row
        parent = np.repeat(np.arange(len(rows)), counts)
        # Each parent's children count tau up from last + min_len.
        tau = last[parent] + min_len + np.arange(parent.size)
        tau -= np.repeat(np.cumsum(counts) - counts, counts)
        kids = rows[parent]
        kids[np.arange(parent.size), tau - 1] = True
        stack.extend((kids[i:i + _ROWS], tau[i:i + _ROWS], m + 1)
                     for i in reversed(range(0, parent.size, _ROWS)))
    yield np.concatenate(batch)


def _scored(fitness: Fitness, rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``fitness``'s scores of the inclusion bit ``rows``, and their counts."""
    at, cols = np.divmod(np.flatnonzero(rows), rows.shape[1])  # nonzero is slower in 2-D
    m = np.bincount(at, minlength=len(rows))
    return np.asarray(fitness(Regimes.from_flat(m, cols + 1, n)), float), m


def _least(scores: np.ndarray, m: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Indices of ``rows`` by ``(score, m, taus)``: complemented bits read
    big-endian sort as :func:`_keys` keys, at equal ``m`` as tuples do."""
    return np.lexsort((~rows @ (1 << np.arange(rows.shape[1]))[::-1], m, scores))


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
    keys = []  # the least (score, m, taus) per matrix of rows
    evaluations = 0
    for rows in _feasible_rows(n, min_len, max_m):
        scores, m = _scored(fitness, rows, n)
        i = _least(scores, m, rows)[0]
        keys.append((float(scores[i]), int(m[i]), tuple((np.flatnonzero(rows[i]) + 1).tolist())))
        evaluations += len(rows)
    score, _, taus = min(keys)
    return _report(reference, taus, score, evaluations)


def _least_penalized(rss: np.ndarray, min_len: int, betas: np.ndarray) -> np.ndarray:
    """For each ``beta``, the least ``RSS + beta m`` over all configurations
    (optimal partitioning, Jackson et al. 2005).

    ``rss[e, s]`` must be +inf where ``e - s < min_len``.  The ends are
    taken ``min_len`` at a time: for ends ``a..a+min_len-1`` every last
    boundary ``s <= e - min_len`` is below ``a``, so its value is final,
    and one add-and-min over the block's candidates gives each end the
    minimum a one-end pass gives it; a candidate beyond an end's own is
    inert, since its table entry is +inf."""
    n = rss.shape[0] - 1
    best = np.full((betas.size, n + 1), math.inf)
    best[:, 0] = -betas  # the first regime closes no changepoint
    for a in range(min_len, n + 1, min_len):
        b = min(a + min_len, n + 1)
        last = b - min_len  # last boundaries 0..last-1, all below a
        best[:, a:b] = np.min(best[:, None, :last] + rss[a:b, :last], axis=2)
        best[:, a:b] += betas[:, None]
    return best[:, n]


class _Partitions:
    """Segment-neighbourhood DP (Auger and Lawrence 1989) over ``R + mu A``,
    where ``A = per_regime sum_k log len_k + per_boundary sum_{i>=2} log
    tau_i`` is the part of the penalty that is additive over regimes
    (:func:`~cetseg.penalties.penalty_parts`).

    The table is +inf where ``e - s < min_len``, so each layer reads it in
    :func:`~cetseg.fastscore.row_blocks`: a run of ends reads only the
    last boundaries its last end can use.  The columns it drops are +inf
    in every row of the run, so each end's minimum and its first
    attaining boundary, ``least`` and ``back``, are those of the full
    rectangle."""

    def __init__(self, rss: np.ndarray, per_regime: float, per_boundary: float, min_len: int):
        self.rss, self.min_len = rss, min_len
        self.per_regime, self.per_boundary = per_regime, per_boundary
        n = rss.shape[0] - 1
        self.log = np.log(np.maximum(np.arange(n + 1), 1))
        self.len_term = by_length(per_regime * np.log(np.maximum(np.arange(-n, n + 1.0), 1.0)))
        self.block = np.empty_like(rss)
        self.cost = None  # made at the first mu > 0

    def _cost(self, mu: float) -> np.ndarray:
        """The table ``R + mu per_regime log len``, in one buffer for every
        ``mu > 0``; only its lower part changes with ``mu``."""
        if mu == 0.0:
            return self.rss
        if self.cost is None:
            self.cost = np.full_like(self.rss, math.inf)
        for a, b in row_blocks(self.min_len, self.rss.shape[0]):
            part = np.multiply(self.len_term[a:b, :b - self.min_len], mu,
                               out=self.cost[a:b, :b - self.min_len])
            part += self.rss[a:b, :b - self.min_len]
        return self.cost

    def lagrangian(self, mu: float, betas: np.ndarray, depth: int) -> np.ndarray:
        """For ``j = 0..depth``, a lower bound on the least ``R + mu A`` at
        ``j`` changepoints (``mu > 0``): the largest ``OP(beta) - beta j``
        over ``betas``, for optimal partitioning over :meth:`_cost`'s
        buffer plus every boundary's ``mu per_boundary log tau``, less the
        most the first boundary, which ``A`` does not charge, can add."""
        n, min_len = self.rss.shape[0] - 1, self.min_len
        cost, charge = self._cost(mu), mu * self.per_boundary
        for a, b in row_blocks(min_len, n + 1):
            cost[a:b, :b - min_len] += charge * self.log[:b - min_len]
        dual = _least_penalized(cost, min_len, betas)[:, None] - np.outer(betas, range(depth + 1))
        return np.max(dual, axis=0) - charge * self.log[n - min_len]

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
            # Ends from lo, last boundaries s from first.
            first = min_len * j
            lo = first + min_len
            prev = least[first:n - min_len + 1]
            if j >= 2:
                prev = prev + start[first:n - min_len + 1]
            least = np.full(n + 1, math.inf)
            back = np.zeros(n + 1, np.intp)
            for a, b in row_blocks(lo, n + 1):
                # Ends a..b-1 read last boundaries first..b-1-min_len.
                block = np.add(prev[:b - lo], cost[a:b, first:b - min_len],
                               out=self.block[:b - a, :b - lo])
                arg = block.argmin(axis=1)
                least[a:b] = block[np.arange(b - a), arg]
                back[a:b] = arg + first
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

# Per-changepoint multipliers, in units of R[N, 0] / N, of the Lagrangian
# bound on R + mu A that caps the counts under MDL; the negative ones
# favour many changepoints, so they bound the larger counts.
_MDL_BETAS = np.array([0.0, -0.125, -0.25, -0.5, -1.0, 0.25])


def _chord_mu(n: int, low, high):
    """``1 / (N slope)`` of the chord of ``log`` over ``[low, high]``
    (its tangent where ``high == low``), element-wise."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(high > low, np.log1p((high - low) / low) / (high - low), 1.0 / low)
    return 1.0 / (n * slope)


def _score_bounds(n: int, offset, least_a, low, high, mu: float, dual) -> np.ndarray:
    """At each count, a lower bound on the score ``offset + N log R + A``
    where ``R`` lies in ``[low, high]`` (+inf if empty), ``A >= least_a``
    and ``R + mu A >= dual``.  There ``N log R >= N log low + (R - low)
    / mu'`` for each ``mu'`` at least the chord's, and ``R + mu' A >=
    dual + (mu' - mu) least_a`` for ``mu' >= mu``."""
    mus = np.maximum(_chord_mu(n, low, high), mu)
    bound = offset + n * np.log(low) + (dual + (mus - mu) * least_a - low) / mus
    return np.where(high >= low, bound, math.inf)


def exact_optimize(
    series: TimeSeries, model: ModelSpec, max_m: int | None = None
) -> SearchReport:
    """Exact minimum of the trend-shift+wn score over configurations with
    at most ``max_m`` changepoints.

    The score is ``N log RSS`` plus a penalty, whose parts
    (:func:`~cetseg.penalties.penalty_parts`) are a term in ``m`` and
    ``A``, a sum over regimes and boundaries.  The RSS is a sum of
    per-regime least squares (:func:`~cetseg.fastscore.regime_tables`,
    built once and read by the batch scorer too), so
    segment-neighbourhood DP over them gives the least RSS for each
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
    in two, as CROPS does (Haynes, Eckley and Fearnhead 2017).  MDL's
    counts are capped as BIC's: once a least-RSS layer fails to improve
    the best score, the Lagrangian dual of ``R + mu A`` at the next
    count's chord ``mu`` bounds every count's score, which stops those
    layers and drops counts before the first round.  Every DP
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
    tables = regime_tables(series.values, min_len, True, False)
    [rss], floor = tables
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
    fitness = _fallback(score_function(series, model, tables), reference)
    scored: dict[tuple[int, ...], float] = {}

    def consider(configs) -> float:
        """Score the configurations not scored yet; the best score so far."""
        fresh = list(dict.fromkeys(taus for taus in configs if taus not in scored))
        if fresh:
            scored.update(zip(fresh, fitness(Regimes(fresh, n))))
        return min(scored.values())

    # The score is base + N log RSS + by_count[m] + A.
    base = n * (1.0 + LOG_2PI - math.log(n))
    by_count, per_regime, per_boundary = penalty_parts(model, n)
    # The least A at m: m regimes of min_len and one of the rest, with
    # tau_i = min_len i.
    least_a = per_regime * (m * math.log(min_len) + np.log(n - min_len * m))
    later = np.where(m >= 2, math.log(min_len) + np.log(np.maximum(m, 1)), 0.0)
    least_a += per_boundary * np.cumsum(later)
    offset = base + by_count[:top + 1]
    # A lower bound on each count's score, and on every score at m or more
    # changepoints, rising in m.
    floor_score = base + n * np.log(least_rss) + by_count[:top + 1] + least_a
    rising = np.minimum.accumulate(floor_score[::-1])[::-1]

    def margin(score: float) -> float:
        return _EXACT_MARGIN * max(abs(score), n)

    def highest(incumbent: float) -> np.ndarray:
        """The largest RSS at each count whose score can beat ``incumbent``."""
        return np.exp(np.minimum((incumbent - offset - least_a) / n, 709.0))

    # The least RSS at each m (mu = 0), up to where the rising bound
    # reaches the best of their scores.
    partitions = _Partitions(rss, per_regime, per_boundary, min_len)
    layers = []
    winners = []
    incumbent = math.inf
    dual = None
    low = least_rss.copy()  # the least RSS at each m, where layers hold it
    for j, layer in enumerate(partitions.layers(0.0, top)):
        layers.append(layer)
        low[j] = layer[0][n]
        winners.append(partitions.taus(layers, j))
        score = base + n * math.log(low[j]) + by_count[j] + partitions.totals(winners[j])[1]
        stalled, incumbent = score >= incumbent, min(incumbent, score)
        if j == top:
            break
        if dual is None and stalled and (per_regime or per_boundary):
            priced = float(_chord_mu(n, low[j + 1], highest(incumbent)[j + 1]))
            dual = partitions.lagrangian(priced, _MDL_BETAS * (rss[n, 0] / n), top)
        if dual is not None:
            bound = _score_bounds(n, offset, least_a, low, highest(incumbent), priced, dual)
            rising = np.minimum.accumulate(np.maximum(floor_score, bound)[::-1])[::-1]
        if rising[j + 1] >= incumbent - margin(incumbent):
            break
    incumbent = consider(winners)

    # (m, low, high) intervals of RSS that may still beat the best; where
    # A is 0 (BIC), the least RSS at m is that count's answer.
    counts = np.arange(1, len(layers)) if per_regime or per_boundary else []
    if dual is not None:
        bound = _score_bounds(n, offset, least_a, low, highest(incumbent), priced, dual)
        counts = counts[bound[counts] < incumbent - margin(incumbent)]
    intervals = [(j, low[j], math.inf) for j in counts]
    while intervals:
        js, lows, highs = map(np.array, zip(*intervals))
        highs = np.minimum(highs, highest(incumbent)[js])
        mus = _chord_mu(n, lows, highs)
        order = np.lexsort((js, mus))  # by mu, then by m
        chords = order[highs[order] >= lows[order]]
        if not chords.size:
            break
        js, lows, highs, mu = js[chords], lows[chords], highs[chords], mus[chords[0]]
        layers = list(partitions.layers(mu, js.max()))
        found = {j: partitions.taus(layers, j) for j in js}
        fresh = {j for j, taus in found.items() if taus not in scored}
        incumbent = consider(found.values())
        bounds = _score_bounds(n, offset[js], least_a[js], lows, highs, mu,
                               np.array([layers[j][0][n] for j in js]))
        intervals = []
        for i, (j, a, b, bound) in enumerate(zip(js, lows, highs, bounds)):
            if bound >= incumbent - margin(incumbent):
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


def _repair(bits: np.ndarray, n: int, min_len: int, max_m: int) -> None:
    """Greedily drop boundaries, in place, until each row's configuration
    is feasible.

    A row's boundaries are scanned left to right, keeping one only if the
    regime it closes is long enough (earlier boundaries win) and fewer
    than ``max_m`` are kept; then trailing boundaries that would leave a
    short final regime are dropped, which are exactly the kept ones past
    ``n - min_len``.  A row none of whose set bits is flagged (closer
    than ``min_len`` to the previous set bit, past ``n - min_len``, or of
    rank ``max_m`` or more) keeps every bit that way, so only flagged rows
    are walked; where ``min_len`` is 1 and ``max_m`` at least the row
    length, no bit can be flagged.
    """
    length = bits.shape[1]
    if min_len == 1 and max_m >= length:
        return
    rows, cols = np.divmod(np.flatnonzero(bits), length)
    taus = cols + 1
    opens = np.ones(taus.size, bool)  # each row's first set bit
    opens[1:] = rows[1:] != rows[:-1]
    prev = np.empty_like(taus)
    prev[1:] = taus[:-1]
    prev[opens] = 0
    top = n - min_len
    flagged = (taus - prev < min_len) | (taus > top)
    if max_m < length:
        at = np.arange(taus.size)
        flagged |= at - np.maximum.accumulate(np.where(opens, at, 0)) >= max_m
    if not flagged.any():
        return
    walked = np.zeros(len(bits), bool)
    walked[rows[flagged]] = True
    entries = np.flatnonzero(walked[rows])
    # The greedy scan of each walked row, its trailing drop as tau <= top.
    dropped = []
    row = -1
    for i, r, tau in zip(entries.tolist(), rows[entries].tolist(), taus[entries].tolist()):
        if r != row:
            row, last, kept = r, 0, 0
        if kept < max_m and tau - last >= min_len and tau <= top:
            last = tau
            kept += 1
        else:
            dropped.append(i)
    bits[rows[dropped], cols[dropped]] = False


def _keys(bits: np.ndarray) -> list[bytes]:
    """Each row's memo key: the bytes of its complemented bits, packed.  At
    the first position where two rows that set as many bits differ, the
    row whose boundary tuple is the smaller sets the bit, so its key has
    the 0 there: such rows' keys sort as their boundary tuples do."""
    packed = np.packbits(~bits, axis=1)
    return packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()


def _taus_of(key: bytes, length: int) -> tuple[int, ...]:
    """The boundary tuple whose :func:`_keys` key over ``1..length`` is ``key``."""
    bits = np.unpackbits(np.frombuffer(key, np.uint8), count=length)
    return tuple((np.flatnonzero(bits == 0) + 1).tolist())


# Generations >= 1 of each draw key's draws, kept by the open shared_scope()
# (list index = generation - 1); None outside any scope.
_SHARED: ContextVar[dict | None] = ContextVar("cetseg_shared_draws", default=None)

# Bytes of packed crossover masks a scope keeps per draw key (about 85%
# of what it keeps); later generations are drawn by every search that
# reaches them.  At N=362 and the default population that is 959
# generations, nearly the 1,000 that a default-budget search runs at
# least, and about 9 MB in all.
_SHARED_BYTES = 8 * 2**20


@contextmanager
def shared_scope() -> Iterator[None]:
    """Let the searches run inside this scope share their draws.

    Each GA generation's random arrays are drawn once per draw key (see
    :func:`ga_minimize`) and replayed to every later search with the
    same key, so the searches' results are exactly those they give
    alone.  A scope starts empty and drops its draws on exit.
    """
    draws = _SHARED.set({})
    try:
        yield
    finally:
        _SHARED.reset(draws)


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
    first = np.minimum(np.minimum(picks[:, 0], picks[:, 1]), picks[:, 2])
    second = np.minimum(np.minimum(picks[:, 3], picks[:, 4]), picks[:, 5])
    return first, second, crossed[:, None] & from_second, flips


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
    from the :func:`shared_scope` memo inside a scope."""
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


class _Memo(NamedTuple):
    """What a GA memo hands :func:`ga_minimize`: ``encode(bits)``, bool
    rows as the memo's individuals; ``repair(pop)``, those individuals made
    feasible; ``ranked(pop)``, ``pop`` best first and the best one's sort
    key, ordered as ``(score, m, taus)``; ``score_of`` and ``taus_of`` of a
    sort key; ``visited()``."""

    encode: Callable
    repair: Callable
    ranked: Callable
    score_of: Callable
    taus_of: Callable
    visited: Callable


def _dict_memo(fitness: Fitness, n: int, min_len: int, cap: int) -> _Memo:
    """A GA memo over bool rows, repaired in place by :func:`_repair`.  It
    scores a generation's new rows by one call and keeps ``(score, m,
    key)`` by :func:`_keys` key."""
    cache: dict[bytes, tuple] = {}

    def repair(pop: np.ndarray) -> np.ndarray:
        _repair(pop, n, min_len, cap)
        return pop

    def ranked(pop: np.ndarray) -> tuple[np.ndarray, tuple]:
        keys = _keys(pop)
        missing = {key: row for row, key in enumerate(keys) if key not in cache}
        if missing:
            scores, m = _scored(fitness, pop[list(missing.values())], n)
            for key, score, count in zip(missing, scores.tolist(), m.tolist()):
                cache[key] = (score, count, key)
        sort_keys = [cache[key] for key in keys]
        order = sorted(range(len(keys)), key=sort_keys.__getitem__)
        return pop[order], sort_keys[order[0]]

    return _Memo(lambda bits: bits, repair, ranked, itemgetter(0),
                 lambda best: _taus_of(best[2], n - 1), cache.__len__)


def _repair_table(n: int, min_len: int, cap: int) -> np.ndarray | None:
    """What :func:`_repair` makes of each code ``bits @ 2**arange`` over
    boundaries ``1..n-1``, by code; None where it changes nothing
    (``min_len`` 1 and ``cap`` at least ``n - 1``).  One sweep over the
    columns keeps bit ``tau`` of every code where it is set, closes a
    regime of ``min_len`` or more and fewer than ``cap`` are kept, for
    ``tau`` up to ``n - min_len``."""
    if min_len == 1 and cap >= n - 1:
        return None
    codes = np.arange(1 << (n - 1))
    fixed = np.zeros_like(codes)
    last = np.zeros_like(codes)
    kept = np.zeros_like(codes)
    for tau in range(min_len, n - min_len + 1):
        keep = (codes >> (tau - 1)) & 1 & (tau - last >= min_len) & (kept < cap)
        fixed |= keep << (tau - 1)
        last[keep.astype(bool)] = tau
        kept += keep
    return fixed


def _table_memo(fitness: Fitness, n: int, min_len: int, cap: int) -> _Memo:
    """:func:`_dict_memo`'s memo from the whole feasible space, scored up
    front and ranked once.  Its individuals are codes ``bits @ 2**arange``,
    repaired by :func:`_repair_table`; a code's sort key is its rank, and
    a bitmap over codes marks the codes ranked."""
    bit = 1 << np.arange(n - 1)
    parts = [(*_scored(fitness, rows, n), rows) for rows in _feasible_rows(n, min_len, cap)]
    scores, m, rows = map(np.concatenate, zip(*parts))
    order = _least(scores, m, rows)
    scores, codes = scores[order], rows[order] @ bit
    # Zero off the feasible codes, which repaired codes never are.
    rank = np.zeros(1 << (n - 1), np.intp)
    rank[codes] = np.arange(codes.size)
    seen = np.zeros(rank.size, bool)
    fix = _repair_table(n, min_len, cap)

    def ranked(pop: np.ndarray) -> tuple[np.ndarray, int]:
        seen[pop] = True
        ranks = rank[pop]
        order = np.argsort(ranks, kind="stable")
        return pop[order], int(ranks[order[0]])

    return _Memo(lambda bits: bits @ bit, (lambda pop: pop) if fix is None else fix.__getitem__,
                 ranked, lambda best: float(scores[best]),
                 lambda best: tuple((np.flatnonzero(codes[best] & bit) + 1).tolist()),
                 lambda: int(seen.sum()))


def ga_minimize(
    fitness: Fitness,
    n: int,
    min_len: int,
    params: GAParams = GAParams(),
    *,
    max_m: int | None = None,
) -> GARun:
    """Minimize ``fitness`` over boundary tuples of a length-``n`` series.

    ``fitness`` maps a :class:`~cetseg.core.Regimes` batch of distinct
    configurations, whose regimes all span at least ``min_len`` indices,
    to their scores (+inf where one cannot be scored).  A configuration's
    score must not depend on the rest of the batch.  Each configuration
    is scored once: where ``n <= 15``, the whole feasible space before the
    first generation, by calls of at most 1,024 configurations, ranked
    once by ``(score, m, taus)``; above, each generation's configurations
    not yet scored, in first-seen order, by one call, keeping only each
    one's sort key ``(score, m, key)`` by ``key``, its :func:`_keys` key,
    which at equal ``m`` sorts as boundary tuples do.  The two give the
    same search, result and count of configurations visited.
    Individuals are inclusion bitvectors over candidate boundaries
    ``1..n-1``, and a generation is ranked best first: where ``n <= 15``
    a vector of their codes ``bits @ 2**arange``, whose infeasible
    children are repaired by a table over every code; above, a bool
    matrix, one row per individual, whose infeasible children are
    repaired in place.  Crossover and mutation are the same bit
    operations on either, and no child is rejected.  See
    :func:`ga_optimize` for the generation scheme and the stopping rule.

    Each generation's draws come from one stream keyed by
    ``(params.seed, generation)``, generation 0 building the initial
    population.  A generation of C children draws, in this order,
    tournament picks ``(C, 6)``, crossover uniforms ``(C,)``, a
    crossover mask ``(C, n-1)`` and mutation flips ``(C, n-1)``, with
    row i belonging to child i; see the module docstring for the draw
    key that :func:`shared_scope` replays by.

    Raises
    ------
    InfeasibleModelError
        If ``n < 2 * min_len``, i.e. no single changepoint is feasible.
    DomainError
        If ``max_m < 0``.
    DegenerateFitError
        If every configuration encountered scores +inf.
    """
    cap = _changepoint_cap(n, min_len, max_m)
    length = n - 1
    pop_size = params.population_size
    memo = _table_memo if length <= _TABLE_LENGTH else _dict_memo
    encode, repair, ranked, score_of, taus_of, visited = memo(fitness, n, min_len, cap)

    elite_count = max(1, round(params.elite_fraction * pop_size))
    child_count = pop_size - elite_count
    draws = _draws(params, n, child_count)
    include_prob = min(1.0, 3.0 / n)
    rng = np.random.default_rng((params.seed, 0))
    bits = rng.random((pop_size, length)) < include_prob
    bits[0] = False  # the empty configuration
    pop, best = ranked(repair(encode(bits)))
    history = [score_of(best)]
    stagnation = 0
    generations = 0

    for gen in range(1, params.max_generations + 1):
        first_rank, second_rank, take, flips = draws(gen)
        first = pop[first_rank]
        second = pop[second_rank]
        # Uniform crossover as bit operations: the second parent's bit where
        # a crossed child takes it, the first parent's elsewhere.
        children = repair(first ^ ((first ^ second) & encode(take)) ^ encode(flips))
        pop, gen_best = ranked(np.concatenate((pop[:elite_count], children)))
        generations = gen
        stagnation = 0 if score_of(gen_best) < score_of(best) else stagnation + 1
        best = min(best, gen_best)
        history.append(score_of(best))
        if stagnation >= params.stagnation_limit:
            break

    if score_of(best) == math.inf:
        raise DegenerateFitError("every configuration encountered fits the data exactly")
    return GARun(taus_of(best), score_of(best), tuple(history), generations, visited())


def ga_search(
    fast: Fitness, reference: Reference, n: int, min_len: int, params: GAParams = GAParams(),
    *, max_m: int | None = None,
) -> SearchReport:
    """:func:`ga_minimize` over ``fast``'s batch scores, each NaN replaced
    by the score of ``reference``, the tuple's reference fit (+inf where
    it raises :class:`DegenerateFitError`).  The winner's ``reference``
    refit is the report's ``best``.  Raises what :func:`ga_minimize`
    raises, and :class:`RefitMismatchError` if the refit disagrees with
    the winner's search score by more than ``REFIT_RTOL``.
    """
    run = ga_minimize(_fallback(fast, reference), n, min_len, params, max_m=max_m)
    return _report(reference, run.taus, run.score, run.evaluations_count,
                   run.score_history, run.generations_run, params.seed)


def ga_optimize(
    series: TimeSeries,
    model: ModelSpec,
    params: GAParams = GAParams(),
    *,
    max_m: int | None = None,
) -> SearchReport:
    """Minimize the penalized score over configurations with a GA.

    Individuals are inclusion bitvectors over candidate boundaries
    ``1..N-1``; infeasible children are repaired, never rejected.  Each
    generation keeps the elite unchanged and fills the rest with
    tournament-selected, uniformly crossed, mutated children.  The
    search stops after ``stagnation_limit`` generations without a
    strict improvement of the best score, or at ``max_generations``.
    The search is :func:`ga_search` with :func:`evaluate` as reference.

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
    return ga_search(score_function(series, model), _reference(series, model), series.n,
                     min_segment_length(model), params, max_m=max_m)


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

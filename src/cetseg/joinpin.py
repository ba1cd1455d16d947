"""Continuity-constrained piecewise-linear regression ("joinpin").

The mean function is linear within regimes and continuous across
boundaries; continuity is imposed exactly by fitting in a hinge basis
(intercept, time, and one ramp ``max(0, t - tau)`` per boundary) with
a single global least squares.  The error variance is supplied by the
caller rather than re-estimated, and scoring is BIC-style with a
configurable per-changepoint charge.

The search hands :func:`cetseg.search.ga_search` two scores of a knot
configuration, the O(m) one from :func:`cetseg.fastscore.joinpin_rss`
and the reference :func:`fit_joinpin`; ``ga_search`` decides which to trust.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import (
    FAMILIES,
    ChangepointConfiguration,
    DegenerateFitError,
    DomainError,
    FitResult,
    MeanStructure,
    ModelSpec,
    Regimes,
    TimeSeries,
)
from .estimation import LOG_2PI
from .fastscore import joinpin_rss
from .search import GAParams, SearchReport, ga_search

__all__ = ["JoinpinFit", "fit_joinpin", "joinpin_search", "default_knot_penalty",
           "check_variance"]

_MODEL = ModelSpec(MeanStructure.JOINPIN, "wn", "bic")
_MIN_SEG = FAMILIES[MeanStructure.JOINPIN].min_len


def default_knot_penalty(n: int) -> float:
    """Default per-changepoint score charge: one location plus two line
    parameters' worth of BIC."""
    return 3.0 * math.log(n)


@dataclass(frozen=True, kw_only=True)
class JoinpinFit(FitResult):
    """A continuous piecewise-linear fit at one knot configuration.

    ``means`` and ``slopes`` are each regime's line on the global time
    axis; adjacent lines meet at their knot.  The fit also keeps the
    error variance its likelihood was evaluated at, the charge per
    knot (``penalty_value = knot_penalty * m``) and its residual sum of
    squares.
    """

    sigma2_fixed: float
    knot_penalty: float
    rss: float

    extra_keys: ClassVar[tuple[str, ...]] = ("sigma2_fixed", "knot_penalty", "rss")

    @property
    def bic_score(self) -> float:
        return self.score


def _design(taus: tuple[int, ...], n: int) -> np.ndarray:
    t = np.arange(1.0, n + 1.0)
    cols = [np.ones(n), t]
    cols.extend(np.maximum(0.0, t - tau) for tau in taus)
    return np.column_stack(cols)


def _least_squares(values: np.ndarray, taus: tuple[int, ...]):
    """Hinge-basis coefficients and residual sum of squares."""
    X = _design(taus, values.size)
    coef, _, rank, _ = np.linalg.lstsq(X, values, rcond=None)
    if rank < X.shape[1]:
        raise DegenerateFitError(f"singular hinge design for knots {taus}")
    resid = values - X @ coef
    return coef, float(np.dot(resid, resid))


def check_variance(sigma2_fixed: float) -> None:
    """Raise :class:`DomainError` unless ``sigma2_fixed`` is finite and positive."""
    if not (math.isfinite(sigma2_fixed) and sigma2_fixed > 0.0):
        raise DomainError(f"sigma2_fixed must be finite and positive, got {sigma2_fixed!r}")


def _neg2loglik(rss, n: int, sigma2: float):
    """-2 log likelihood at the fixed variance (element-wise for an
    array of ``rss``)."""
    return rss / sigma2 + n * math.log(sigma2) + n * LOG_2PI


def fit_joinpin(
    series: TimeSeries,
    config: ChangepointConfiguration,
    sigma2_fixed: float,
    knot_penalty: float | None = None,
) -> JoinpinFit:
    """Least-squares continuous piecewise-linear fit with fixed knots.

    Parameters
    ----------
    sigma2_fixed : float
        Error variance plugged into the likelihood (not re-estimated),
        so scores are comparable across knot configurations.
    knot_penalty : float, optional
        Score charge per changepoint; defaults to
        :func:`default_knot_penalty`.

    Raises
    ------
    DomainError
        If a regime is shorter than 2 or ``sigma2_fixed`` is not finite
        and positive.
    DegenerateFitError
        If the hinge design is singular.
    """
    n = series.n
    config.validate_for(n, _MIN_SEG)
    check_variance(sigma2_fixed)
    if knot_penalty is None:
        knot_penalty = default_knot_penalty(n)
    coef, rss = _least_squares(series.values, config.taus)
    # Each hinge coefficient adds to the slope past its knot; the
    # intercept moves so that adjacent lines meet at the knot.
    intercept, slope, *gains = map(float, coef)
    means, slopes = [intercept], [slope]
    for tau, gain in zip(config.taus, gains):
        slopes.append(slopes[-1] + gain)
        means.append(means[-1] - gain * tau)
    knot_penalty = float(knot_penalty)
    return JoinpinFit(
        model=_MODEL,
        config=config,
        neg2loglik=_neg2loglik(rss, n, sigma2_fixed),
        penalty_value=knot_penalty * config.m,
        means=tuple(means),
        slopes=tuple(slopes),
        sigma2_fixed=float(sigma2_fixed),
        knot_penalty=knot_penalty,
        rss=rss,
    )


def joinpin_search(
    series: TimeSeries,
    sigma2_fixed: float,
    max_m: int | None = None,
    params: GAParams = GAParams(),
) -> SearchReport:
    """GA search for the BIC-minimal knot configuration.

    :func:`cetseg.search.ga_search` over the O(m) score from
    :func:`cetseg.fastscore.joinpin_rss`, with :func:`fit_joinpin`
    (default knot penalty) as the reference fit.

    Raises
    ------
    DomainError
        If ``sigma2_fixed`` is not finite and positive, or so small that
        ``sum (x - mean)^2 / sigma2_fixed``, which bounds every knot
        configuration's ``RSS / sigma2_fixed``, overflows.
    cetseg.search.RefitMismatchError
        If the winner's fit disagrees with its search score.
    """
    check_variance(sigma2_fixed)
    centred = series.values - series.values.mean()
    if math.isinf(float(np.dot(centred, centred)) / sigma2_fixed):
        raise DomainError(f"sigma2_fixed {sigma2_fixed!r} is too small for this series: "
                          "RSS / sigma2 overflows")
    n = series.n
    kp = default_knot_penalty(n)
    fast_rss = joinpin_rss(series.values)

    def fast(regimes: Regimes) -> np.ndarray:
        return _neg2loglik(fast_rss(regimes), n, sigma2_fixed) + kp * regimes.m

    def reference(taus: tuple[int, ...]) -> JoinpinFit:
        return fit_joinpin(series, ChangepointConfiguration(taus), sigma2_fixed)

    return ga_search(fast, reference, n, _MIN_SEG, params, max_m=max_m)

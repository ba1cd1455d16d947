"""Parameter estimation for segmented Gaussian models.

Residual convention: a "residual series" is a plain float64 array
obtained by subtracting a fitted mean function from the observations.
Error-model parameters (the AR(1) coefficient and the innovation
variance) are always estimated from such residuals, never from raw
observations.

All regressions use the global time index ``t = 1..N``; a regime's
intercept is therefore expressed on the same time axis as every other
regime's, and fitted values can be compared across regime boundaries
directly.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    FAMILIES,
    ChangepointConfiguration,
    DegenerateFitError,
    DomainError,
    MeanStructure,
    TimeSeries,
)

__all__ = [
    "fit_mean_shift",
    "fit_trend_shift",
    "fit_fixed_slope",
    "fitted_mean",
    "estimate_ar1",
    "innovation_variance",
    "gaussian_neg2loglik",
    "fit_variance_shift",
]

LOG_2PI = math.log(2.0 * math.pi)


def _regime_moments(series: TimeSeries, config: ChangepointConfiguration):
    """Per regime on the global time index: the means xbar and tbar, and the
    sums of (t - tbar)(x - xbar) and of (t - tbar)^2."""
    x = series.values
    t = np.arange(1.0, series.n + 1.0)
    for s in config.slices(series.n):
        xs, ts = x[s], t[s]
        tbar = ts.mean()
        xbar = xs.mean()
        dt = ts - tbar
        yield xbar, tbar, np.dot(dt, xs - xbar), np.dot(dt, dt)


def fit_mean_shift(series: TimeSeries, config: ChangepointConfiguration) -> tuple[float, ...]:
    """Per-regime sample means.

    Returns one mean per regime.  Every regime must be non-empty, which
    the configuration already guarantees for any series it is interior
    to.
    """
    x = series.values
    return tuple(float(x[s].mean()) for s in config.slices(series.n))


def fit_trend_shift(
    series: TimeSeries, config: ChangepointConfiguration
) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Per-regime least-squares lines on the global time index.

    Returns
    -------
    (intercepts, slopes)
        One pair per regime, each line fitted independently by OLS on
        the observations of that regime against ``t = 1..N``.

    Raises
    ------
    DomainError
        If any regime has fewer than 3 observations; a line through
        two points leaves no residual information.
    """
    config.validate_for(series.n, FAMILIES[MeanStructure.TREND_SHIFT].min_len)
    intercepts = []
    slopes = []
    for xbar, tbar, sxt, stt in _regime_moments(series, config):
        beta = float(sxt / stt)
        intercepts.append(float(xbar - beta * tbar))
        slopes.append(beta)
    return tuple(intercepts), tuple(slopes)


def fit_fixed_slope(
    series: TimeSeries, config: ChangepointConfiguration
) -> tuple[tuple[float, ...], float]:
    """Per-regime intercepts with one slope shared by all regimes.

    The shared slope solves the least-squares problem in which each
    regime keeps its own level: it pools the within-regime covariances
    of time and value over the within-regime time variances.

    Returns
    -------
    (intercepts, slope)

    Raises
    ------
    DomainError
        If any regime has fewer than 2 observations (a single point
        carries no slope information and makes the pooled denominator
        degenerate when every regime is a singleton).
    """
    config.validate_for(series.n, FAMILIES[MeanStructure.FIXED_SLOPE].min_len)
    num = 0.0
    den = 0.0
    stats = []
    # added up regime by regime, in order, as the pinned answers were
    for xbar, tbar, sxt, stt in _regime_moments(series, config):
        num += float(sxt)
        den += float(stt)
        stats.append((xbar, tbar))
    if den <= 0.0:
        raise DomainError("no within-regime time variation; slope is unidentifiable")
    beta = num / den
    intercepts = tuple(xbar - beta * tbar for xbar, tbar in stats)
    return intercepts, beta


def fitted_mean(
    config: ChangepointConfiguration,
    means: tuple[float, ...],
    slopes: tuple[float, ...] | None,
    n: int,
) -> np.ndarray:
    """Evaluate a segmented mean function at ``t = 1..n``."""
    slices = config.slices(n)
    if len(means) != len(slices) or (slopes is not None and len(slopes) != len(slices)):
        raise DomainError("per-regime parameter count does not match configuration")
    f = np.empty(n)
    t = np.arange(1.0, n + 1.0)
    for i, s in enumerate(slices):
        f[s] = means[i] if slopes is None else means[i] + slopes[i] * t[s]
    return f


def estimate_ar1(residuals: np.ndarray) -> float:
    """Lag-1 autoregression coefficient of a residual series.

    Moment estimator: the lag-1 cross product over the full sum of
    squares, which bounds the estimate to [-1, 1].  All-zero residuals
    return 0.0; the degenerate fit is detected later, at the
    likelihood.  With fewer than 2 points there is no lag-1 pair.
    """
    d = np.asarray(residuals, dtype=np.float64)
    if d.size < 2:
        raise DomainError("need at least 2 residuals to estimate an AR(1) coefficient")
    denom = float(np.dot(d, d))
    if denom <= 0.0:
        return 0.0
    return float(np.dot(d[:-1], d[1:]) / denom)


def innovation_variance(residuals: np.ndarray, phi: float) -> float:
    """Mean squared one-step prediction error of an AR(1) with coefficient ``phi``.

    The first residual enters unpredicted; each later one is predicted
    from its predecessor.  ``phi = 0`` reduces to the plain mean square.
    """
    d = np.asarray(residuals, dtype=np.float64)
    n = d.size
    if n < 1:
        raise DomainError("empty residual series")
    e = d[1:] - phi * d[:-1]
    return float((d[0] * d[0] + np.dot(e, e)) / n)


def gaussian_neg2loglik(sigma2: float, n: int) -> float:
    """-2 log likelihood of ``n`` Gaussian innovations with variance ``sigma2``.

    Includes the ``n log 2 pi`` constant so scores are comparable
    across model families that parameterize the likelihood differently.
    """
    if sigma2 <= 0.0 or not math.isfinite(sigma2):
        raise DegenerateFitError(f"non-positive innovation variance {sigma2}")
    return n * (math.log(sigma2) + 1.0 + LOG_2PI)


def fit_variance_shift(
    residuals: np.ndarray, config: ChangepointConfiguration
) -> tuple[tuple[float, ...], float]:
    """Fit regime-wise variances to a (zero-mean) residual series.

    Each regime's variance is the mean square of its residuals.  The
    likelihood treats residuals as independent Gaussians with the
    regime's variance:

        -2 log L = sum_k len_k * log(v_k) + N log 2 pi + N.

    Returns
    -------
    (variances, neg2loglik)
        One variance per regime, and -2 log L.

    Raises
    ------
    DomainError
        If any regime has fewer than 2 observations.
    DegenerateFitError
        If any regime's residuals are identically zero.
    """
    d = np.asarray(residuals, dtype=np.float64)
    n = d.size
    config.validate_for(n, FAMILIES[MeanStructure.VARIANCE_SHIFT].min_len)
    variances = []
    n2ll = n * (1.0 + LOG_2PI)
    for s in config.slices(n):
        ds = d[s]
        v = float(np.dot(ds, ds) / ds.size)
        if v <= 0.0:
            raise DegenerateFitError("a regime has zero residual variance")
        variances.append(v)
        n2ll += ds.size * math.log(v)
    return tuple(variances), n2ll

"""Long-memory (fractionally integrated) fits as a no-changepoint alternative.

Fits ARFIMA(p, d, 0) with p in {0, 1} by conditional sum of squares:
the series is demeaned by its sample mean, fractionally differenced
with a truncated binomial filter, optionally AR(1)-filtered, and the
memory parameter d is chosen on (0, 0.5) to minimize the residual sum
of squares.  Scoring is BIC with natural logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .core import ChangepointConfiguration, DomainError, FitResult, ModelSpec, TimeSeries
from .estimation import gaussian_neg2loglik

__all__ = ["ArfimaFit", "frac_diff", "fit_arfima"]

_D_LO = 1e-6
_D_HI = 0.5 - 1e-6
_D_TOL = 1e-5
_PHI_BOUND = 0.99
_BOUNDARY_MARGIN = 1e-3
_COARSE_POINTS = 41
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, kw_only=True)
class ArfimaFit(FitResult):
    """A fitted long-memory model: no changepoints, one mean ``mu``.

    ``p`` is the AR order and ``d`` the memory parameter.  ``probes``
    is the optimizer's audit trail: every (d, css) pair evaluated,
    ending in a pair whose css is the minimum of them all.
    ``hit_boundary`` flags an estimate pinned at the edge of the
    admissible memory range, where the model degenerates to short
    memory (lower edge) or non-stationarity (upper edge).
    """

    p: int
    d: float
    hit_boundary: bool
    probes: tuple[tuple[float, float], ...]

    extra_keys: ClassVar[tuple[str, ...]] = ("p", "d", "mu", "hit_boundary")

    @property
    def mu(self) -> float:
        return self.means[0]

    @property
    def bic_score(self) -> float:
        return self.score


def frac_diff(values, d: float, truncation_lag: int) -> np.ndarray:
    """Apply the fractional difference filter (1 - B)^d, truncated.

    Filter weights follow the binomial recursion ``pi_0 = 1``,
    ``pi_j = pi_{j-1} * (j - 1 - d) / j``; output_t sums
    ``pi_j * input_{t-j}`` over ``j <= min(t-1, truncation_lag)``.
    ``d = 0`` is the identity and ``d = 1`` the first difference (with
    the first value passed through unchanged).
    """
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise DomainError("frac_diff expects a 1-d array")
    if not 0.0 <= d <= 1.0:
        raise DomainError(f"d must lie in [0, 1], got {d}")
    if truncation_lag < 1:
        raise DomainError("truncation_lag must be >= 1")
    n = x.size
    nlags = min(truncation_lag, n - 1) if n > 1 else 0
    return np.convolve(x, _weights(d, nlags))[:n]


def _weights(d, nlags: int) -> np.ndarray:
    """The filter weights ``pi_0..pi_nlags`` of each memory parameter in
    ``d`` (a float, taken in Python floats, or an array), one row per lag."""
    if np.ndim(d) == 0:
        pi, d = [1.0], float(d)
        for j in range(1, nlags + 1):
            pi.append(pi[-1] * (j - 1 - d) / j)
        return np.array(pi)
    pi = np.empty((nlags + 1, *np.shape(d)))
    pi[0] = 1.0
    for j in range(1, nlags + 1):
        pi[j] = pi[j - 1] * (j - 1 - d) / j
    return pi


def _css(w: np.ndarray, p: int) -> tuple[float, float | None]:
    """Conditional sum of squares of a filtered series, with the
    closed-form AR(1) coefficient when p = 1."""
    if p == 0:
        return float(np.dot(w, w)), None
    lag = w[:-1]
    den = float(np.dot(lag, lag))
    phi = 0.0 if den <= 0.0 else float(np.dot(w[1:], lag) / den)
    phi = max(-_PHI_BOUND, min(_PHI_BOUND, phi))
    e = w[1:] - phi * lag
    return float(w[0] * w[0] + np.dot(e, e)), phi


def fit_arfima(series: TimeSeries, p: int) -> ArfimaFit:
    """Fit an ARFIMA(p, d, 0) to a demeaned series by CSS.

    The memory parameter is found by a coarse grid pass over (0, 0.5)
    followed by golden-section refinement to 1e-5; for p = 1 the AR
    coefficient is profiled out in closed form at each d.  The returned
    d is the best evaluated point, so it minimizes the CSS over the
    whole audit trail by construction.

    ``penalty_value = k log N`` where k charges one parameter each for
    the memory parameter, the innovation variance, the series mean, and
    (when p = 1) the AR coefficient.

    Raises
    ------
    DomainError
        If ``p`` is not 0 or 1, or the series is shorter than 30 (too
        little history for the truncated filter to be meaningful).
    """
    if p not in (0, 1):
        raise DomainError(f"p must be 0 or 1, got {p}")
    n = series.n
    if n < 30:
        raise DomainError(f"long-memory fit needs N >= 30, got {n}")
    mu = float(series.values.mean())
    x = series.values - mu

    probes: list[tuple[float, float]] = []

    def probe(d: float, w: np.ndarray) -> float:
        """The CSS of ``w``, the series filtered at ``d``, kept as a probe."""
        value, _ = _css(w, p)
        probes.append((float(d), value))
        return value

    def css_at(d: float) -> float:
        return probe(d, frac_diff(x, d, n))

    # The grid's filter weights in one pass: per weight, the same operations.
    grid = np.linspace(_D_LO, _D_HI, _COARSE_POINTS)
    values = [probe(d, np.convolve(x, pi)[:n]) for d, pi in zip(grid, _weights(grid, n - 1).T)]
    i = int(np.argmin(values))
    a = grid[max(0, i - 1)]
    b = grid[min(_COARSE_POINTS - 1, i + 1)]

    c = b - _INVPHI * (b - a)
    e = a + _INVPHI * (b - a)
    fc, fe = css_at(c), css_at(e)
    while b - a > _D_TOL:
        if fc <= fe:
            b, e, fe = e, c, fc
            c = b - _INVPHI * (b - a)
            fc = css_at(c)
        else:
            a, c, fc = c, e, fe
            e = a + _INVPHI * (b - a)
            fe = css_at(e)

    d_hat, css_min = min(probes, key=lambda pv: (pv[1], pv[0]))
    _, phi_hat = _css(frac_diff(x, d_hat, n), p)
    sigma2 = css_min / n
    return ArfimaFit(
        model=ModelSpec("long-memory", "ar1" if p else "wn", "bic"),
        config=ChangepointConfiguration(),
        neg2loglik=gaussian_neg2loglik(sigma2, n),
        penalty_value=(3 + p) * math.log(n),
        means=(mu,),
        phi_hat=phi_hat,
        sigma2_hat=sigma2,
        p=p,
        d=d_hat,
        hit_boundary=(d_hat <= _D_LO + _BOUNDARY_MARGIN or d_hat >= _D_HI - _BOUNDARY_MARGIN),
        probes=tuple(probes),
    )

"""Score-only fits in O(m) from per-series prefix sums.

A changepoint search scores thousands of configurations of one series.
Every statistic a fit needs is a sum over the observations of each
regime, so cumulative sums built once per series give any regime's sums
by one subtraction, and a configuration with ``m`` changepoints is
scored in O(m) float operations, without fitted values or residual
arrays.  These are the sufficient statistics that segment-neighbourhood
search (Auger and Lawrence 1989) and PELT (Killick et al. 2012) build
on.

The sums are taken of ``x`` centred on the series mean and of ``t``
centred on ``(N + 1) / 2``; the time sums are then exact.  Per regime:

* trend shift: ``RSS = Sxx - Sxt^2 / Stt`` (within-regime centred sums);
* mean shift: ``RSS = Sxx``;
* fixed slope: one pooled slope ``sum Sxt / sum Stt``;
* variance shift: ``sum len_k log v_k`` of the raw values;
* joinpin (:func:`joinpin_rss`): hat functions on the nodes
  ``1, tau_1, ..., tau_m, N`` give a tridiagonal Gram matrix ``G`` of
  closed-form sums over each node interval, and ``r_j = sum phi_j x``
  from the ``x`` and ``t x`` sums; then ``RSS = Sxx - r^T G^-1 r``.

For AR(1) errors, with ``S`` the residual sum of squares, ``C`` the
lag-1 cross product of the residuals and ``d_N`` the last residual,
``phi = C / S`` and ``N sigma^2 = S - 2 phi C + phi^2 (S - d_N^2)``,
which is what :func:`~cetseg.estimation.estimate_ar1` and
:func:`~cetseg.estimation.innovation_variance` compute from the residual
array.  ``C`` sums, per regime, adjacent-pair sums of ``x_t x_{t+1}``,
``x_t + x_{t+1}`` and ``x_t (t+1) + x_{t+1} t``; the pair straddling
each boundary is computed on its own.

A scorer returns the score :func:`cetseg.search.evaluate` gives the same
configuration, up to rounding, or ``None`` where rounding could show.
The caller then scores that configuration with the reference fit.  The
mean-structure scores depend on the regimes only through their total
``S``, so ``S`` is checked: against the centred sum of squares of the
whole series (``CANCELLATION``), against ``N max|x|^2``
(``RESOLUTION``) and, for AR(1) errors, ``N sigma^2`` against ``S``.
The joinpin ``RSS``, which :func:`cetseg.joinpin.fit_joinpin` takes from
a least squares, is checked the same way, and so is each pivot of ``G``
for positivity.  Variance shifts check each regime's sum of squares
against the prefix sum it is taken from.  Exactly constant or exactly
linear data land in these checks, so degenerate fits are always left to
the reference.
Scorers do not validate configurations.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import ErrorModel, MeanStructure, ModelSpec, TimeSeries
from .estimation import LOG_2PI
from .penalties import penalty_function

__all__ = ["score_function", "joinpin_rss"]

Scorer = Callable[[tuple[int, ...]], "float | None"]

# A residual sum of squares below this fraction of the sum of squares it
# is taken from is left to the reference fit.  The fast score's relative
# error grows like 1e-15 times that ratio (measured at N = 362 on series
# dominated by a trend), so this keeps it near 1e-11.
CANCELLATION = 1e-4
# The same against N max|x|^2: centring x on its mean rounds each value
# by about 1e-16 max|x|, differently from the reference's regime means.
RESOLUTION = 1e-10


def _cumsum(v: np.ndarray) -> list[float]:
    out = np.zeros(v.size + 1)
    np.cumsum(v, out=out[1:])
    return out.tolist()


def score_function(series: TimeSeries, model: ModelSpec) -> Scorer:
    """Fast scorer of ``model`` on ``series``: boundary tuple -> score or ``None``."""
    n = series.n
    penalty = penalty_function(model, n)
    if model.mean_structure is MeanStructure.VARIANCE_SHIFT:
        return _variance_scorer(series.values, penalty)
    return _MeanScorer(series.values, model, penalty).score


def _variance_scorer(values: np.ndarray, penalty) -> Scorer:
    n = values.size
    squares = _cumsum(values * values)
    base = n * (1.0 + LOG_2PI)
    log = math.log

    def score(taus: tuple[int, ...]) -> float | None:
        n2ll = base
        lengths = []
        a = 0
        for b in (*taus, n):
            k = b - a
            ss = squares[b] - squares[a]
            if not ss > CANCELLATION * squares[b]:
                return None
            n2ll += k * log(ss / k)
            lengths.append(k)
            a = b
        return n2ll + penalty(taus, lengths)

    return score


class _MeanScorer:
    """Scores of one mean structure, with white-noise or AR(1) errors."""

    def __init__(self, values: np.ndarray, model: ModelSpec, penalty):
        n = values.size
        x = values - values.mean()
        t = np.arange(1.0, n + 1.0) - (n + 1) / 2.0
        self.n = n
        self.penalty = penalty
        self.lines = {
            MeanStructure.MEAN_SHIFT: self._mean_lines,
            MeanStructure.TREND_SHIFT: self._trend_lines,
            MeanStructure.FIXED_SLOPE: self._fixed_slope_lines,
        }[model.mean_structure]
        self.ar1 = model.error_model is ErrorModel.AR1
        self.X, self.XX = _cumsum(x), _cumsum(x * x)
        self.T, self.TX = _cumsum(t), _cumsum(t * x)
        # Within-regime centred sum of squares of t over k consecutive indices.
        self.STT = [k * (k * k - 1) / 12.0 for k in range(n + 1)]
        self.floor = max(CANCELLATION * self.XX[n],
                         RESOLUTION * n * float(np.max(np.abs(values))) ** 2)
        if self.ar1:
            self.x, self.t = x.tolist(), t.tolist()
            x0, x1, t0, t1 = x[:-1], x[1:], t[:-1], t[1:]
            self.PXX, self.PX = _cumsum(x0 * x1), _cumsum(x0 + x1)
            self.PTX = _cumsum(x0 * t1 + x1 * t0)
            self.PT, self.PTT = _cumsum(t0 + t1), _cumsum(t0 * t1)

    # Each ``*_lines`` returns the residual sum of squares and, per regime,
    # (first index, end index, level, slope) of its line p + q t in the
    # centred coordinates; slopes are 0.0 for mean shifts.

    def _mean_lines(self, bounds):
        X, XX = self.X, self.XX
        rss = 0.0
        lines = []
        a = 0
        for b in bounds:
            k = b - a
            sx = X[b] - X[a]
            p = sx / k
            rss += XX[b] - XX[a] - sx * p
            lines.append((a, b, p, 0.0))
            a = b
        return rss, lines

    def _trend_lines(self, bounds):
        X, XX, T, TX, STT = self.X, self.XX, self.T, self.TX, self.STT
        rss = 0.0
        lines = []
        a = 0
        for b in bounds:
            k = b - a
            sx = X[b] - X[a]
            st = T[b] - T[a]
            stx = TX[b] - TX[a] - st * sx / k
            q = stx / STT[k]
            rss += XX[b] - XX[a] - sx * sx / k - stx * q
            lines.append((a, b, (sx - q * st) / k, q))
            a = b
        return rss, lines

    def _fixed_slope_lines(self, bounds):
        X, XX, T, TX, STT = self.X, self.XX, self.T, self.TX, self.STT
        level_rss = pooled_stx = pooled_stt = 0.0
        parts = []
        a = 0
        for b in bounds:
            k = b - a
            sx = X[b] - X[a]
            st = T[b] - T[a]
            level_rss += XX[b] - XX[a] - sx * sx / k
            pooled_stx += TX[b] - TX[a] - st * sx / k
            pooled_stt += STT[k]
            parts.append((a, b, k, sx, st))
            a = b
        q = pooled_stx / pooled_stt
        lines = [(a, b, (sx - q * st) / k, q) for a, b, k, sx, st in parts]
        return level_rss - q * pooled_stx, lines

    def _lag1(self, lines) -> tuple[float, float]:
        """Lag-1 cross product of the residuals, and the last residual."""
        x, t = self.x, self.t
        PXX, PX, PTX, PT, PTT = self.PXX, self.PX, self.PTX, self.PT, self.PTT
        cross = 0.0
        last = None
        for a, b, p, q in lines:
            e = b - 1  # pairs (i, i + 1) with a <= i < e lie inside the regime
            cross += (PXX[e] - PXX[a] - p * (PX[e] - PX[a]) - q * (PTX[e] - PTX[a])
                      + (e - a) * p * p + p * q * (PT[e] - PT[a]) + q * q * (PTT[e] - PTT[a]))
            if last is not None:
                cross += last * (x[a] - p - q * t[a])
            last = x[e] - p - q * t[e]
        return cross, last

    def score(self, taus: tuple[int, ...]) -> float | None:
        n = self.n
        rss, lines = self.lines((*taus, n))
        if not rss > self.floor:
            return None
        if self.ar1:
            cross, last = self._lag1(lines)
            phi = cross / rss
            n_sigma2 = rss - 2.0 * phi * cross + phi * phi * (rss - last * last)
            if not n_sigma2 > CANCELLATION * rss:
                return None
        else:
            n_sigma2 = rss
        lengths = [b - a for a, b, _, _ in lines]
        return n * (math.log(n_sigma2 / n) + 1.0 + LOG_2PI) + self.penalty(taus, lengths)


def joinpin_rss(values: np.ndarray) -> Scorer:
    """Fast residual sum of squares of the continuous piecewise-linear fit:
    knot tuple -> RSS or ``None``.

    Hat functions on the nodes ``1, tau_1, ..., tau_m, N`` span the hinge
    basis of :func:`cetseg.joinpin.fit_joinpin`, and their Gram matrix
    ``G`` is tridiagonal.  Each interval ``(u, u + h]`` adds the sums of
    ``(1 - s/h)^2``, ``s/h (1 - s/h)`` and ``(s/h)^2`` over ``s = 1..h``
    to ``G``, and ``sum x`` minus / plus ``sum (t - u) x / h`` to the
    right-hand side ``r``; the node ``t = 1`` adds 1 and ``x_1``.  With
    ``G = L D L^T`` and ``L y = r``, ``RSS = sum x^2 - sum y_j^2 / d_j``.
    """
    n = values.size
    x = values - values.mean()
    centre = (n + 1) / 2.0
    X = _cumsum(x)
    TX = _cumsum((np.arange(1.0, n + 1.0) - centre) * x)
    sxx = float(np.dot(x, x))
    floor = max(CANCELLATION * sxx, RESOLUTION * n * float(np.max(np.abs(values))) ** 2)
    # Per interval length h: the sums of (1 - s/h)^2, s/h (1 - s/h) and (s/h)^2.
    spans = range(1, n)
    left = [0.0] + [(h - 1) * (2 * h - 1) / (6.0 * h) for h in spans]
    cross = [0.0] + [(h * h - 1) / (6.0 * h) for h in spans]
    right = [0.0] + [(h + 1) * (2 * h + 1) / (6.0 * h) for h in spans]

    def rss(taus: tuple[int, ...]) -> float | None:
        d, y = 1.0, X[1]  # node t = 1, before its first interval
        explained = 0.0
        u = 1
        for b in (*taus, n):
            h = b - u
            sx = X[b] - X[u]
            to_b = (TX[b] - TX[u] - (u - centre) * sx) / h
            # Node u is complete with this interval's left part: eliminate it.
            d += left[h]
            y += sx - to_b
            if not d > 0.0:
                return None
            explained += y * y / d
            # Node b starts from the right part, less its coupling to node u.
            ratio = cross[h] / d
            d = right[h] - ratio * cross[h]
            y = to_b - ratio * y
            u = b
        if not d > 0.0:
            return None
        residual = sxx - explained - y * y / d
        return residual if residual > floor else None

    return rss

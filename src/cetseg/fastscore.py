"""Score-only fits in O(m) from per-series prefix sums.

A changepoint search scores thousands of configurations of one series.
Every statistic a fit needs is a sum over the observations of each
regime, so cumulative sums built once per series give any regime's sums
by one subtraction, and a configuration with ``m`` changepoints is
scored in O(m) float operations, without fitted values or residual
arrays.  These are the sufficient statistics that segment-neighbourhood
search (Auger and Lawrence 1989) and PELT (Killick et al. 2012) build
on.  This module owns the per-regime formulas below; the exact search
reads the trend-shift one as a table of every regime's RSS
(:func:`trend_rss_table`), and the penalties come from
:mod:`cetseg.penalties`.

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

A scorer takes a batch of configurations, laid out as flat per-regime
arrays (:class:`cetseg.core.Regimes`), and returns one value per
configuration: the score :func:`cetseg.search.evaluate` gives it, up to
rounding, or NaN where rounding could show.  The caller then scores
that configuration with the reference fit.  Each configuration's sums
are running totals in regime order, with
logs of non-integers taken by ``math.log``, so a score is bit for bit
the one the same configuration gets alone or in any other batch.  The
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
from numpy.lib.stride_tricks import sliding_window_view

from .core import ErrorModel, MeanStructure, ModelSpec, Regimes, TimeSeries
from .estimation import LOG_2PI
from .penalties import penalty_function

__all__ = ["score_function", "trend_rss_table", "by_length", "row_blocks", "joinpin_rss"]

# A batch of configurations -> one value each, NaN where the reference
# fit must decide.
Scorer = Callable[[Regimes], np.ndarray]

# A residual sum of squares below this fraction of the sum of squares it
# is taken from is left to the reference fit.  The fast score's relative
# error grows like 1e-15 times that ratio (measured at N = 362 on series
# dominated by a trend), so this keeps it near 1e-11.
CANCELLATION = 1e-4
# The same against N max|x|^2: centring x on its mean rounds each value
# by about 1e-16 max|x|, differently from the reference's regime means.
RESOLUTION = 1e-10


def _cumsum(v: np.ndarray) -> np.ndarray:
    """Prefix sums along the last axis, from a leading 0."""
    out = np.zeros((*v.shape[:-1], v.shape[-1] + 1))
    np.cumsum(v, axis=-1, out=out[..., 1:])
    return out


def _log(values: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """``math.log`` of the ``valid`` entries (NaN elsewhere), so that scores
    do not depend on how numpy's vector log rounds."""
    out = np.full(values.size, np.nan)
    out[valid] = np.fromiter(map(math.log, values[valid].tolist()), float)
    return out


def score_function(series: TimeSeries, model: ModelSpec) -> Scorer:
    """Fast scorer of ``model`` on ``series``: a :class:`~cetseg.core.Regimes`
    batch -> its scores, NaN where the reference fit must score."""
    penalty = penalty_function(model, series.n)
    if model.mean_structure is MeanStructure.VARIANCE_SHIFT:
        return _variance_scorer(series.values, penalty)
    return _mean_scorer(series.values, model, penalty)


def _centred_sums(values: np.ndarray):
    """``x`` centred on the series mean, ``t`` centred on ``(N + 1) / 2``,
    the prefix sums of x, x^2, t and t x (one row each), and the floor of
    the residual sums of squares a scorer keeps."""
    n = values.size
    x = values - values.mean()
    t = np.arange(1.0, n + 1.0) - (n + 1) / 2.0
    sums = _cumsum(np.stack((x, x * x, t, t * x)))
    floor = max(CANCELLATION * float(sums[1, n]),
                RESOLUTION * n * float(np.max(np.abs(values))) ** 2)
    return x, t, sums, floor


def _variance_scorer(values: np.ndarray, penalty) -> Scorer:
    n = values.size
    squares = _cumsum(values * values)
    base = n * (1.0 + LOG_2PI)

    def score(regimes: Regimes) -> np.ndarray:
        a, b, k = regimes.starts, regimes.ends, regimes.lengths
        ss = squares[b] - squares[a]
        kept = ss > CANCELLATION * squares[b]
        terms = k * _log(ss / k, kept)
        terms[regimes.first] += base
        return regimes.row_sums(terms) + penalty(regimes)

    return score


def _mean_scorer(values: np.ndarray, model: ModelSpec, penalty) -> Scorer:
    """Scores of one mean structure, with white-noise or AR(1) errors."""
    n = values.size
    x, t, sums, floor = _centred_sums(values)
    # Within-regime centred sum of squares of t over k consecutive indices.
    k = np.arange(n + 1.0)
    STT = k * (k * k - 1) / 12.0
    ar1 = model.error_model is ErrorModel.AR1
    if ar1:
        xt = np.stack((x, t))
        x0, x1, t0, t1 = x[:-1], x[1:], t[:-1], t[1:]
        # Adjacent-pair sums of x x', x + x', x t' + x' t, t + t' and t t'.
        pairs = _cumsum(np.stack((x0 * x1, x0 + x1, x0 * t1 + x1 * t0,
                                  t0 + t1, t0 * t1)))

    # Each ``*_lines`` takes the regimes and their sums of x, x^2, t and
    # t x, and returns, per configuration, the residual sum of squares
    # and, per regime, the level and slope of its line p + q t in the
    # centred coordinates; slopes are 0.0 for mean shifts.

    def mean_lines(regimes: Regimes, sx, sxx, st, stx):
        p = sx / regimes.lengths
        return regimes.row_sums(sxx - sx * p), p, 0.0

    def trend_lines(regimes: Regimes, sx, sxx, st, stx):
        # trend_rss_table tabulates these regime terms in the same order.
        k = regimes.lengths
        stx = stx - st * sx / k
        q = stx / STT[k]
        rss = regimes.row_sums(sxx - sx * sx / k - stx * q)
        return rss, (sx - q * st) / k, q

    def fixed_slope_lines(regimes: Regimes, sx, sxx, st, stx):
        k = regimes.lengths
        level_rss = regimes.row_sums(sxx - sx * sx / k)
        pooled_stx = regimes.row_sums(stx - st * sx / k)
        pooled_stt = regimes.row_sums(STT[k])
        q = pooled_stx / pooled_stt
        slopes = q[regimes.row]
        return level_rss - q * pooled_stx, (sx - slopes * st) / k, slopes

    lines = {
        MeanStructure.MEAN_SHIFT: mean_lines,
        MeanStructure.TREND_SHIFT: trend_lines,
        MeanStructure.FIXED_SLOPE: fixed_slope_lines,
    }[model.mean_structure]

    def lag1(regimes: Regimes, p, q) -> tuple[np.ndarray, np.ndarray]:
        """Per configuration, the lag-1 cross product of the residuals and
        the last residual."""
        a = regimes.starts
        e = regimes.ends - 1  # pairs (i, i + 1) with a <= i < e lie inside the regime
        pxx, px, ptx, pt, ptt = pairs[:, e] - pairs[:, a]
        inside = pxx - p * px - q * ptx + (e - a) * p * p + p * q * pt + q * q * ptt
        # The pair straddling each boundary: the residual closing the previous
        # regime times the one opening this regime.
        (x_a, x_e), (t_a, t_e) = xt[:, (a, e)]
        closing = x_e - p - q * t_e
        straddling = np.zeros_like(inside)
        straddling[1:] = closing[:-1] * (x_a - p - q * t_a)[1:]
        straddling[regimes.first] = 0.0
        return regimes.row_sums(inside, straddling), closing[regimes.last]

    def score(regimes: Regimes) -> np.ndarray:
        rss, p, q = lines(regimes, *(sums[:, regimes.ends] - sums[:, regimes.starts]))
        kept = rss > floor
        if ar1:
            with np.errstate(divide="ignore", invalid="ignore"):
                cross, last = lag1(regimes, p, q)
                phi = cross / rss
                n_sigma2 = rss - 2.0 * phi * cross + phi * phi * (rss - last * last)
                kept &= n_sigma2 > CANCELLATION * rss
        else:
            n_sigma2 = rss
        return n * (_log(n_sigma2 / n, kept) + 1.0 + LOG_2PI) + penalty(regimes)

    return score


def by_length(per_difference: np.ndarray) -> np.ndarray:
    """The read-only ``(n+1, n+1)`` view whose entry ``[e, s]`` is the
    value of ``per_difference``, given over ``-n..n``, at ``e - s``."""
    n = per_difference.size // 2
    return sliding_window_view(per_difference, n + 1)[:, ::-1]


# Row blocks per pass over a lower-triangular table (see row_blocks).
_BLOCKS = 4


def row_blocks(lo: int, hi: int) -> list[tuple[int, int]]:
    """Rows ``lo..hi-1`` as up to ``_BLOCKS`` runs ``(a, b)`` of near-equal
    length, none empty.  In the tables here, row ``e`` is +inf beyond
    column ``e - min_len``, so a pass that reads, per run, only the columns
    its last row can use skips most of the +inf half: equal runs read the
    least area, ``(1 + 1/_BLOCKS) / 2`` of the full rectangle."""
    cuts = [lo + (hi - lo) * i // _BLOCKS for i in range(_BLOCKS + 1)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


def trend_rss_table(values: np.ndarray, min_len: int) -> tuple[np.ndarray, float]:
    """The table ``R[e, s]`` of the residual sums of squares of the line
    fitted to indices ``s+1..e`` (+inf where ``e - s < min_len``), and the
    scorers' trust floor.  Each entry is the term ``trend_lines`` adds for
    that regime, by the same operations in the same order, so entries
    summed in regime order give the trend-shift scorer's RSS bit for bit.

    Only the lower part is computed, one :func:`row_blocks` run at a time
    (rows ``a..b-1``, columns up to ``b - 1 - min_len``) into a +inf
    table; each entry's operations do not depend on the block it is in."""
    n = values.size
    _, _, (X, XX, T, TX), floor = _centred_sums(values)
    d = np.arange(-n, n + 1.0)
    length = by_length(d)
    stt = by_length(d * (d * d - 1) / 12.0)
    table = np.full((n + 1, n + 1), math.inf)
    for a, b in row_blocks(min_len, n + 1):
        e, s = slice(a, b), slice(0, b - min_len)
        k = length[e, s]
        term = table[e, s]
        # Three buffers at a time, combined in the order trend_lines adds its terms.
        sx = X[e, None] - X[s]
        stx = TX[e, None] - TX[s]
        with np.errstate(divide="ignore", invalid="ignore"):
            np.subtract(T[e, None], T[s], out=term)
            term *= sx
            term /= k
            stx -= term  # centred t x
            np.divide(stx, stt[e, s], out=term)  # the slope
            stx *= term
            sx *= sx
            sx /= k
            np.subtract(XX[e, None], XX[s], out=term)
            term -= sx
            term -= stx
        term[k < min_len] = math.inf
    return table, floor


def joinpin_rss(values: np.ndarray) -> Scorer:
    """Fast residual sum of squares of the continuous piecewise-linear fit:
    a :class:`~cetseg.core.Regimes` batch of knot configurations -> their
    RSS, NaN where the least squares must decide.

    Hat functions on the nodes ``1, tau_1, ..., tau_m, N`` span the hinge
    basis of :func:`cetseg.joinpin.fit_joinpin`, and their Gram matrix
    ``G`` is tridiagonal.  Each interval ``(u, u + h]`` adds the sums of
    ``(1 - s/h)^2``, ``s/h (1 - s/h)`` and ``(s/h)^2`` over ``s = 1..h``
    to ``G``, and ``sum x`` minus / plus ``sum (t - u) x / h`` to the
    right-hand side ``r``; the node ``t = 1`` adds 1 and ``x_1``.  With
    ``G = L D L^T`` and ``L y = r``, ``RSS = sum x^2 - sum y_j^2 / d_j``.
    The elimination runs over the intervals of all configurations at
    once, one interval position per step.
    """
    n = values.size
    centre = (n + 1) / 2.0
    x, _, (X, _, _, TX), floor = _centred_sums(values)
    sxx = float(np.dot(x, x))
    # Per interval length h: the sums of (1 - s/h)^2, s/h (1 - s/h) and (s/h)^2.
    h = np.arange(1.0, n)
    left = np.concatenate(([0.0], (h - 1) * (2 * h - 1) / (6.0 * h)))
    cross = np.concatenate(([0.0], (h * h - 1) / (6.0 * h)))
    right = np.concatenate(([0.0], (h + 1) * (2 * h + 1) / (6.0 * h)))

    def rss(regimes: Regimes) -> np.ndarray:
        b = regimes.ends
        u = np.maximum(regimes.starts, 1)  # the first interval starts at node t = 1
        span = b - u
        sx = X[b] - X[u]
        to_b = (TX[b] - TX[u] - (u - centre) * sx) / span
        # Rows in order of falling interval count, so that the rows still
        # eliminating at each step are a leading slice.
        order = np.argsort(-regimes.m, kind="stable")
        active = np.bincount(regimes.m, minlength=regimes.width)[::-1].cumsum()[::-1]
        slot = np.empty_like(order)
        slot[order] = np.arange(order.size)
        steps = np.zeros((5, regimes.width, order.size))
        at = (regimes.col, slot[regimes.row])
        for table, term in zip(steps, (left[span], sx - to_b, cross[span], right[span], to_b)):
            table[at] = term
        d = np.ones(order.size)
        y = np.full(order.size, X[1])
        explained = np.zeros(order.size)
        kept = np.ones(order.size, bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for j, rows in enumerate(active.tolist()):
                left_j, gain_j, cross_j, right_j, to_b_j = steps[:, j, :rows]
                dj, yj = d[:rows], y[:rows]
                # Node u is complete with this interval's left part: eliminate it.
                dj += left_j
                yj += gain_j
                kept[:rows] &= dj > 0.0
                explained[:rows] += yj * yj / dj
                # Node b starts from the right part, less its coupling to node u.
                ratio = cross_j / dj
                dj[:] = right_j - ratio * cross_j
                yj[:] = to_b_j - ratio * yj
            kept &= d > 0.0
            residual = sxx - explained - y * y / d
        kept &= residual > floor
        out = np.full(order.size, np.nan)
        out[order] = np.where(kept, residual, np.nan)
        return out

    return rss

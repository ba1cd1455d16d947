"""Score-only fits in O(m) from per-regime tables and per-series prefix sums.

A changepoint search scores thousands of configurations of one series.
Every statistic a fit needs is a sum over the observations of each
regime, so cumulative sums built once per series give any regime's sums
by one subtraction, and a configuration with ``m`` changepoints is
scored in O(m) float operations, without fitted values or residual
arrays.  These are the sufficient statistics that segment-neighbourhood
search (Auger and Lawrence 1989) and PELT (Killick et al. 2012) build
on.  This module owns the per-regime formulas below, and the penalties
come from :mod:`cetseg.penalties`.

Where a regime's terms depend only on its start and end, a scorer
tabulates them once per search (:func:`regime_tables`), as segment-
neighbourhood search does: the mean-shift+ar1, trend-shift+ar1 and
trend-shift+wn scorers.  The terms are the regime's RSS and, for AR(1)
errors, the lag-1 sum of its residuals inside it and its first and last
residual, each by the operations of the formulas below in their order,
so a table score is the prefix-sum score bit for bit.  Every term is an
``(N+1, N+1)`` table with entry ``[e, s]`` for the regime ``s+1..e``,
the layout the exact search's DP reads; the RSS is +inf for regimes
shorter than the family's minimum.  A batch score is then one gather
per table, the product straddling each boundary and the
per-configuration sums.  The exact search builds its table and hands it
to its scorer.  The fixed-slope scorer (whose slope is pooled over a
configuration's regimes), the variance-shift scorer and
:func:`joinpin_rss` gather prefix sums on every call.

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
Scorers do not validate configurations: for a regime shorter than the
family's minimum, a table scorer reads an RSS of +inf and junk lag-1
terms.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import ErrorModel, MeanStructure, ModelSpec, Regimes, TimeSeries
from .estimation import LOG_2PI
from .penalties import penalty_function

__all__ = ["score_function", "regime_tables", "by_length", "row_blocks", "joinpin_rss"]

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


def score_function(series: TimeSeries, model: ModelSpec,
                   tables: tuple[list[np.ndarray], float] | None = None) -> Scorer:
    """Fast scorer of ``model`` on ``series``: a :class:`~cetseg.core.Regimes`
    batch -> its scores, NaN where the reference fit must score.

    ``tables`` is the series' :func:`regime_tables` for a mean shift or
    trend shift, where the caller has built them; the scorer then reads
    those arrays."""
    penalty = penalty_function(model, series.n)
    values, structure = series.values, model.mean_structure
    if structure is MeanStructure.VARIANCE_SHIFT:
        return _variance_scorer(values, penalty)
    if structure is MeanStructure.FIXED_SLOPE:
        return _fixed_slope_scorer(values, penalty)
    if tables is None:
        tables = regime_tables(values, model.family.min_len,
                               structure is MeanStructure.TREND_SHIFT,
                               model.error_model is ErrorModel.AR1)
    return _table_scorer(values.size, *tables, penalty)


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


def _pair_sums(x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Prefix sums of the adjacent-pair sums of x x', x + x', x t' + x' t,
    t + t' and t t' (one row each): row ``j`` at ``e`` less at ``a`` sums
    the pairs ``(i, i + 1)`` with ``a <= i < e``."""
    x0, x1, t0, t1 = x[:-1], x[1:], t[:-1], t[1:]
    return _cumsum(np.stack((x0 * x1, x0 + x1, x0 * t1 + x1 * t0, t0 + t1, t0 * t1)))


def _neg2loglik(n: int, rss: np.ndarray, floor: float,
                cross: np.ndarray | None = None, last: np.ndarray | None = None) -> np.ndarray:
    """Per configuration, -2 log-likelihood from its residual sum of squares
    and, for AR(1) errors, the lag-1 cross product and the last residual;
    NaN where rounding could show."""
    kept = rss > floor
    if cross is None:
        n_sigma2 = rss
    else:
        with np.errstate(divide="ignore", invalid="ignore"):
            phi = cross / rss
            n_sigma2 = rss - 2.0 * phi * cross + phi * phi * (rss - last * last)
            kept &= n_sigma2 > CANCELLATION * rss
    return n * (_log(n_sigma2 / n, kept) + 1.0 + LOG_2PI)


def _straddling(regimes: Regimes, closing: np.ndarray, opening: np.ndarray) -> np.ndarray:
    """Per regime, the lag-1 product straddling the boundary it opens: the
    residual closing the previous regime times the one opening this one
    (0.0 for each row's first regime)."""
    out = np.zeros_like(closing)
    out[1:] = closing[:-1] * opening[1:]
    out[regimes.first] = 0.0
    return out


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


def _table_scorer(n: int, tables: list[np.ndarray], floor: float, penalty) -> Scorer:
    """Scores read from :func:`regime_tables`: entry ``[e, s]`` of each
    table holds a term of the regime ``s+1..e``, its RSS and, for AR(1)
    errors, its inside lag-1 sum and its opening and closing residuals."""
    ar1 = len(tables) > 1

    def score(regimes: Regimes) -> np.ndarray:
        at = regimes.ends * (n + 1) + regimes.starts
        terms = [np.take(table, at) for table in tables]
        rss = regimes.row_sums(terms[0])
        if not ar1:
            return _neg2loglik(n, rss, floor) + penalty(regimes)
        _, inside, opening, closing = terms
        cross = regimes.row_sums(inside, _straddling(regimes, closing, opening))
        return _neg2loglik(n, rss, floor, cross, closing[regimes.last]) + penalty(regimes)

    return score


def _fixed_slope_scorer(values: np.ndarray, penalty) -> Scorer:
    """Fixed-slope+ar1 scores from prefix sums: the slope is pooled over a
    configuration's regimes, so a regime's terms depend on the others."""
    n = values.size
    x, t, sums, floor = _centred_sums(values)
    # Within-regime centred sum of squares of t over k consecutive indices.
    k = np.arange(n + 1.0)
    STT = k * (k * k - 1) / 12.0
    xt = np.stack((x, t))
    pairs = _pair_sums(x, t)

    def score(regimes: Regimes) -> np.ndarray:
        a, b, k = regimes.starts, regimes.ends, regimes.lengths
        sx, sxx, st, stx = np.take(sums, b, axis=1) - np.take(sums, a, axis=1)
        level_rss = regimes.row_sums(sxx - sx * sx / k)
        pooled_stx = regimes.row_sums(stx - st * sx / k)
        pooled_stt = regimes.row_sums(STT[k])
        slope = pooled_stx / pooled_stt
        rss = level_rss - slope * pooled_stx
        # Per regime, the level and slope of its line p + q t in the centred
        # coordinates, and the sums over its adjacent pairs (i, i + 1),
        # a <= i < e.
        q = slope[regimes.row]
        p = (sx - q * st) / k
        e = b - 1
        pxx, px, ptx, pt, ptt = np.take(pairs, e, axis=1) - np.take(pairs, a, axis=1)
        (x_a, x_e), (t_a, t_e) = np.take(xt, (a, e), axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            inside = pxx - p * px - q * ptx + (e - a) * p * p + p * q * pt + q * q * ptt
            closing = x_e - p - q * t_e
            straddling = _straddling(regimes, closing, x_a - p - q * t_a)
        cross = regimes.row_sums(inside, straddling)
        return _neg2loglik(n, rss, floor, cross, closing[regimes.last]) + penalty(regimes)

    return score


def by_length(per_difference: np.ndarray) -> np.ndarray:
    """The read-only ``(n+1, n+1)`` view whose entry ``[e, s]`` is the
    value of ``per_difference``, a contiguous array given over ``-n..n``,
    at ``e - s``."""
    n = per_difference.size // 2
    step = per_difference.itemsize
    view = np.ndarray((n + 1, n + 1), per_difference.dtype, per_difference, n * step,
                      (step, -step))
    view.flags.writeable = False
    return view


# Row blocks per pass over a lower-triangular table (see row_blocks).
_BLOCKS = 4


def row_blocks(lo: int, hi: int, count: int = _BLOCKS) -> list[tuple[int, int]]:
    """Rows ``lo..hi-1`` as up to ``count`` runs ``(a, b)`` of near-equal
    length, none empty.  In the tables here, row ``e`` is +inf beyond
    column ``e - min_len``, so a pass that reads, per run, only the columns
    its last row can use skips most of the +inf half: equal runs read the
    least area, ``(1 + 1/count) / 2`` of the full rectangle."""
    cuts = [lo + (hi - lo) * i // count for i in range(count + 1)]
    return [(a, b) for a, b in zip(cuts, cuts[1:]) if a < b]


# Ends per run of the regime-table build, at most: a run costs about 40
# numpy calls, and each of its six scratch buffers holds this many rows.
_RUN_ROWS = 32


def regime_tables(values: np.ndarray, min_len: int, trend: bool,
                  ar1: bool) -> tuple[list[np.ndarray], float]:
    """The per-regime terms of a mean shift or trend shift, and the
    scorers' trust floor.

    Each term is an ``(N+1, N+1)`` table whose entry ``[e, s]`` belongs
    to the regime ``s+1..e``: its RSS and, for AR(1) errors, the lag-1
    sum of its residuals inside it, its opening residual and its closing
    residual.  The RSS is +inf where ``e - s < min_len``; the other
    tables are left junk there.  Each entry is computed by the
    operations, in the order, that the per-regime score formulas apply
    to one regime's prefix sums, with the mean shift's slope the float
    ``0.0``, so an entry is that regime's term bit for bit.  Only the
    lower part is computed, one :func:`row_blocks` run of ends
    ``a..b-1`` at a time (columns up to ``b - 1 - min_len``).  The
    tables are read-only, since the exact search's DP and its scorer
    share one.
    """
    x, t, (X, XX, T, TX), floor = _centred_sums(values)
    n = x.size
    d = np.arange(-n, n + 1.0)
    length = by_length(d)
    stt = by_length(d * (d * d - 1) / 12.0)
    gaps = by_length(d - 1.0)  # the pairs inside a regime
    tables = [np.empty((n + 1, n + 1)) for _ in range(4 if ar1 else 1)]
    if ar1:
        PXX, PX, PTX, PT, PTT = _pair_sums(x, t)
    runs = row_blocks(min_len, n + 1, -(-(n + 1 - min_len) // _RUN_ROWS))
    area = max((b - a) * (b - min_len) for a, b in runs)
    scratch = [np.empty(area) for _ in range(6)]
    for a, b in runs:
        e, s, pe = slice(a, b), slice(0, b - min_len), slice(a - 1, b - 1)
        rss, *lag1 = (table[e, s] for table in tables)
        k = length[e, s]
        sx, u, v, w, q, p = (buffer[:k.size].reshape(k.shape) for buffer in scratch)
        # Entries of regimes shorter than min_len may divide by zero or
        # overflow.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            np.subtract(X[e, None], X[s], out=sx)
            if trend:
                np.subtract(TX[e, None], TX[s], out=u)
                np.subtract(T[e, None], T[s], out=v)  # st
                np.multiply(v, sx, out=w)
                w /= k
                u -= w  # centred t x
                np.divide(u, stt[e, s], out=q)  # the slope
                u *= q
                np.multiply(sx, sx, out=w)
                w /= k
                np.subtract(XX[e, None], XX[s], out=rss)
                rss -= w
                rss -= u
            else:
                np.divide(sx, k, out=p)  # the level
                np.multiply(sx, p, out=w)
                np.subtract(XX[e, None], XX[s], out=rss)
                rss -= w
            if not ar1:
                continue
            inside, opening, closing = lag1
            if trend:
                np.multiply(q, v, out=w)
                np.subtract(sx, w, out=p)
                p /= k  # the level
            else:
                q = 0.0
            # pxx - p px - q ptx + (k - 1) p p + p q pt + q q ptt, in that order
            np.subtract(PXX[pe, None], PXX[s], out=inside)
            np.subtract(PX[pe, None], PX[s], out=u)
            np.multiply(p, u, out=u)
            inside -= u
            np.subtract(PTX[pe, None], PTX[s], out=u)
            np.multiply(q, u, out=u)
            inside -= u
            np.multiply(gaps[e, s], p, out=u)
            u *= p
            inside += u
            np.multiply(p, q, out=u)
            np.subtract(PT[pe, None], PT[s], out=w)
            u *= w
            inside += u
            np.multiply(q, q, out=u)
            np.subtract(PTT[pe, None], PTT[s], out=w)
            u *= w
            inside += u
            # x - p - q t at the regime's first and last index
            for residual, x_i, t_i in ((opening, x[s], t[s]), (closing, x[pe, None], t[pe, None])):
                np.subtract(x_i, p, out=residual)
                np.multiply(q, t_i, out=u)
                residual -= u
    tables[0][length < min_len] = math.inf
    for table in tables:
        table.flags.writeable = False
    return tables, floor


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

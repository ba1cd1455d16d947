"""BIC and MDL penalties for segmented Gaussian models.

Both penalties are added to -2 log likelihood; natural logs throughout.
Both follow from two counts in the family's :data:`~cetseg.core.FAMILIES`
record: ``r`` parameters estimated in each regime and ``g`` estimated
once (the innovation variance and any shared slope), plus ``a = 1``
for the lag-1 coefficient of AR(1) errors.

BIC charges ``k log N`` where ``k = (r + 1) m + r + g + a`` counts
every estimated parameter: ``r`` per regime, the ``m`` changepoint
locations themselves, and the global ones.

MDL charges a code length for the configuration: ``r log(len_k)``
for each regime's parameters (halved units folded into the
coefficients), ``2 log m`` for the count, ``2 log tau_i`` for each
boundary after the first, and ``(g + a) log N`` for the global
parameters.  The empty configuration has MDL 0 by convention.

This module is the only place these rules are written: the fast
scorers, the reference fits and the exact search all read a penalty
through its :func:`penalty_parts`.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .core import (
    ChangepointConfiguration,
    DomainError,
    ErrorModel,
    ModelSpec,
    Penalty,
    Regimes,
)

__all__ = ["penalty_parts", "penalty_function", "penalty_value"]


def penalty_parts(model: ModelSpec, n: int) -> tuple[np.ndarray, float, float]:
    """``(by_count, per_regime, per_boundary)``: ``model`` charges a
    configuration of a length-``n`` series with ``m`` changepoints, regime
    lengths ``len_k`` and boundaries ``tau_i`` the penalty ``by_count[m] +
    per_regime sum_k log len_k + per_boundary sum_{i>=2} log tau_i``.

    BIC depends on ``m`` only.  MDL's ``by_count[0] = -r log N`` cancels
    the one regime's ``r log N``, so the empty configuration is charged 0.
    Raises :class:`DomainError` for the families that carry their own
    scoring rule (joinpin and long-memory)."""
    by_count, per_regime, per_boundary = _rule(model, n)
    return by_count(np.arange(n), _logs), per_regime, per_boundary


def _rule(model: ModelSpec, n: int):
    """:func:`penalty_parts` with ``by_count(m, logs)`` a function: the
    charge at the counts ``m`` (an integer array), where ``logs(k)`` is
    ``math.log`` of each integer ``k`` (0.0 at 0), not called under BIC."""
    family = model.family
    if family.regime_params is None:
        raise DomainError(f"{model.label()} carries its own scoring rule")
    r, g = family.regime_params, family.global_params
    a = int(model.error_model is ErrorModel.AR1)
    log_n = math.log(n)
    if model.penalty is Penalty.BIC:
        return (lambda m, logs: ((r + 1) * m + r + g + a) * log_n), 0.0, 0.0

    def by_count(m: np.ndarray, logs) -> np.ndarray:
        value = (g + a) * log_n + 2.0 * logs(m)
        value[m == 0] = -r * log_n
        return value

    return by_count, float(r), 2.0


def _logs(k: np.ndarray) -> np.ndarray:
    """``math.log`` of each integer in ``k``, 0.0 at 0."""
    return np.fromiter((math.log(v) if v else 0.0 for v in k.tolist()), float, k.size)


def _total(by_count, per_regime: float, log_lengths, per_boundary: float, log_later):
    """The penalty from its parts and a configuration's sums ``sum_k log
    len_k`` and ``sum_{i>=2} log tau_i``, added in this order, for a batch
    (arrays) or one configuration (floats) alike."""
    return by_count + per_regime * log_lengths + per_boundary * log_later


def penalty_function(model: ModelSpec, n: int) -> Callable[[Regimes], np.ndarray]:
    """The penalty of ``model`` on a series of length ``n``, as a function of
    a batch of configurations' :class:`~cetseg.core.Regimes`: one value
    per configuration.  Raises as :func:`penalty_parts`."""
    by_count, per_regime, per_boundary = _rule(model, n)
    if not (per_regime or per_boundary):
        table = by_count(np.arange(n), _logs)
        return lambda regimes: table[regimes.m]
    log_of = _logs(np.arange(n + 1))
    table = by_count(np.arange(n), log_of.__getitem__)

    def additive(regimes: Regimes) -> np.ndarray:
        # every boundary but the first: the starts of regimes 2, 3, ...
        later = np.where(regimes.col >= 2, log_of[regimes.starts], 0.0)
        return _total(table[regimes.m], per_regime, regimes.row_sums(log_of[regimes.lengths]),
                      per_boundary, regimes.row_sums(later))

    return additive


def penalty_value(model: ModelSpec, n: int, config: ChangepointConfiguration) -> float:
    """Penalty charged for ``model`` at ``config`` on a series of length ``n``:
    :func:`penalty_function`'s value for it, from only the logs it uses.

    Raises
    ------
    DomainError
        If ``n < 1`` or a changepoint is not interior to the series, and
        for model families that carry their own scoring rule.
    """
    if n < 1:
        raise DomainError("series length must be >= 1")
    bounds = config.boundaries(n)
    by_count, per_regime, per_boundary = _rule(model, n)
    [count] = by_count(np.array([config.m]), _logs)
    # Running totals from 0.0 in regime order, as Regimes.row_sums adds them.
    log_lengths = sum((math.log(b - a) for a, b in zip(bounds, bounds[1:])), 0.0)
    log_later = sum(map(math.log, config.taus[1:]), 0.0)
    return float(_total(count, per_regime, log_lengths, per_boundary, log_later))

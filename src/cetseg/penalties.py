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
    return _rule(model, n)[:3]


def _rule(model: ModelSpec, n: int):
    """:func:`penalty_parts` and the ``math.log`` table of ``0..n`` (0.0 at
    0) that MDL's ``by_count`` was read from; None under BIC, which takes
    no logs."""
    family = model.family
    if family.regime_params is None:
        raise DomainError(f"{model.label()} carries its own scoring rule")
    r, g = family.regime_params, family.global_params
    a = int(model.error_model is ErrorModel.AR1)
    log_n = math.log(n)
    if model.penalty is Penalty.BIC:
        return ((r + 1) * np.arange(n) + r + g + a) * log_n, 0.0, 0.0, None
    log_of = np.fromiter((math.log(k) if k else 0.0 for k in range(n + 1)), float, n + 1)
    by_count = (g + a) * log_n + 2.0 * log_of[:n]
    by_count[0] = -r * log_n
    return by_count, float(r), 2.0, log_of


def penalty_function(model: ModelSpec, n: int) -> Callable[[Regimes], np.ndarray]:
    """The penalty of ``model`` on a series of length ``n``, as a function of
    a batch of configurations' :class:`~cetseg.core.Regimes`: one value
    per configuration.  Raises as :func:`penalty_parts`."""
    by_count, per_regime, per_boundary, log_of = _rule(model, n)
    if log_of is None:
        return lambda regimes: by_count[regimes.m]

    def additive(regimes: Regimes) -> np.ndarray:
        # every boundary but the first: the starts of regimes 2, 3, ...
        later = np.where(regimes.col >= 2, log_of[regimes.starts], 0.0)
        return (by_count[regimes.m] + per_regime * regimes.row_sums(log_of[regimes.lengths])
                + per_boundary * regimes.row_sums(later))

    return additive


def penalty_value(model: ModelSpec, n: int, config: ChangepointConfiguration) -> float:
    """Penalty charged for ``model`` at ``config`` on a series of length ``n``:
    :func:`penalty_function`'s value on the batch of this one configuration.

    Raises
    ------
    DomainError
        If ``n < 1`` or a changepoint is not interior to the series, and
        for model families that carry their own scoring rule.
    """
    if n < 1:
        raise DomainError("series length must be >= 1")
    config.boundaries(n)  # raises unless every changepoint is interior
    return float(penalty_function(model, n)(Regimes([config.taus], n))[0])

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

__all__ = ["penalty_function", "penalty_value"]


def penalty_function(model: ModelSpec, n: int) -> Callable[[Regimes], np.ndarray]:
    """The penalty of ``model`` on a series of length ``n``, as a function of
    a batch of configurations' :class:`~cetseg.core.Regimes`: one value
    per configuration.

    Raises
    ------
    DomainError
        For model families that carry their own scoring rule (joinpin
        and long-memory).
    """
    family = model.family
    if family.regime_params is None:
        raise DomainError(f"{model.label()} carries its own scoring rule")
    r, g = family.regime_params, family.global_params
    a = int(model.error_model is ErrorModel.AR1)
    log_n = math.log(n)
    if model.penalty is Penalty.BIC:
        return lambda regimes: ((r + 1) * regimes.m + r + g + a) * log_n
    # log k for k = 1..n; index 0 only ever stands for an empty configuration.
    log_of = np.array([0.0, *map(math.log, range(1, n + 1))])

    def mdl(regimes: Regimes) -> np.ndarray:
        m = regimes.m
        value = (g + a) * log_n + 2.0 * log_of[m]
        value += r * regimes.row_sums(log_of[regimes.lengths])
        # every boundary but the first: the starts of regimes 2, 3, ...
        later = np.where(regimes.col >= 2, log_of[regimes.starts], 0.0)
        value += 2.0 * regimes.row_sums(later)
        value[m == 0] = 0.0
        return value

    return mdl


def penalty_value(model: ModelSpec, n: int, config: ChangepointConfiguration) -> float:
    """Penalty charged for ``model`` at ``config`` on a series of length ``n``.

    Raises
    ------
    DomainError
        If ``n < 1`` or a changepoint is not interior to the series, and
        for model families that carry their own scoring rule.
    """
    if n < 1:
        raise DomainError("series length must be >= 1")
    config._check_n(n)
    [value] = penalty_function(model, n)(Regimes([config.taus], n))
    return float(value)

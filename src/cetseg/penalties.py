"""BIC and MDL penalties for segmented Gaussian models.

Both penalties are added to -2 log likelihood; natural logs throughout.

BIC charges ``k log N`` where ``k`` counts every estimated parameter:
the per-regime mean parameters, the changepoint locations themselves,
plus the innovation variance and (for AR(1) errors) the lag-1
coefficient.

MDL charges a code length for the configuration: a cost per estimated
real parameter of ``log(length of the regime it lives in)`` (halved
units folded into the coefficients below), ``2 log m`` for the count,
``2 log tau_i`` for each boundary after the first, and ``log N`` terms
for globally estimated parameters.  The empty configuration has MDL 0
by convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ChangepointConfiguration,
    DomainError,
    ErrorModel,
    MeanStructure,
    ModelSpec,
    Penalty,
    Regimes,
)

__all__ = ["PenaltyContext", "penalty_function", "penalty_value"]


@dataclass(frozen=True)
class PenaltyContext:
    """Everything a penalty depends on: the model, N, and the configuration."""

    model: ModelSpec
    n: int
    config: ChangepointConfiguration

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("series length must be >= 1")
        self.config._check_n(self.n)


# BIC parameter count as a function of m, and the MDL coefficients
# (logn_coeff, seglen_coeff), keyed by (mean structure, error model).
_BIC_K = {
    (MeanStructure.MEAN_SHIFT, ErrorModel.AR1): lambda m: 2 * m + 3,
    (MeanStructure.TREND_SHIFT, ErrorModel.AR1): lambda m: 3 * m + 4,
    (MeanStructure.TREND_SHIFT, ErrorModel.WHITE_NOISE): lambda m: 3 * m + 3,
    (MeanStructure.FIXED_SLOPE, ErrorModel.AR1): lambda m: 2 * m + 4,
    (MeanStructure.VARIANCE_SHIFT, ErrorModel.WHITE_NOISE): lambda m: 2 * m + 1,
}

_MDL_COEFFS = {
    (MeanStructure.MEAN_SHIFT, ErrorModel.AR1): (2.0, 1.0),
    (MeanStructure.TREND_SHIFT, ErrorModel.AR1): (2.0, 2.0),
    (MeanStructure.TREND_SHIFT, ErrorModel.WHITE_NOISE): (1.0, 2.0),
    (MeanStructure.FIXED_SLOPE, ErrorModel.AR1): (3.0, 1.0),
    (MeanStructure.VARIANCE_SHIFT, ErrorModel.WHITE_NOISE): (0.0, 1.0),
}


def penalty_function(model: ModelSpec, n: int) -> Callable[[Regimes], np.ndarray]:
    """The penalty of ``model`` on a series of length ``n``, as a function of
    a batch of configurations' :class:`~cetseg.core.Regimes`: one value
    per configuration.

    Raises
    ------
    DomainError
        For model families scored outside these tables (joinpin and
        long-memory carry their own scoring rules).
    """
    key = (model.mean_structure, model.error_model)
    log_n = math.log(n)
    if model.penalty is Penalty.BIC:
        if key not in _BIC_K:
            raise DomainError(f"no BIC table entry for {model.label()}")
        k_of_m = _BIC_K[key]
        return lambda regimes: k_of_m(regimes.m) * log_n
    if key not in _MDL_COEFFS:
        raise DomainError(f"no MDL table entry for {model.label()}")
    logn_coeff, seglen_coeff = _MDL_COEFFS[key]
    # log k for k = 1..n; index 0 only ever stands for an empty configuration.
    log_of = np.array([0.0, *map(math.log, range(1, n + 1))])

    def mdl(regimes: Regimes) -> np.ndarray:
        m = regimes.m
        value = logn_coeff * log_n + 2.0 * log_of[m]
        value += seglen_coeff * regimes.row_sums(log_of[regimes.lengths])
        # every boundary but the first: the starts of regimes 2, 3, ...
        later = np.where(regimes.col >= 2, log_of[regimes.starts], 0.0)
        value += 2.0 * regimes.row_sums(later)
        value[m == 0] = 0.0
        return value

    return mdl


def penalty_value(ctx: PenaltyContext) -> float:
    """Penalty charged for the model and configuration in ``ctx``.

    Raises
    ------
    DomainError
        For model families scored outside these tables.
    """
    [value] = penalty_function(ctx.model, ctx.n)(Regimes([ctx.config.taus], ctx.n))
    return float(value)

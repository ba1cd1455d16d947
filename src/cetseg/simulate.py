"""Synthetic annual series: piecewise mean/trend signal plus AR(1) noise.

Deterministic for a given seed; the noise recursion is warmed up with a
100-step burn-in so it starts near stationarity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChangepointConfiguration, DomainError, TimeSeries
from .estimation import fitted_mean

__all__ = ["SimSpec", "simulate_series", "BURN_IN"]

BURN_IN = 100


@dataclass(frozen=True)
class SimSpec:
    """Recipe for one synthetic series.

    ``mus`` (and optionally ``betas``) give one level (and slope) per
    regime; regime boundaries are ``taus``.  ``phi = 0`` yields white
    noise.  ``sigma`` is the innovation standard deviation.
    """

    n: int
    taus: tuple[int, ...] = ()
    mus: tuple[float, ...] = (0.0,)
    betas: tuple[float, ...] | None = None
    phi: float = 0.0
    sigma: float = 1.0
    seed: int = 0
    first_year: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        config = ChangepointConfiguration(tuple(self.taus))
        config.boundaries(self.n)
        object.__setattr__(self, "taus", config.taus)
        mus = tuple(float(v) for v in self.mus)
        if len(mus) != config.m + 1:
            raise DomainError(f"need {config.m + 1} regime levels, got {len(mus)}")
        object.__setattr__(self, "mus", mus)
        if self.betas is not None:
            betas = tuple(float(v) for v in self.betas)
            if len(betas) != config.m + 1:
                raise DomainError(f"need {config.m + 1} regime slopes, got {len(betas)}")
            object.__setattr__(self, "betas", betas)
        if not abs(self.phi) < 1.0:
            raise DomainError("|phi| must be < 1 for a stationary noise process")
        for name, value in (("mus", self.mus), ("betas", self.betas), ("sigma", self.sigma)):
            if value is not None and not np.all(np.isfinite(value)):
                raise DomainError(f"{name} must be finite, got {value}")
        if self.sigma < 0.0:
            raise DomainError("sigma must be >= 0")
        if self.seed < 0:
            raise DomainError("seed must be a non-negative integer")

    @property
    def config(self) -> ChangepointConfiguration:
        return ChangepointConfiguration(self.taus)


def simulate_series(spec: SimSpec) -> TimeSeries:
    """Generate the series described by ``spec``.

    With ``sigma = 0`` the output is exactly the piecewise mean.  Two
    calls with the same spec produce identical values.  A spec whose
    values overflow raises :class:`~cetseg.core.DomainError`, from
    :class:`~cetseg.core.TimeSeries`.
    """
    rng = np.random.default_rng(spec.seed)
    total = BURN_IN + spec.n
    with np.errstate(over="ignore", invalid="ignore"):  # TimeSeries rejects the result
        z = spec.sigma * rng.standard_normal(total)
        eps = np.empty(total)
        eps[0] = z[0]
        phi = spec.phi
        for t in range(1, total):
            eps[t] = phi * eps[t - 1] + z[t]
        values = fitted_mean(spec.config, spec.mus, spec.betas, spec.n) + eps[BURN_IN:]
    return TimeSeries(spec.first_year, values)

"""Core types for annual-series changepoint segmentation.

Indexing convention used throughout the package: observations of a
series of length ``N`` carry time indices ``t = 1..N``, mapped to
calendar years through the series' first year.  A changepoint ``tau``
is the time index of the *last* observation of the outgoing regime, so
regime ``i`` (zero-based) covers indices ``tau_i + 1 .. tau_{i+1}``
with the implicit boundaries ``tau_0 = 0`` and ``tau_{m+1} = N``.  In
reports a changepoint is rendered as the first calendar year of the
incoming regime, i.e. ``first_year + tau``.

All types here are immutable after construction and safe to share
across threads read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import chain
from typing import ClassVar, Sequence

import numpy as np

__all__ = [
    "CetsegError",
    "DataError",
    "DomainError",
    "DegenerateFitError",
    "InfeasibleModelError",
    "TimeSeries",
    "ChangepointConfiguration",
    "Regimes",
    "MeanStructure",
    "ErrorModel",
    "Penalty",
    "Family",
    "FAMILIES",
    "ModelSpec",
    "FitResult",
]


class CetsegError(Exception):
    """Base class for package errors."""


class DataError(CetsegError):
    """Raised when input data cannot be parsed or fails validation."""


class DomainError(CetsegError, ValueError):
    """Raised when an argument or configuration violates a contract."""


class DegenerateFitError(CetsegError):
    """Raised when a fit yields a zero innovation variance.

    A configuration that interpolates the data exactly has an undefined
    Gaussian likelihood and must be rejected rather than scored.
    """


class InfeasibleModelError(CetsegError):
    """Raised when a series is too short for a model's segment constraints."""


def _as_readonly_float64(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise DomainError(f"expected a 1-d array of values, got shape {arr.shape}")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """An annual series: consecutive calendar years with one value each.

    Parameters
    ----------
    first_year : int
        Calendar year of the first observation.
    values : array_like
        Observed values, one per consecutive year.  Must be finite, and
        so must ``(N max|x|)^2``; missing values are rejected at
        ingestion, not here represented.
    """

    first_year: int
    values: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_float64(self.values)
        if arr.size == 0:
            raise DomainError("series must contain at least one observation")
        if not np.all(np.isfinite(arr)):
            raise DomainError("series values must be finite")
        # The fits' largest term is a regime sum squared, up to (N max|x|)^2.
        bound = arr.size * float(np.max(np.abs(arr)))
        if not math.isfinite(bound * bound):
            raise DomainError("series values are too large: at (N max|x|)^2 a fit's "
                              "sum of squares overflows")
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "first_year", int(self.first_year))

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def last_year(self) -> int:
        return self.first_year + self.n - 1

    def year_of(self, t: int) -> int:
        """Calendar year of time index ``t`` (1-based)."""
        if not 1 <= t <= self.n:
            raise DomainError(f"time index {t} outside 1..{self.n}")
        return self.first_year + t - 1

    def restrict(self, from_year: int | None = None, to_year: int | None = None) -> "TimeSeries":
        """Return the sub-series covering ``from_year..to_year`` inclusive."""
        lo = self.first_year if from_year is None else int(from_year)
        hi = self.last_year if to_year is None else int(to_year)
        if lo > hi:
            raise DomainError(f"empty year range {lo}..{hi}")
        if lo < self.first_year or hi > self.last_year:
            raise DomainError(
                f"range {lo}..{hi} outside available {self.first_year}..{self.last_year}"
            )
        return TimeSeries(lo, self.values[lo - self.first_year : hi - self.first_year + 1])

    def __eq__(self, other):
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.first_year == other.first_year and np.array_equal(
            self.values, other.values
        )

    def __repr__(self):
        return f"TimeSeries(first_year={self.first_year}, n={self.n})"


@dataclass(frozen=True)
class ChangepointConfiguration:
    """A set of interior regime boundaries.

    ``taus`` are strictly increasing time indices; each marks the last
    observation of the regime it closes.  ``m = len(taus)`` regimes
    changes split the series into ``m + 1`` regimes.
    """

    taus: tuple[int, ...] = ()

    def __post_init__(self):
        taus = tuple(int(tau) for tau in self.taus)
        if any(tau < 1 for tau in taus):
            raise DomainError(f"changepoints must be >= 1, got {taus}")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise DomainError(f"changepoints must be strictly increasing, got {taus}")
        object.__setattr__(self, "taus", taus)

    @property
    def m(self) -> int:
        return len(self.taus)

    def boundaries(self, n: int) -> tuple[int, ...]:
        """Boundary indices including the implicit 0 and ``n``.  Raises
        :class:`DomainError` unless every changepoint is interior to a series
        of length ``n``."""
        if self.taus and self.taus[-1] >= n:
            raise DomainError(
                f"changepoint {self.taus[-1]} not interior to a series of length {n}"
            )
        return (0, *self.taus, n)

    def regime_lengths(self, n: int) -> tuple[int, ...]:
        b = self.boundaries(n)
        return tuple(b[i + 1] - b[i] for i in range(len(b) - 1))

    def slices(self, n: int) -> tuple[slice, ...]:
        """Zero-based array slices, one per regime, covering 0..n."""
        b = self.boundaries(n)
        return tuple(slice(b[i], b[i + 1]) for i in range(len(b) - 1))

    def validate_for(self, n: int, min_segment_length: int = 1) -> None:
        """Raise :class:`DomainError` unless every regime has the required length."""
        if min_segment_length < 1:
            raise DomainError("min_segment_length must be >= 1")
        lengths = self.regime_lengths(n)
        if min(lengths) < min_segment_length:
            raise DomainError(
                f"configuration {self.taus} has a regime shorter than "
                f"{min_segment_length} in a series of length {n}"
            )


class Regimes:
    """The regimes of a batch of boundary tuples on a series of length ``n``,
    as flat arrays.

    Arrays with one entry per regime run over the batch row by row, each
    row's regimes in time order: regime ``col`` of row ``row`` covers
    indices ``starts + 1 .. ends``, ``lengths`` observations.  ``m``
    counts each row's changepoints, ``first`` and ``last`` index its
    first and last regime, and ``width`` is the most regimes in a row.
    Boundaries are not validated.
    """

    def __init__(self, configs: Sequence[tuple[int, ...]], n: int):
        m = np.fromiter(map(len, configs), np.intp, len(configs))
        self._lay_out(m, np.fromiter(chain.from_iterable(configs), np.intp, int(m.sum())), n)

    @classmethod
    def from_flat(cls, m: np.ndarray, taus: np.ndarray, n: int) -> "Regimes":
        """The batch whose row ``i`` has the next ``m[i]`` boundaries of the
        flat array ``taus``, rows in order."""
        regimes = cls.__new__(cls)
        regimes._lay_out(m, taus, n)
        return regimes

    def _lay_out(self, m: np.ndarray, taus: np.ndarray, n: int) -> None:
        self.m = m
        counts = m + 1
        self.last = np.cumsum(counts) - 1
        self.first = self.last - m
        self.row = np.repeat(np.arange(m.size), counts)
        self.col = np.arange(self.row.size) - self.first[self.row]
        self.width = int(counts.max())
        self.ends = np.full(self.row.size, n)
        closed = np.ones(self.row.size, bool)
        closed[self.last] = False
        self.ends[closed] = taus
        self.starts = np.empty_like(self.ends)
        self.starts[1:] = self.ends[:-1]
        self.starts[self.first] = 0
        self.lengths = self.ends - self.starts

    def taus(self, row: int) -> tuple[int, ...]:
        """The boundary tuple of row ``row``."""
        return tuple(self.ends[self.first[row]:self.last[row]].tolist())

    def row_sums(self, *terms: np.ndarray) -> np.ndarray:
        """Per-row sums of per-regime ``terms``, added one at a time in
        regime order and, within a regime, in the order given: the same
        floating-point result as a running total in a loop, because
        ``np.bincount`` adds its weights in index order."""
        if len(terms) == 1:
            return np.bincount(self.row, terms[0], self.m.size)
        return np.bincount(np.repeat(self.row, len(terms)),
                           np.column_stack(terms).reshape(-1), self.m.size)


class MeanStructure(str, Enum):
    """What part of the observation model shifts between regimes."""

    MEAN_SHIFT = "mean-shift"
    TREND_SHIFT = "trend-shift"
    FIXED_SLOPE = "fixed-slope"
    VARIANCE_SHIFT = "variance-shift"
    JOINPIN = "joinpin"
    LONG_MEMORY = "long-memory"


class ErrorModel(str, Enum):
    WHITE_NOISE = "wn"
    AR1 = "ar1"


class Penalty(str, Enum):
    BIC = "bic"
    MDL = "mdl"


@dataclass(frozen=True)
class Family:
    """What one mean structure is, for every module that needs to know.

    ``errors`` lists the error models it is scored with, the command-line
    default first; ``penalties`` the penalties it is scored under.
    ``min_len`` is the shortest regime it can estimate its parameters
    on (``None``: it has no regimes).  ``regime_params`` counts the
    parameters each regime estimates (its level and slope, or its
    variance) and ``global_params`` those estimated once for the whole
    series (the innovation variance and a shared slope); from them
    :mod:`cetseg.penalties` derives both penalties.  They are ``None``
    for families that carry their own scoring rule.
    """

    errors: tuple[ErrorModel, ...]
    penalties: tuple[Penalty, ...]
    min_len: int | None
    regime_params: int | None = None
    global_params: int | None = None


_AR1, _WN = ErrorModel.AR1, ErrorModel.WHITE_NOISE
_BOTH = (Penalty.BIC, Penalty.MDL)

FAMILIES = {
    MeanStructure.MEAN_SHIFT: Family((_AR1,), _BOTH, 1, 1, 1),
    MeanStructure.TREND_SHIFT: Family((_AR1, _WN), _BOTH, 3, 2, 1),
    MeanStructure.FIXED_SLOPE: Family((_AR1,), _BOTH, 2, 1, 2),
    MeanStructure.VARIANCE_SHIFT: Family((_WN,), _BOTH, 2, 1, 0),
    MeanStructure.JOINPIN: Family((_WN,), (Penalty.BIC,), 2),
    MeanStructure.LONG_MEMORY: Family((_WN, _AR1), (Penalty.BIC,), None),
}


@dataclass(frozen=True)
class ModelSpec:
    """A supported (mean structure, error model, penalty) combination.

    Construction rejects combinations its :data:`FAMILIES` record does
    not list, e.g. mean shifts with white-noise errors or joinpin under
    MDL.
    """

    mean_structure: MeanStructure
    error_model: ErrorModel
    penalty: Penalty = Penalty.BIC

    def __post_init__(self):
        ms = MeanStructure(self.mean_structure)
        em = ErrorModel(self.error_model)
        pen = Penalty(self.penalty)
        object.__setattr__(self, "mean_structure", ms)
        object.__setattr__(self, "error_model", em)
        object.__setattr__(self, "penalty", pen)
        family = FAMILIES[ms]
        if em not in family.errors:
            allowed = " or ".join(sorted(e.value for e in family.errors))
            raise DomainError(f"{ms.value} is scored with {allowed} errors only")
        if pen not in family.penalties:
            allowed = " or ".join(p.name for p in family.penalties)
            raise DomainError(f"{ms.value} is scored under {allowed} only")

    @property
    def family(self) -> Family:
        return FAMILIES[self.mean_structure]

    def label(self) -> str:
        return f"{self.mean_structure.value}+{self.error_model.value}/{self.penalty.value}"


@dataclass(frozen=True)
class FitResult:
    """A scored fit of one model at one changepoint configuration.

    The one result type of every family: joinpin and long-memory fits
    are subclasses that add the fields only they have, and list them in
    ``extra_keys``, the names serialization reports besides the common
    ones.

    ``score`` is always ``neg2loglik + penalty_value``; it is computed
    here rather than accepted, so the identity holds exactly.

    ``means`` and ``slopes`` hold one entry per regime where the mean
    structure defines them (``slopes`` is ``None`` for pure mean
    shifts); each regime's mean at time ``t`` is ``means[i] +
    slopes[i] * t``.  ``regime_variances`` is populated only for
    variance-shift fits, where it holds the per-regime error variances.
    """

    extra_keys: ClassVar[tuple[str, ...]] = ()

    model: ModelSpec
    config: ChangepointConfiguration
    neg2loglik: float
    penalty_value: float
    means: tuple[float, ...] | None = None
    slopes: tuple[float, ...] | None = None
    regime_variances: tuple[float, ...] | None = None
    phi_hat: float | None = None
    sigma2_hat: float | None = None
    score: float = field(init=False)

    def __post_init__(self):
        if not math.isfinite(self.neg2loglik):
            raise DomainError("neg2loglik must be finite")
        if not math.isfinite(self.penalty_value):
            raise DomainError("penalty_value must be finite")
        object.__setattr__(self, "score", self.neg2loglik + self.penalty_value)

    @property
    def loglik(self) -> float:
        return -0.5 * self.neg2loglik

    def changepoint_years(self, series: TimeSeries) -> tuple[int, ...]:
        """Calendar years flagged: the first year of each new regime."""
        return tuple(series.first_year + tau for tau in self.config.taus)

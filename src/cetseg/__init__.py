"""Changepoint segmentation of annual temperature series.

Detects shifts in mean, trend, or variance by minimizing a penalized
Gaussian likelihood (BIC or MDL penalties) over changepoint
configurations, exactly for trend shifts with white-noise errors and
with a genetic-algorithm search otherwise, and fits two
non-changepoint alternatives (a continuous joinpoint model and a
long-memory model) for side-by-side comparison.
"""

from .core import (
    CetsegError,
    ChangepointConfiguration,
    DataError,
    DegenerateFitError,
    DomainError,
    ErrorModel,
    FitResult,
    InfeasibleModelError,
    MeanStructure,
    ModelSpec,
    Penalty,
    TimeSeries,
)
from .joinpin import JoinpinFit, fit_joinpin, joinpin_search
from .longmemory import ArfimaFit, fit_arfima, frac_diff
from .search import (
    GAParams,
    SearchReport,
    evaluate,
    exact_optimize,
    exhaustive_optimize,
    ga_optimize,
    min_segment_length,
    solve,
)
from .simulate import SimSpec, simulate_series

__version__ = "0.1.0"

__all__ = [
    "CetsegError",
    "DataError",
    "DomainError",
    "DegenerateFitError",
    "InfeasibleModelError",
    "TimeSeries",
    "ChangepointConfiguration",
    "MeanStructure",
    "ErrorModel",
    "Penalty",
    "ModelSpec",
    "FitResult",
    "GAParams",
    "SearchReport",
    "evaluate",
    "exact_optimize",
    "exhaustive_optimize",
    "ga_optimize",
    "min_segment_length",
    "solve",
    "JoinpinFit",
    "fit_joinpin",
    "joinpin_search",
    "ArfimaFit",
    "fit_arfima",
    "frac_diff",
    "SimSpec",
    "simulate_series",
    "__version__",
]

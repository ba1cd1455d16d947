"""Data ingestion and result serialization.

Two input formats are supported: the Met Office annual layout (rows of
year, 12 monthly means, annual mean, with optional header lines and
missing values coded -99.9 / -99.99) and plain two-column CSV
(year,value with an optional single header line).  Both enforce
consecutive years and fail hard on malformed rows, naming the line.

Serialization keeps one JSON shape for every model family (schema
shipped in ``schemas/result.schema.json``), read from the fields every
:class:`~cetseg.core.FitResult` has plus the family's own
``extra_keys``; dumps are key-sorted so identical results are
byte-identical.
"""

from __future__ import annotations

import csv
import io as _io
import json
import warnings
from dataclasses import asdict
from typing import Any, Callable, Iterator

from .core import DataError, DomainError, FitResult, TimeSeries
from .estimation import fitted_mean
from .search import GAParams

__all__ = [
    "MISSING_CODES",
    "parse_hadcet",
    "parse_csv",
    "load_series",
    "series_to_csv",
    "decomposition_to_csv",
    "result_to_dict",
    "fitted_values_of",
    "dumps_json",
]

MISSING_CODES = (-99.9, -99.99)

_Rows = Iterator[tuple[int, float, int]]  # (year, value, line number)


def _is_missing(value: float) -> bool:
    return any(value == code for code in MISSING_CODES)


def _build_series(text: str, rows_of: Callable[[str], _Rows], what: str,
                  value_name: str, drop_reason: str) -> TimeSeries:
    """Assemble the (year, value, lineno) rows that ``rows_of`` reads from
    ``text``, less a leading byte-order mark, into a series: a missing final
    value is dropped with a warning as the in-progress year, and any other
    missing value or a break in the consecutive years is an error."""
    rows = list(rows_of(text.removeprefix("\ufeff")))
    if rows and _is_missing(rows[-1][1]):
        warnings.warn(f"dropping year {rows[-1][0]}: {drop_reason}", stacklevel=3)
        rows.pop()
    for year, value, lineno in rows:
        if _is_missing(value):
            raise DataError(f"line {lineno}: missing {value_name} for year {year}")
    if not rows:
        raise DataError(f"no data rows found in {what} input")
    for (y0, _, _), (y1, _, line) in zip(rows, rows[1:]):
        if y1 == y0:
            raise DataError(f"line {line}: duplicate year {y1}")
        if y1 != y0 + 1:
            raise DataError(f"line {line}: year {y1} does not follow {y0} (gap)")
    try:
        return TimeSeries(rows[0][0], [r[1] for r in rows])
    except DomainError as err:
        raise DataError(str(err)) from err


def parse_hadcet(text: str) -> TimeSeries:
    """Parse the Met Office annual layout into a series of annual means.

    Header lines before the first row of 14 numeric fields starting with
    a year are skipped, unless they start with a year followed by a
    number or have 14 fields: such a line is a malformed data row, an
    error naming its line, as is any malformed row after the first.  A
    missing annual mean is an error unless it is the final row, which is
    dropped with a warning as the in-progress year.
    """
    return _build_series(text, _hadcet_rows, "annual-layout", "annual mean",
                         "annual mean not yet available")


def _hadcet_rows(text: str) -> _Rows:
    in_data = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        tokens = line.split()
        if not tokens:
            continue
        parsed = _try_hadcet_row(tokens)
        if parsed is None:
            # A year and 13 more fields, or a year and a number, is a data
            # row; a header line such as "1659 onward" is neither.
            if in_data or _parses(tokens[0]) and (
                    len(tokens) == 14 or len(tokens) > 1 and _parses(tokens[1], float)):
                raise DataError(f"line {lineno}: malformed row {line.strip()!r}")
            continue
        in_data = True
        yield *parsed, lineno


def _try_hadcet_row(tokens: list[str]) -> tuple[int, float] | None:
    if len(tokens) != 14:
        return None
    try:
        year = int(tokens[0])
        values = [float(tok) for tok in tokens[1:]]
    except ValueError:
        return None
    return year, values[-1]


def parse_csv(text: str) -> TimeSeries:
    """Parse two-column (year, value) CSV, optional single header line."""
    return _build_series(text, _csv_rows, "csv", "value", "value marked missing")


def _csv_rows(text: str) -> _Rows:
    for lineno, record in enumerate(csv.reader(_io.StringIO(text)), start=1):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != 2:
            raise DataError(f"line {lineno}: expected 2 columns, got {len(record)}")
        try:
            year = int(record[0].strip())
            value = float(record[1].strip())
        except ValueError:
            # Only a first line whose year cell is no integer is a header.
            if lineno == 1 and not _parses(record[0].strip()):
                continue
            raise DataError(
                f"line {lineno}: non-numeric cell in {record!r}"
            ) from None
        yield year, value, lineno


def _parses(cell: str, kind: type = int) -> bool:
    try:
        kind(cell)
    except ValueError:
        return False
    return True


def load_series(path: str, fmt: str = "hadcet") -> TimeSeries:
    """Read a series from a UTF-8 file, with or without a byte-order mark."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise DataError(f"cannot read {path}: {err}") from err
    if fmt == "hadcet":
        return parse_hadcet(text)
    if fmt == "csv":
        return parse_csv(text)
    raise DataError(f"unknown input format {fmt!r}")


def series_to_csv(series: TimeSeries) -> str:
    out = ["year,value"]
    for t, value in enumerate(series.values, start=1):
        out.append(f"{series.year_of(t)},{float(value)!r}")
    return "\n".join(out) + "\n"


def decomposition_to_csv(series: TimeSeries, fitted) -> str:
    """CSV of (year, observed, fitted, residual), one row per year."""
    if len(fitted) != series.n:
        raise DomainError("fitted values must align with the series")
    out = ["year,observed,fitted,residual"]
    for t in range(series.n):
        obs = float(series.values[t])
        fit = float(fitted[t])
        out.append(f"{series.first_year + t},{obs!r},{fit!r},{obs - fit!r}")
    return "\n".join(out) + "\n"


def _ga_params_dict(params: GAParams | None) -> dict[str, Any] | None:
    if params is None:
        return None
    # the seed is reported once, at the top level
    return {key: value for key, value in asdict(params).items() if key != "seed"}


def _segments(fit: FitResult, series: TimeSeries) -> list[dict[str, Any]]:
    """One entry per regime; none for a family without regimes."""
    if fit.model.family.min_len is None:
        return []
    bounds = fit.config.boundaries(series.n)
    segments = []
    for i in range(len(bounds) - 1):
        seg: dict[str, Any] = {
            "start_year": series.first_year + bounds[i],
            "end_year": series.first_year + bounds[i + 1] - 1,
            "intercept": None if fit.means is None else fit.means[i],
            "slope": None if fit.slopes is None else fit.slopes[i],
        }
        if fit.regime_variances is not None:
            seg["variance"] = fit.regime_variances[i]
        segments.append(seg)
    return segments


def result_to_dict(
    fit: FitResult,
    series: TimeSeries,
    seed: int | None,
    ga_params: GAParams | None,
) -> dict[str, Any]:
    """One JSON-ready dict per fitted model, same shape for every family."""
    out: dict[str, Any] = {
        "seed": seed,
        "ga_params": _ga_params_dict(ga_params),
        "input": {"first_year": series.first_year, "last_year": series.last_year,
                  "n": series.n},
        "model": fit.model.mean_structure.value,
        "errors": fit.model.error_model.value,
        "penalty": fit.model.penalty.value,
        "changepoint_years": list(fit.changepoint_years(series)),
        "segments": _segments(fit, series),
        "phi_hat": fit.phi_hat,
        "sigma2_hat": fit.sigma2_hat,
        "loglik": fit.loglik,
        "penalty_value": fit.penalty_value,
        "score": fit.score,
    }
    out.update((key, getattr(fit, key)) for key in fit.extra_keys)
    return out


def fitted_values_of(fit: FitResult, series: TimeSeries):
    """Mean-function values at every t, for plots and decomposition CSV."""
    if fit.means is None:
        raise DomainError(f"{fit.model.label()} has no mean function")
    return fitted_mean(fit.config, fit.means, fit.slopes, series.n)


def dumps_json(obj: Any) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, indent=2, sort_keys=True, allow_nan=False) + "\n"

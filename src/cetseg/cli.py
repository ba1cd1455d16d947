"""Command-line interface.

Subcommands: ``fit`` (one model), ``compare`` (the full model table),
``residuals`` (mean-decomposition CSV), ``simulate`` (synthetic data).
Exit codes: 0 success, 2 bad input data or request/data mismatch,
3 infeasible model constraints.

The seed used is always surfaced: inside JSON and table output, on
stderr for CSV output.  ``CETSEG_SEED`` overrides the default seed
when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass
from typing import Any

from .core import (
    DataError,
    DegenerateFitError,
    DomainError,
    ErrorModel,
    InfeasibleModelError,
    MeanStructure,
    ModelSpec,
    Penalty,
    TimeSeries,
)
from .estimation import fitted_mean
from .io import (
    decomposition_to_csv,
    dumps_json,
    fitted_values_of,
    load_series,
    result_to_dict,
    series_to_csv,
)
from .joinpin import joinpin_search
from .longmemory import fit_arfima
from .plotting import emit_plot
from .search import GAParams, ga_optimize
from .simulate import SimSpec, simulate_series

__all__ = ["main", "build_parser", "AnalysisRequest", "run_analysis"]

_MODEL_CHOICES = [ms.value for ms in MeanStructure]
_DEFAULT_ERRORS = {
    "mean-shift": "ar1",
    "trend-shift": "ar1",
    "fixed-slope": "ar1",
    "variance-shift": "wn",
    "joinpin": "wn",
    "long-memory": "wn",
}

# (model, errors, penalty) rows of the comparison table, in emit order.
_COMPARE_ROWS = [
    ("mean-shift", "ar1", "bic"),
    ("mean-shift", "ar1", "mdl"),
    ("trend-shift", "ar1", "bic"),
    ("trend-shift", "ar1", "mdl"),
    ("trend-shift", "wn", "bic"),
    ("trend-shift", "wn", "mdl"),
    ("fixed-slope", "ar1", "bic"),
    ("fixed-slope", "ar1", "mdl"),
    ("joinpin", "wn", "bic"),
    ("long-memory", "wn", "bic"),
    ("long-memory", "ar1", "bic"),
]


@dataclass(frozen=True)
class AnalysisRequest:
    """One resolved model-fitting request (everything the run needs)."""

    series: TimeSeries
    model: str
    errors: str
    penalty: str
    ga_params: GAParams
    max_m: int | None = None
    sigma2: float | None = None


def _add_input_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="path to the data file")
    p.add_argument("--format", choices=["hadcet", "csv"], default="hadcet",
                   help="input layout (default: hadcet annual)")
    p.add_argument("--from", dest="from_year", type=int, default=None,
                   metavar="YEAR", help="first year to analyze")
    p.add_argument("--to", dest="to_year", type=int, default=None,
                   metavar="YEAR", help="last year to analyze")


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="search seed (default: $CETSEG_SEED or 0)")
    p.add_argument("--population", type=int, default=None, metavar="P",
                   help="GA population size")
    p.add_argument("--generations", type=int, default=None, metavar="G",
                   help="GA generation cap")
    p.add_argument("--stagnation", type=int, default=None, metavar="S",
                   help="stop after S generations without improvement")
    p.add_argument("--max-m", type=int, default=None, metavar="M",
                   help="cap on the number of changepoints")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    p.add_argument("--errors", choices=["wn", "ar1"], default=None,
                   help="error model (default depends on --model; for "
                        "long-memory, ar1 selects the p=1 variant)")
    p.add_argument("--penalty", choices=["bic", "mdl"], default="bic")
    p.add_argument("--sigma2", type=float, default=None,
                   help="fixed error variance for joinpin (default: "
                        "taken from a trend-shift+wn fit)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cetseg",
        description="Changepoint segmentation of annual temperature series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="fit one model and report it")
    _add_input_args(p_fit)
    _add_model_args(p_fit)
    _add_search_args(p_fit)
    p_fit.add_argument("--out", choices=["json", "csv", "table"], default="table",
                       help="stdout format (csv = year,observed,fitted,residual)")
    p_fit.add_argument("--plot", default=None, metavar="PATH",
                       help="write an SVG of the fit")

    p_cmp = sub.add_parser("compare", help="fit the whole model table")
    _add_input_args(p_cmp)
    _add_search_args(p_cmp)
    p_cmp.add_argument("--sigma2", type=float, default=None,
                       help="fixed error variance for the joinpin row")
    p_cmp.add_argument("--out", choices=["json", "table"], default="table")

    p_res = sub.add_parser("residuals",
                           help="emit year,observed,fitted,residual CSV")
    _add_input_args(p_res)
    _add_model_args(p_res)
    _add_search_args(p_res)

    p_sim = sub.add_parser("simulate", help="generate a synthetic series as CSV")
    p_sim.add_argument("--n", type=int, required=True)
    p_sim.add_argument("--taus", default="", metavar="T1,T2,...",
                       help="regime boundaries (time indices)")
    p_sim.add_argument("--mu", default="0", metavar="M0,M1,...",
                       help="per-regime levels")
    p_sim.add_argument("--beta", default=None, metavar="B0,B1,...",
                       help="per-regime slopes (default: none)")
    p_sim.add_argument("--phi", type=float, default=0.0)
    p_sim.add_argument("--sigma", type=float, default=1.0)
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.add_argument("--first-year", type=int, default=1)
    return parser


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("CETSEG_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise DataError(f"CETSEG_SEED must be an integer, got {env!r}") from None
    return 0


def _ga_params(args: argparse.Namespace) -> GAParams:
    defaults = GAParams()
    return GAParams(
        population_size=args.population if args.population is not None
        else defaults.population_size,
        max_generations=args.generations if args.generations is not None
        else defaults.max_generations,
        stagnation_limit=args.stagnation if args.stagnation is not None
        else defaults.stagnation_limit,
        seed=_resolve_seed(args.seed),
    )


def _load(args: argparse.Namespace) -> TimeSeries:
    series = load_series(args.input, args.format)
    if args.from_year is not None or args.to_year is not None:
        try:
            series = series.restrict(args.from_year, args.to_year)
        except DomainError as err:
            raise DataError(str(err)) from err
    return series


def run_analysis(req: AnalysisRequest) -> dict[str, Any]:
    """Fit one model per the request; returns the JSON-shaped result.

    The variance-shift workflow is two-stage: a trend-shift+wn search
    fixes the mean structure, and the variance search runs on its
    residuals.  The fitted values reported for it are the trend
    stage's, since the variance model has no mean function.
    """
    series = req.series
    params = req.ga_params
    model = req.model

    if model == "long-memory":
        if req.penalty != "bic":
            raise DomainError("long-memory is scored under BIC only")
        fit = fit_arfima(series, p=1 if req.errors == "ar1" else 0)
        result = result_to_dict(fit, series, params.seed, None)
        result["_fitted"] = fitted_values_of(fit, series)
        result["_fit"] = fit
        return result

    if model == "joinpin":
        if req.penalty != "bic":
            raise DomainError("joinpin is scored under BIC only")
        sigma2 = req.sigma2
        if sigma2 is None:
            stage = ga_optimize(series, ModelSpec("trend-shift", "wn", "bic"),
                                params, max_m=req.max_m)
            sigma2 = stage.best.sigma2_hat
        fit = joinpin_search(series, sigma2, max_m=req.max_m, params=params)
        result = result_to_dict(fit, series, params.seed, params)
        result["_fitted"] = fitted_values_of(fit, series)
        result["_fit"] = fit
        return result

    if model == "variance-shift":
        stage = ga_optimize(series, ModelSpec("trend-shift", "wn", req.penalty),
                            params, max_m=req.max_m)
        trend = stage.best
        trend_fitted = fitted_mean(trend.config, trend.means, trend.slopes, series.n)
        residual_series = TimeSeries(series.first_year, series.values - trend_fitted)
        report = ga_optimize(residual_series,
                             ModelSpec("variance-shift", "wn", req.penalty),
                             params, max_m=req.max_m)
        result = result_to_dict(report.best, series, params.seed, params)
        result["_fitted"] = trend_fitted
        result["_fit"] = report.best
        return result

    spec = ModelSpec(model, req.errors, req.penalty)
    report = ga_optimize(series, spec, params, max_m=req.max_m)
    result = result_to_dict(report.best, series, params.seed, params)
    result["_fitted"] = fitted_values_of(report.best, series)
    result["_fit"] = report.best
    return result


def _strip_private(result: dict[str, Any]) -> dict[str, Any]:
    return {k: v for k, v in result.items() if not k.startswith("_")}


def _table_row(result: dict[str, Any]) -> str:
    years = ",".join(str(y) for y in result["changepoint_years"]) or "-"
    return (
        f"{result['model']:<15} {result['errors']:<4} {result['penalty']:<4} "
        f"{years:<42} {result['loglik']:>9.2f} {result['score']:>9.2f}"
    )


_TABLE_HEADER = (
    f"{'model':<15} {'errs':<4} {'pen':<4} {'changepoint years':<42} "
    f"{'loglik':>9} {'score':>9}"
)


def _cmd_fit(args: argparse.Namespace) -> int:
    series = _load(args)
    req = AnalysisRequest(
        series=series,
        model=args.model,
        errors=args.errors or _DEFAULT_ERRORS[args.model],
        penalty=args.penalty,
        ga_params=_ga_params(args),
        max_m=args.max_m,
        sigma2=args.sigma2,
    )
    result = run_analysis(req)
    if args.plot:
        emit_plot(series, result["_fit"], args.plot,
                  title=f"{result['model']} ({result['errors']}, {result['penalty']})")
    if args.out == "json":
        sys.stdout.write(dumps_json(_strip_private(result)))
    elif args.out == "csv":
        sys.stdout.write(decomposition_to_csv(series, result["_fitted"]))
        print(f"seed: {result['seed']}", file=sys.stderr)
    else:
        print(_TABLE_HEADER)
        print(_table_row(result))
        print(f"seed: {result['seed']}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    series = _load(args)
    params = _ga_params(args)
    rows = []
    sigma2 = args.sigma2
    for model, errors, penalty in _COMPARE_ROWS:
        req = AnalysisRequest(
            series=series, model=model, errors=errors, penalty=penalty,
            ga_params=params, max_m=args.max_m, sigma2=sigma2,
        )
        result = run_analysis(req)
        if model == "trend-shift" and errors == "wn" and penalty == "bic" and sigma2 is None:
            sigma2 = result["sigma2_hat"]
        rows.append(_strip_private(result))
    report = {
        "seed": params.seed,
        "input": {"first_year": series.first_year, "last_year": series.last_year,
                  "n": series.n},
        "rows": rows,
    }
    if args.out == "json":
        sys.stdout.write(dumps_json(report))
    else:
        print(_TABLE_HEADER)
        for row in rows:
            print(_table_row(row))
        print(f"seed: {params.seed}")
    return 0


def _cmd_residuals(args: argparse.Namespace) -> int:
    series = _load(args)
    req = AnalysisRequest(
        series=series,
        model=args.model,
        errors=args.errors or _DEFAULT_ERRORS[args.model],
        penalty=args.penalty,
        ga_params=_ga_params(args),
        max_m=args.max_m,
        sigma2=args.sigma2,
    )
    result = run_analysis(req)
    sys.stdout.write(decomposition_to_csv(series, result["_fitted"]))
    print(f"seed: {result['seed']}", file=sys.stderr)
    return 0


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise DataError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    taus = tuple(int(v) for v in _parse_floats(args.taus, "--taus"))
    spec = SimSpec(
        n=args.n,
        taus=taus,
        mus=_parse_floats(args.mu, "--mu"),
        betas=_parse_floats(args.beta, "--beta") if args.beta is not None else None,
        phi=args.phi,
        sigma=args.sigma,
        seed=_resolve_seed(args.seed),
        first_year=args.first_year,
    )
    sys.stdout.write(series_to_csv(simulate_series(spec)))
    print(f"seed: {spec.seed}", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "residuals":
            return _cmd_residuals(args)
        return _cmd_simulate(args)
    except (DataError, DegenerateFitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (InfeasibleModelError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface.

Subcommands: ``fit`` (one model), ``compare`` (the full model table),
``residuals`` (``fit --out csv``), ``simulate`` (synthetic data).
``compare`` runs its rows in two groups, each in table order: the seven
BIC rows (joinpin and the two long-memory rows among them), then the
four MDL rows.  One forked worker process runs the MDL group while this
process runs the BIC group; where fork is unsafe or missing (macOS,
Windows, a process running other threads) or only one CPU is in its
affinity, this process runs both.  The rows print in table order.
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

import numpy as np

from .core import (
    FAMILIES,
    DataError,
    DegenerateFitError,
    DomainError,
    FitResult,
    InfeasibleModelError,
    MeanStructure,
    ModelSpec,
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
from .joinpin import check_variance, joinpin_search
from .longmemory import fit_arfima
from .plotting import emit_plot
from .search import GAParams, shared_draws, solve
from .simulate import SimSpec, simulate_series

__all__ = ["main", "build_parser", "AnalysisRequest", "run_analysis"]

_MODEL_CHOICES = [ms.value for ms in MeanStructure]
_ERRORS_HELP = (
    "error model, the default listed first: "
    + "; ".join(f"{ms.value} {'/'.join(e.value for e in family.errors)}"
                for ms, family in FAMILIES.items())
    + " (for long-memory, ar1 selects the p=1 variant)"
)

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

# The row whose innovation variance joinpin uses when no --sigma2 is given.
_SIGMA2_ROW = ("trend-shift", "wn", "bic")


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


# The GA flags' note: trend-shift+wn searches, the first stage of
# variance-shift and joinpin among them, are exact and take no GA settings.
_EXACT_NOTE = "; trend-shift+wn is solved exactly and ignores it"


def _add_search_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--seed", type=int, default=None,
                   help="search seed (default: $CETSEG_SEED or 0)")
    p.add_argument("--population", type=int, default=None, metavar="P",
                   help="GA population size" + _EXACT_NOTE)
    p.add_argument("--generations", type=int, default=None, metavar="G",
                   help="GA generation cap" + _EXACT_NOTE)
    p.add_argument("--stagnation", type=int, default=None, metavar="S",
                   help="stop the GA after S generations without improvement" + _EXACT_NOTE)
    p.add_argument("--max-m", type=int, default=None, metavar="M",
                   help="cap on the number of changepoints")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", required=True, choices=_MODEL_CHOICES)
    p.add_argument("--errors", choices=["wn", "ar1"], default=None,
                   help=_ERRORS_HELP)
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

    # `residuals` is `fit --out csv`, without the --out and --plot flags.
    p_res = sub.add_parser("residuals",
                           help="emit year,observed,fitted,residual CSV")
    _add_input_args(p_res)
    _add_model_args(p_res)
    _add_search_args(p_res)
    p_res.set_defaults(out="csv", plot=None)

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
    given = {"population_size": args.population, "max_generations": args.generations,
             "stagnation_limit": args.stagnation}
    # zero is a value, not "unset": only an absent flag takes the default
    return GAParams(**{key: value for key, value in given.items() if value is not None},
                    seed=_resolve_seed(args.seed))


def _load(args: argparse.Namespace) -> TimeSeries:
    series = load_series(args.input, args.format)
    if args.from_year is not None or args.to_year is not None:
        try:
            series = series.restrict(args.from_year, args.to_year)
        except DomainError as err:
            raise DataError(str(err)) from err
    return series


def run_analysis(req: AnalysisRequest) -> tuple[dict[str, Any], FitResult, np.ndarray]:
    """Fit one model per the request; returns the JSON-shaped result, the fit
    and its fitted values.

    Every changepoint search goes through :func:`cetseg.search.solve`:
    exact for trend-shift+wn, the GA with the request's settings for
    the other families.  The variance-shift workflow is two-stage: a
    trend-shift+wn search fixes the mean structure, and the variance
    search runs on its residuals.  The fitted values reported for it
    are the trend stage's, since the variance model has no mean
    function.
    """
    series = req.series
    params = req.ga_params
    model = req.model
    # Rejects combinations without a scoring rule, e.g. joinpin with AR(1)
    # errors or under MDL, before any search runs.
    spec = ModelSpec(model, req.errors, req.penalty)
    fitted = None

    if model == "long-memory":
        fit = fit_arfima(series, p=1 if req.errors == "ar1" else 0)
    elif model == "joinpin":
        sigma2 = req.sigma2
        if sigma2 is None:
            stage = solve(series, ModelSpec(*_SIGMA2_ROW), params, max_m=req.max_m)
            sigma2 = stage.best.sigma2_hat
        fit = joinpin_search(series, sigma2, max_m=req.max_m, params=params).best
    elif model == "variance-shift":
        trend = solve(series, ModelSpec("trend-shift", "wn", req.penalty), params,
                      max_m=req.max_m).best
        fitted = fitted_mean(trend.config, trend.means, trend.slopes, series.n)
        try:
            residual_series = TimeSeries(series.first_year, series.values - fitted)
        except DomainError as err:  # residuals can exceed the data's own bound
            raise DataError(f"residuals of the trend stage: {err}") from err
        fit = solve(residual_series, spec, params, max_m=req.max_m).best
    else:
        fit = solve(series, spec, params, max_m=req.max_m).best

    ga_params = None if model == "long-memory" else params
    result = result_to_dict(fit, series, params.seed, ga_params)
    return result, fit, fitted_values_of(fit, series) if fitted is None else fitted


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


def _request(args: argparse.Namespace, series: TimeSeries) -> AnalysisRequest:
    """The request of a one-model subcommand (``fit`` or ``residuals``)."""
    if args.sigma2 is not None:
        check_variance(args.sigma2)
        if args.model != "joinpin":
            raise DomainError(f"--sigma2 applies to joinpin only, not {args.model}")
    errors = args.errors or FAMILIES[MeanStructure(args.model)].errors[0].value
    return AnalysisRequest(
        series=series, model=args.model, errors=errors, penalty=args.penalty,
        ga_params=_ga_params(args), max_m=args.max_m, sigma2=args.sigma2,
    )


def _cmd_fit(args: argparse.Namespace) -> int:
    series = _load(args)
    result, fit, fitted = run_analysis(_request(args, series))
    if args.plot:
        try:
            emit_plot(series, fit, args.plot,
                      title=f"{result['model']} ({result['errors']}, {result['penalty']})")
        except OSError as err:
            raise DataError(f"cannot write {args.plot}: {err.strerror or err}") from err
    if args.out == "json":
        sys.stdout.write(dumps_json(result))
    elif args.out == "csv":
        sys.stdout.write(decomposition_to_csv(series, fitted))
        print(f"seed: {result['seed']}", file=sys.stderr)
    else:
        print(_TABLE_HEADER)
        print(_table_row(result))
        print(f"seed: {result['seed']}")
    return 0


def _fork_is_safe() -> bool:
    """Whether ``compare`` may fork a worker for its MDL rows: the platform
    forks safely (not macOS, where fork is unsafe, nor Windows, which has
    none), this process runs no other thread, and two CPUs are ours."""
    import multiprocessing
    import threading

    if sys.platform == "darwin" or "fork" not in multiprocessing.get_all_start_methods():
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return threading.active_count() == 1 and (cpus or 1) > 1


def _run_rows(rows: list[tuple[str, str, str]], series: TimeSeries, params: GAParams,
              max_m: int | None, sigma2: float | None
              ) -> dict[tuple[str, str, str], dict[str, Any] | Exception]:
    """Run compare rows in order, up to the first that raises; returns
    each row run's result dict, or the error it raised."""
    done: dict[tuple[str, str, str], dict[str, Any] | Exception] = {}
    for row in rows:
        model, errors, penalty = row
        req = AnalysisRequest(series=series, model=model, errors=errors, penalty=penalty,
                              ga_params=params, max_m=max_m, sigma2=sigma2)
        try:
            result, fit, _ = run_analysis(req)
        except Exception as err:  # raised by _compare_rows, in table order
            done[row] = err
            break
        if row == _SIGMA2_ROW and sigma2 is None:
            sigma2 = fit.sigma2_hat
        done[row] = result
    return done


def _worker(conn, *args) -> None:
    """Body of the forked worker: send the parent ``_run_rows(*args)``."""
    with conn:
        conn.send(_run_rows(*args))


def _compare_rows(series: TimeSeries, params: GAParams, max_m: int | None,
                  sigma2: float | None) -> list[dict[str, Any]]:
    """The result dicts of ``_COMPARE_ROWS``, in table order.

    Two groups run, each in table order up to its first failure: the BIC
    rows (joinpin, whose σ² comes from a BIC row, among them), then the
    MDL rows.  A forked worker runs the MDL group while this process runs
    the BIC group; where fork is not safe, this process runs both.  The
    rows' searches share their seed and GA settings, so in one
    ``shared_draws()`` scope, which a worker inherits empty, each process
    draws each generation once.  The earliest failing row in table order
    raises its error; a row that a group skipped follows that group's
    failure.  A worker that dies without sending its rows raises
    ``RuntimeError``.
    """
    args = (series, params, max_m, sigma2)
    bic = [row for row in _COMPARE_ROWS if row[2] != "mdl"]
    mdl = [row for row in _COMPARE_ROWS if row[2] == "mdl"]
    with shared_draws():
        if _fork_is_safe():
            import multiprocessing

            context = multiprocessing.get_context("fork")
            receiver, sender = context.Pipe(duplex=False)
            worker = context.Process(target=_worker, args=(sender, mdl, *args))
            worker.start()  # flushes sys.stdout and sys.stderr before it forks
            sender.close()
            try:
                done = _run_rows(bic, *args)
                try:
                    done.update(receiver.recv())
                except EOFError:
                    worker.join()
                    raise RuntimeError(f"compare's MDL worker (pid {worker.pid}) exited with "
                                       f"code {worker.exitcode} before sending its rows") from None
            except BaseException:
                worker.terminate()
                raise
            finally:
                receiver.close()
                worker.join()
        else:
            done = _run_rows(bic, *args) | _run_rows(mdl, *args)
    for row in _COMPARE_ROWS:
        if isinstance(done[row], Exception):
            raise done[row]
    return [done[row] for row in _COMPARE_ROWS]


def _cmd_compare(args: argparse.Namespace) -> int:
    series = _load(args)
    params = _ga_params(args)
    if args.sigma2 is not None:
        check_variance(args.sigma2)
    rows = _compare_rows(series, params, args.max_m, args.sigma2)
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


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise DataError(f"{flag} expects comma-separated numbers, got {text!r}") from None


def _cmd_simulate(args: argparse.Namespace) -> int:
    taus = _parse_floats(args.taus, "--taus")
    if not all(tau.is_integer() for tau in taus):
        raise DataError(f"--taus expects integers, got {args.taus!r}")
    taus = tuple(int(tau) for tau in taus)
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
        if args.command in ("fit", "residuals"):
            return _cmd_fit(args)
        if args.command == "compare":
            return _cmd_compare(args)
        return _cmd_simulate(args)
    except (DataError, DegenerateFitError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (InfeasibleModelError, DomainError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: inputs from a seed, one timed pass, output checks.

Each workload builds its inputs once from the workload seed, then runs
identical passes.  A pass returns its wall time and a canonical byte
string of what the program answered; passes of one seed must agree
byte for byte.  ``check`` validates the answers of one pass and sums
their scores.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

# The CET-like fixture: four regimes, a weak 41->80 break and a strong
# warming trend from 329 on, AR(1) noise close to white.
FIXTURE = dict(
    n=362,
    taus=(41, 80, 329),
    mus=(9.0, 8.5, 9.3, 10.2),
    betas=(0.0, 0.0, 0.003, 0.02),
    phi=0.06,
    sigma=0.54,
)
FIRST_YEAR = 1659
PLANTED = FIXTURE["taus"]

# Shortest regime each family can estimate, as documented by the package.
MIN_SEGMENT = {
    "mean-shift": 1,
    "trend-shift": 3,
    "fixed-slope": 2,
    "variance-shift": 2,
    "joinpin": 2,
}

COMPARE_ROWS = (
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
)

SCORE_TOL = 1e-9


def fixture_series(seed: int):
    from cetseg.simulate import SimSpec, simulate_series

    return simulate_series(SimSpec(seed=seed, first_year=FIRST_YEAR, **FIXTURE))


def write_fixture(path: Path, seed: int) -> None:
    rows = ["year,value"]
    rows += [f"{FIRST_YEAR + i},{float(v)!r}" for i, v in enumerate(fixture_series(seed).values)]
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


@dataclass
class PassResult:
    wall_s: float
    canonical: bytes
    output_bytes: int
    payload: Any = None


@dataclass
class CheckResult:
    """Checked answers of one pass.

    ``score_ratio`` is the sum of the searched answers' scores over the
    sum of their reference scores; ``optimum_match_frac`` is the share
    of searched answers at or below their reference.
    """

    failed: int
    score_total: float
    score_ratio: float
    optimum_match_frac: float
    problems: list[str] = field(default_factory=list)


def _quality(pairs: list[tuple[float, float]]) -> tuple[float, float]:
    """(score ratio, match share) of (answer, reference) score pairs."""
    if not pairs:
        return math.nan, math.nan
    ratio = math.fsum(a for a, _ in pairs) / math.fsum(r for _, r in pairs)
    matched = sum(a <= r + SCORE_TOL for a, r in pairs)
    return ratio, matched / len(pairs)


def _schema_validator():
    import jsonschema
    from importlib.resources import files

    schema = json.loads(files("cetseg").joinpath("schemas/result.schema.json").read_text("utf-8"))
    return jsonschema.Draft7Validator(schema)


def _rescore(series, row: dict) -> float:
    """Score of the row's reported answer, fitted again from the series."""
    from cetseg import ChangepointConfiguration, ModelSpec
    from cetseg.joinpin import fit_joinpin
    from cetseg.longmemory import fit_arfima
    from cetseg.search import evaluate

    if row["model"] == "long-memory":
        return fit_arfima(series, row["p"]).bic_score
    config = ChangepointConfiguration(
        tuple(year - series.first_year for year in row["changepoint_years"]))
    if row["model"] == "joinpin":
        return fit_joinpin(series, config, row["sigma2_fixed"], row["knot_penalty"]).bic_score
    return evaluate(series, ModelSpec(row["model"], row["errors"], row["penalty"]), config).score


def _row_problems(row: dict, series) -> list[str]:
    """Checks every result row must pass, whatever its family."""
    problems = []
    label = f"{row['model']}+{row['errors']}/{row['penalty']}"
    taus = [year - series.first_year for year in row["changepoint_years"]]
    if row["model"] == "long-memory":
        if taus:
            problems.append(f"{label}: long-memory fit reports changepoints")
    else:
        bounds = [0, *taus, series.n]
        shortest = min(b - a for a, b in zip(bounds, bounds[1:]))
        if shortest < MIN_SEGMENT[row["model"]]:
            problems.append(f"{label}: regime of length {shortest} in {taus}")
    if not problems:
        try:
            refit = _rescore(series, row)
        except Exception as exc:
            problems.append(f"{label}: refitting {taus} raised {type(exc).__name__}: {exc}")
        else:
            if not abs(row["score"] - refit) <= SCORE_TOL:
                problems.append(f"{label}: score {row['score']!r}, refit of {taus} gives {refit!r}")
    return problems


class _CliWorkload:
    """One ``cetseg.cli.main`` call on the fixture per pass.

    Every result row is checked.  Rows of searched families are also
    compared with the planted configuration's score: that configuration
    is feasible, so the optimum is at least as good.  A row above it is
    a weaker answer of a budget-limited search and shows in the score
    ratio and match share, not as a failed operation.
    """

    name = ""
    ops_per_pass = 1

    def __init__(self, seed: int, fixture: Path):
        from cetseg.io import load_series

        self.series = load_series(str(fixture), "csv")
        self.validator = _schema_validator()
        self.argv = self.build_argv(seed, str(fixture))
        self._references: dict[tuple, float] = {}

    def build_argv(self, seed: int, fixture: str) -> list[str]:
        raise NotImplementedError

    def rows_of(self, doc: dict) -> list[dict]:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        from cetseg import cli

        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(self.argv)
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code, err = None, io.StringIO(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - start
        answer = out.getvalue() if code == 0 else f"exit {code}: {err.getvalue()}"
        data = answer.encode("utf-8")
        return PassResult(wall, data, len(data), payload=answer)

    def reference_score(self, row: dict) -> float | None:
        """Score of the planted configuration under the row's model."""
        from cetseg import ChangepointConfiguration, ModelSpec
        from cetseg.joinpin import fit_joinpin
        from cetseg.search import evaluate

        if row["model"] == "long-memory":
            return None
        key = (row["model"], row["errors"], row["penalty"], row.get("sigma2_fixed"))
        if key not in self._references:
            config = ChangepointConfiguration(PLANTED)
            if row["model"] == "joinpin":
                ref = fit_joinpin(self.series, config, row["sigma2_fixed"]).bic_score
            else:
                ref = evaluate(self.series, ModelSpec(*key[:3]), config).score
            self._references[key] = ref
        return self._references[key]

    def check(self, result: PassResult) -> CheckResult:
        ops = self.ops_per_pass
        try:
            doc = json.loads(result.payload)
        except ValueError:
            return CheckResult(ops, math.nan, math.nan, math.nan, [result.payload[:500]])
        problems = [f"schema: {e.message}" for e in self.validator.iter_errors(doc)]
        rows = self.rows_of(doc)
        if len(rows) != ops:
            problems.append(f"expected {ops} result rows, got {len(rows)}")
        if problems:
            return CheckResult(ops, math.nan, math.nan, math.nan, problems)
        failed = 0
        pairs: list[tuple[float, float]] = []
        for row in rows:
            row_problems = _row_problems(row, self.series)
            failed += bool(row_problems)
            problems += row_problems
            ref = self.reference_score(row)
            if ref is not None:
                pairs.append((row["score"], ref))
        total = math.fsum(row["score"] for row in rows)
        return CheckResult(failed, total, *_quality(pairs), problems)


class FitDefault(_CliWorkload):
    """The README's headline call: trend-shift, white noise, MDL.

    Population and stagnation limit are the package defaults; the
    generation cap makes the call the first ``GENERATIONS`` generations
    of the default-budget search, so every seed does comparable work.
    """

    name = "fit-default"
    GENERATIONS = 100

    def build_argv(self, seed: int, fixture: str) -> list[str]:
        return [
            "fit", "--input", fixture, "--format", "csv",
            "--model", "trend-shift", "--errors", "wn", "--penalty", "mdl",
            "--seed", str(seed), "--out", "json", "--generations", str(self.GENERATIONS),
        ]

    def rows_of(self, doc: dict) -> list[dict]:
        return [doc] if "model" in doc else []


class Compare(_CliWorkload):
    """The 11-row model battery with a reduced GA budget.

    Default population; every GA search (the eight searched rows and
    joinpin) runs exactly ``GENERATIONS`` generations, so every seed
    does comparable work.
    """

    name = "compare"
    ops_per_pass = len(COMPARE_ROWS)
    GENERATIONS = 40

    def build_argv(self, seed: int, fixture: str) -> list[str]:
        return [
            "compare", "--input", fixture, "--format", "csv",
            "--seed", str(seed), "--out", "json", "--generations", str(self.GENERATIONS),
        ]

    def rows_of(self, doc: dict) -> list[dict]:
        rows = doc.get("rows", [])
        got = [(r.get("model"), r.get("errors"), r.get("penalty")) for r in rows]
        return rows if got == list(COMPARE_ROWS) else []


class OracleShort:
    """Short seeded series searched by the GA and by exhaustive enumeration.

    Shaped like the package's GA-versus-oracle acceptance criterion:
    N = 12..14, AR(1) noise with phi = 0.4, a lean GA budget, and a
    patient budget with heavy mutation for mean shifts.  The exhaustive
    optimum is the reference of each GA answer; a GA answer that beats
    it is a failure.
    """

    name = "oracle-short"
    FAMILIES = (
        ("mean-shift", "ar1"),
        ("trend-shift", "wn"),
        ("fixed-slope", "ar1"),
        ("variance-shift", "wn"),
    )
    SERIES = 16
    ops_per_pass = 2 * SERIES

    def __init__(self, seed: int, fixture: Path):
        from cetseg import ModelSpec
        from cetseg.search import GAParams
        from cetseg.simulate import SimSpec, simulate_series

        self.validator = _schema_validator()
        self.cases = []
        for j in range(self.SERIES):
            mean, errors = self.FAMILIES[j % 4]
            penalty = ("bic", "mdl")[(j // 4) % 2]
            case_seed = self.SERIES * seed + j
            n = 12 + j % 3
            series = simulate_series(SimSpec(n=n, phi=0.4, sigma=1.0, seed=case_seed, first_year=1900))
            if mean == "mean-shift":
                params = GAParams(population_size=100, mutation_rate=4.0,
                                  stagnation_limit=150, max_generations=4000, seed=case_seed)
            else:
                params = GAParams(population_size=80, max_generations=80,
                                  stagnation_limit=30, seed=case_seed)
            self.cases.append((series, ModelSpec(mean, errors, penalty), params))

    def run_pass(self) -> PassResult:
        from cetseg import search

        answers = []
        start = time.perf_counter()
        for series, spec, params in self.cases:
            ga = _best_or_error(search.ga_optimize, series, spec, params)
            exact = _best_or_error(search.exhaustive_optimize, series, spec)
            answers.append((series, spec, ga, exact))
        wall = time.perf_counter() - start
        canon = [
            {"model": spec.label(), "n": series.n, "ga": _canonical(ga),
             "exhaustive": _canonical(exact)}
            for series, spec, ga, exact in answers
        ]
        data = json.dumps(canon, sort_keys=True).encode("utf-8")
        return PassResult(wall, data, output_bytes=0, payload=answers)

    def check(self, result: PassResult) -> CheckResult:
        from cetseg.io import result_to_dict

        failed = 0
        problems: list[str] = []
        pairs: list[tuple[float, float]] = []
        for series, spec, ga, exact in result.payload:
            for kind, fit in (("ga", ga), ("exhaustive", exact)):
                if isinstance(fit, str):
                    fit_problems = [fit]
                else:
                    row = result_to_dict(fit, series, None, None)
                    fit_problems = [f"schema: {e.message}" for e in self.validator.iter_errors(row)]
                    fit_problems += _row_problems(row, series)
                failed += bool(fit_problems)
                problems += [f"{kind} {spec.label()}: {p}" for p in fit_problems]
            if isinstance(ga, str) or isinstance(exact, str):
                continue
            if ga.score < exact.score - SCORE_TOL:
                failed += 1
                problems.append(f"ga {spec.label()}: below the exhaustive optimum")
            pairs.append((ga.score, exact.score))
        total = math.fsum(ga for ga, _ in pairs)
        return CheckResult(min(failed, self.ops_per_pass), total, *_quality(pairs), problems)


def _best_or_error(search, *args):
    """Best fit of a search, or the error it raised as text (a failed operation)."""
    try:
        return search(*args).best
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def _canonical(fit) -> Any:
    return fit if isinstance(fit, str) else [list(fit.config.taus), repr(fit.score)]


WORKLOADS = {w.name: w for w in (FitDefault, Compare, OracleShort)}

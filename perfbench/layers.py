"""Per-layer tracing of cetseg from outside the package.

A :class:`Tracer` wraps public functions at every ``cetseg`` module
attribute that refers to them, so callers that look the name up at
call time (``search.evaluate`` inside the GA, ``cli.run_analysis``
inside ``compare``) run through the wrapper.  Each wrapped call is a
span: its duration, the part of it covered by nested spans, and
whether it raised.  Spans opened with no span around them are
top-level; their total is what ``trace.coverage_frac`` compares with
the pass wall time.  Everything stays in memory; :func:`layer_metrics`
turns one traced pass into the per-layer metric set.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Any, Callable

from workloads import COMPARE_ROWS

_perf = time.perf_counter

FAMILIES = (
    "mean-shift.ar1",
    "trend-shift.ar1",
    "trend-shift.wn",
    "fixed-slope.ar1",
    "variance-shift.wn",
)


class Tracer:
    """Span totals keyed by name, plus free-form counters."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level_s = 0.0
        self._stack: list[float] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        name: str,
        fn: Callable,
        label: Callable[..., str] | None = None,
        observe: Callable[..., None] | None = None,
    ) -> Callable:
        """Return ``fn`` recorded as span ``name``.

        ``label(*args, **kwargs)`` adds a second total under
        ``name.<label>``; ``observe(tracer, result, *args, **kwargs)``
        records counters from a successful call.
        """
        stack = self._stack
        calls, total, self_time, errors = self.calls, self.total, self.self_time, self.errors

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = _perf()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[name] += 1
                raise
            finally:
                elapsed = _perf() - start
                nested = stack.pop()
                if stack:
                    stack[-1] += elapsed
                else:
                    self.top_level_s += elapsed
                calls[name] += 1
                total[name] += elapsed
                self_time[name] += elapsed - nested
                if label is not None:
                    key = f"{name}.{label(*args, **kwargs)}"
                    calls[key] += 1
                    total[key] += elapsed
            if observe is not None:
                observe(self, result, *args, **kwargs)
            return result

        return traced

    def patch(self, owner: Any, attr: str, name: str, **hooks) -> None:
        """Replace ``owner.attr`` with its traced form, wherever ``cetseg``
        modules hold the same function object under that name."""
        fn = getattr(owner, attr)
        wrapped = self.wrap(name, fn, **hooks)
        holders = [owner] + [
            mod for key, mod in list(sys.modules.items())
            if key.startswith("cetseg") and mod is not owner and getattr(mod, attr, None) is fn
        ]
        for holder in holders:
            self._patched.append((holder, attr, fn))
            setattr(holder, attr, wrapped)

    def restore(self) -> None:
        for holder, attr, fn in reversed(self._patched):
            setattr(holder, attr, fn)
        self._patched.clear()


def _model_label(series, model, *args, **kwargs) -> str:
    return f"{model.mean_structure.value}.{model.error_model.value}"


def _row_label(req) -> str:
    return f"{req.model}.{req.errors}.{req.penalty}"


def _arfima_label(series, p, *args, **kwargs) -> str:
    return f"p{p}"


def _observe_ga(tracer: Tracer, report, series, model, params=None, **kwargs) -> None:
    if params is None:
        from cetseg.search import GAParams

        params = GAParams()
    history = report.score_history
    last = max((g for g in range(1, len(history)) if history[g] < history[g - 1]), default=0)
    tracer.counts["ga.generations"] += report.generations_run
    tracer.counts["ga.evaluations"] += report.evaluations_count
    tracer.counts["ga.slots"] += params.population_size * (report.generations_run + 1)
    tracer.counts["ga.last_improvement"] += last


def _observe_exhaustive(tracer: Tracer, report, *args, **kwargs) -> None:
    tracer.counts["exhaustive.configs"] += report.evaluations_count


def _observe_arfima(tracer: Tracer, fit, *args, **kwargs) -> None:
    tracer.counts[f"longmemory.probes.p{fit.p}"] += len(fit.probes)


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries the benchmark reports on."""
    from cetseg import cli, core, estimation, io, joinpin, longmemory, penalties, search

    tracer.patch(search, "ga_optimize", "search.ga", observe=_observe_ga)
    tracer.patch(search, "exhaustive_optimize", "search.exhaustive", observe=_observe_exhaustive)
    tracer.patch(search, "evaluate", "search.evaluate", label=_model_label)
    for fit in ("fit_mean_shift", "fit_trend_shift", "fit_fixed_slope", "fit_variance_shift"):
        tracer.patch(estimation, fit, "estimation.fit")
    tracer.patch(estimation, "fitted_mean", "estimation.fitted_mean")
    for part in ("estimate_ar1", "innovation_variance", "gaussian_neg2loglik"):
        tracer.patch(estimation, part, "estimation.error_model")
    tracer.patch(penalties, "penalty_value", "penalties.penalty_value")
    tracer.patch(core.ChangepointConfiguration, "validate_for", "core.validate_for")
    tracer.patch(joinpin, "joinpin_search", "joinpin.search")
    tracer.patch(joinpin, "fit_joinpin", "joinpin.fit")
    tracer.patch(longmemory, "fit_arfima", "longmemory.fit", label=_arfima_label,
                 observe=_observe_arfima)
    tracer.patch(longmemory, "frac_diff", "longmemory.frac_diff")
    tracer.patch(io, "load_series", "io.load")
    for part in ("result_to_dict", "fitted_values_of", "dumps_json"):
        tracer.patch(io, part, "io.serialize")
    tracer.patch(cli, "run_analysis", "cli.row", label=_row_label)


def _per(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(t: Tracer, wall_s: float, output_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``."""
    total, calls, counts = t.total, t.calls, t.counts
    gens = counts["ga.generations"]
    m: dict[str, tuple[float, str]] = {
        "search.ga_calls": (calls["search.ga"], "count"),
        "search.ga_s": (total["search.ga"], "s"),
        "search.ga_self_s": (t.self_time["search.ga"], "s"),
        "search.generations": (gens, "count"),
        "search.ga_self_us_per_generation": (_per(t.self_time["search.ga"], gens, 1e6), "us"),
        "search.evaluations": (counts["ga.evaluations"], "count"),
        "search.fresh_fit_frac": (_per(counts["ga.evaluations"], counts["ga.slots"]), "frac"),
        "search.last_improvement_frac": (_per(counts["ga.last_improvement"], gens), "frac"),
        "search.exhaustive_s": (total["search.exhaustive"], "s"),
        "search.exhaustive_configs": (counts["exhaustive.configs"], "count"),
        "search.exhaustive_us_per_config": (
            _per(total["search.exhaustive"], counts["exhaustive.configs"], 1e6), "us"),
        "search.evaluate_calls": (calls["search.evaluate"], "count"),
        "search.evaluate_s": (total["search.evaluate"], "s"),
        "search.evaluate_degenerate": (t.errors["search.evaluate"], "count"),
    }
    for fam in FAMILIES:
        key = f"search.evaluate.{fam}"
        m[f"search.evaluate_us.{fam}"] = (_per(total[key], calls[key], 1e6), "us")
    m.update({
        "estimation.fit_calls": (calls["estimation.fit"], "count"),
        "estimation.fit_s": (total["estimation.fit"], "s"),
        "estimation.fitted_mean_s": (total["estimation.fitted_mean"], "s"),
        "estimation.error_model_s": (total["estimation.error_model"], "s"),
        "penalties.penalty_value_calls": (calls["penalties.penalty_value"], "count"),
        "penalties.penalty_value_s": (total["penalties.penalty_value"], "s"),
        "core.validate_for_calls": (calls["core.validate_for"], "count"),
        "core.validate_for_s": (total["core.validate_for"], "s"),
        "joinpin.search_s": (total["joinpin.search"], "s"),
        "joinpin.ga_self_s": (t.self_time["joinpin.search"], "s"),
        "joinpin.fit_calls": (calls["joinpin.fit"], "count"),
        "joinpin.fit_us": (_per(total["joinpin.fit"], calls["joinpin.fit"], 1e6), "us"),
        "joinpin.singular_frac": (_per(t.errors["joinpin.fit"], calls["joinpin.fit"]), "frac"),
    })
    for p in ("p0", "p1"):
        m[f"longmemory.fit_s.{p}"] = (total[f"longmemory.fit.{p}"], "s")
    for p in ("p0", "p1"):
        m[f"longmemory.probes.{p}"] = (counts[f"longmemory.probes.{p}"], "count")
    m.update({
        "longmemory.frac_diff_calls": (calls["longmemory.frac_diff"], "count"),
        "io.load_s": (total["io.load"], "s"),
        "io.serialize_s": (total["io.serialize"], "s"),
        "io.output_bytes": (output_bytes, "bytes"),
    })
    for row in map(".".join, COMPARE_ROWS):
        m[f"cli.row_s.{row}"] = (total[f"cli.row.{row}"], "s")
    m["trace.coverage_frac"] = (_per(t.top_level_s, wall_s), "frac")
    return m

"""Self-test of the benchmark harness.

Run from the repository root:

    python3 perfbench/selftest/check.py

It checks that

* ``BENCHMARK.json`` declares every metric listed below;
* each workload, run briefly with and without tracing, prints a result
  line with exactly the declared keys, no failed operation, and every
  metric ``BENCHMARK.json`` declares, with its unit and nothing else;
* the traced run's top-level spans cover at least 90% of a pass;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's
  files, the command exits non-zero without printing a result.

Exits 0 when every check passes; prints each failure otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_COVERAGE = 0.9
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

END_TO_END = ["setup_s", "run_s", "peak_rss_mb", "score_ratio"]
PER_LAYER = """
    search.ga_calls search.ga_s search.ga_self_s search.generations
    search.ga_self_us_per_generation search.evaluations search.fresh_fit_frac
    search.last_improvement_frac search.exhaustive_s search.exhaustive_configs
    search.exhaustive_us_per_config search.evaluate_calls search.evaluate_s
    search.evaluate_degenerate search.evaluate_us.mean-shift.ar1
    search.evaluate_us.trend-shift.ar1 search.evaluate_us.trend-shift.wn
    search.evaluate_us.fixed-slope.ar1 search.evaluate_us.variance-shift.wn
    estimation.fit_calls estimation.fit_s estimation.fitted_mean_s
    estimation.error_model_s penalties.penalty_value_calls penalties.penalty_value_s
    core.validate_for_calls core.validate_for_s joinpin.search_s joinpin.ga_self_s
    joinpin.fit_calls
    joinpin.fit_us joinpin.singular_frac longmemory.fit_s.p0 longmemory.fit_s.p1
    longmemory.probes.p0 longmemory.probes.p1 longmemory.frac_diff_calls
    io.load_s io.serialize_s io.output_bytes
    cli.row_s.mean-shift.ar1.bic cli.row_s.mean-shift.ar1.mdl
    cli.row_s.trend-shift.ar1.bic cli.row_s.trend-shift.ar1.mdl
    cli.row_s.trend-shift.wn.bic cli.row_s.trend-shift.wn.mdl
    cli.row_s.fixed-slope.ar1.bic cli.row_s.fixed-slope.ar1.mdl
    cli.row_s.joinpin.wn.bic cli.row_s.long-memory.wn.bic cli.row_s.long-memory.ar1.bic
    trace.overhead_frac trace.coverage_frac failed_frac score_total optimum_match_frac
""".split()


def run_bench(command: list[str], cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = command + ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_declared(spec: dict, problems: list[str]) -> None:
    for kind, names in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"] for m in spec[kind]}
        if set(names) - declared:
            problems.append(f"{kind} lacks {sorted(set(names) - declared)}")


def check_workload(spec: dict, workload: str, problems: list[str]) -> None:
    for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
        where = f"{workload} --trace {trace}"
        proc = run_bench(spec["command"], ROOT, workload, trace)
        if proc.returncode != 0:
            problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        if set(result) != RESULT_KEYS:
            problems.append(f"{where}: result keys {sorted(result)}")
            continue
        if not result["correct"] or result["failed"] or result["attempted"] < 1:
            problems.append(f"{where}: correct={result['correct']} failed={result['failed']} "
                            f"attempted={result['attempted']}; {proc.stdout.splitlines()[-2][-500:]}")
        metrics = result["metrics"]
        want = {m["name"]: m["unit"] for m in declared}
        if set(metrics) != set(want):
            problems.append(f"{where}: missing {sorted(set(want) - set(metrics))}, "
                            f"undeclared {sorted(set(metrics) - set(want))}")
        for name, entry in metrics.items():
            if name in want and entry.get("unit") != want[name]:
                problems.append(f"{where}: {name} has unit {entry.get('unit')!r}, declared {want[name]!r}")
            if not isinstance(entry.get("value"), (int, float)):
                problems.append(f"{where}: {name} has no numeric value")
        if trace == 1:
            coverage = metrics.get("trace.coverage_frac", {}).get("value") or 0.0
            if coverage < MIN_COVERAGE:
                problems.append(f"{where}: trace.coverage_frac {coverage:.3f} < {MIN_COVERAGE}")


def check_bare_directory(spec: dict, problems: list[str]) -> None:
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench(spec["command"], bare, spec["workloads"][0]["name"], 0)
        last = (proc.stdout.splitlines() or [""])[-1]
        if proc.returncode == 0 or '"metrics"' in last:
            problems.append(f"bare directory: exit {proc.returncode}, last line {last[:200]!r}")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems: list[str] = []
    check_declared(spec, problems)
    check_bare_directory(spec, problems)
    for workload in (w["name"] for w in spec["workloads"]):
        check_workload(spec, workload, problems)
        print(f"{workload}: checked", flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "ok" if not problems else f"{len(problems)} failures")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark runner for cetseg: one workload, one seed, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 30 --trace 0

The package is imported from ``src/`` at the repository root.  Set-up
time is measured in fresh interpreters; the workload then runs whole
passes in this process until ``--seconds`` would be exceeded (at least
two).  Set-up and pass times are reported at a reference host speed
(see ``reference.py``).  With ``--trace 0`` the result carries the
end-to-end metrics;
with ``--trace 1`` untraced and traced passes alternate and the result
carries the per-layer metrics.  Every line before the last is
diagnostic: the environment, then per-pass timings and any failed
check.  The last line is the result object.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
MIN_PASSES = 2
SETUP_REPEATS = 9

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import cetseg; "
    "from cetseg.io import load_series; load_series(sys.argv[2], 'csv')"
)


def _metric(value: float, unit: str) -> dict:
    """One metric entry; a value that could not be measured is null."""
    return {"value": value if math.isfinite(value) else None, "unit": unit}


def environment() -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception as exc:  # the layout of numpy's build report varies by version
        blas = {"unavailable": type(exc).__name__}
    threads = {k: os.environ.get(k) for k in (
        "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": threads,
    }


def measure_setup(fixture: Path) -> tuple[list[float], list[float]]:
    """Wall times of the set-up probes (interpreter start, ``import cetseg``,
    ``load_series``) and of the reference interpreter run before each."""
    import reference

    setup, ref = [], []
    for _ in range(SETUP_REPEATS):
        ref.append(reference.interpreter_seconds(reference.IMPORT_SNIPPET))
        setup.append(reference.interpreter_seconds(SETUP_SNIPPET, str(SRC), str(fixture)))
    return setup, ref


def run_passes(workload, seconds: float, trace: bool, ref):
    """Closed loop of passes (untraced, or untraced/traced pairs) for
    ``seconds``, sampling the reference loop ``ref`` around each pass."""
    import layers

    plain, traced = [], []
    start = time.perf_counter()
    ref.sample()
    while True:
        plain.append(workload.run_pass())
        ref.sample(plain[-1].wall_s)
        if trace:
            tracer = layers.Tracer()
            layers.install(tracer)
            try:
                result = workload.run_pass()
            finally:
                tracer.restore()
            result.payload = None
            traced.append((result, layers.layer_metrics(tracer, result.wall_s, result.output_bytes)))
        rounds = len(plain)
        elapsed = time.perf_counter() - start
        if rounds + len(traced) >= MIN_PASSES and elapsed * (rounds + 1) / rounds > seconds:
            return plain, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out seed {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cetseg" / "__init__.py").is_file():
        print(f"perfbench: no cetseg package under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be non-negative", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import reference
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    env = environment()
    env["loadavg_before"] = os.getloadavg()
    WORKDIR.mkdir(exist_ok=True)
    fixture = WORKDIR / f"fixture-{args.seed}-{os.getpid()}.csv"
    try:
        workloads.write_fixture(fixture, args.seed)
        setup_times, reference_times = measure_setup(fixture)
        workload = workloads.WORKLOADS[args.workload](args.seed, fixture)
        pass_ref = reference.PassReference()
        plain, traced = run_passes(workload, args.seconds, bool(args.trace), pass_ref)
        first = plain[0]
        check = workload.check(first)
    finally:
        fixture.unlink(missing_ok=True)
    env["loadavg_after"] = os.getloadavg()

    # Passes of one seed must answer byte for byte alike, traced or not.
    passes = plain + [result for result, _ in traced]
    mismatched = sum(result.canonical != first.canonical for result in passes[1:])
    attempted = workload.ops_per_pass * len(passes)
    failed = min(attempted, check.failed * len(passes) + workload.ops_per_pass * mismatched)
    problems = check.problems + [f"{mismatched} passes differ from the first"] * bool(mismatched)

    plain_s = statistics.median(r.wall_s for r in plain)
    if args.trace:
        per_pass = [m for _, m in traced]
        metrics = {
            name: _metric(statistics.median(m[name][0] for m in per_pass), unit)
            for name, (_, unit) in per_pass[0].items()
        }
        traced_s = statistics.median(r.wall_s for r, _ in traced)
        metrics["trace.overhead_frac"] = _metric(traced_s / plain_s - 1.0, "frac")
        metrics["failed_frac"] = _metric(failed / attempted, "frac")
        metrics["score_total"] = _metric(check.score_total, "score")
        metrics["optimum_match_frac"] = _metric(check.optimum_match_frac, "frac")
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setup_s = reference.NOMINAL_IMPORT_S * statistics.median(
            s / r for s, r in zip(setup_times, reference_times))
        metrics = {
            "setup_s": _metric(setup_s, "s"),
            "run_s": _metric(pass_ref.scaled_median([r.wall_s for r in plain]), "s"),
            "peak_rss_mb": _metric(peak_mb, "MB"),
            "score_ratio": _metric(check.score_ratio, "ratio"),
        }

    print(json.dumps({"environment": env}))
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "setup_s": setup_times,
        "reference_s": reference_times,
        "pass_s": [r.wall_s for r in plain],
        "reference_round_s": pass_ref.round_s,
        "traced_pass_s": [r.wall_s for r, _ in traced],
        "problems": problems[:20],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

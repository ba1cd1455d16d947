"""The benchmark's view of the package.

The benchmark under ``perfbench/`` wraps package functions by their
module attribute names (``io.fitted_values_of``,
``penalties.penalty_value``, ``estimation.fit_variance_shift``, ...)
and reads result attributes (``bic_score``, ``p``, ``probes``).  A
change that drops one of them would otherwise only show when the
benchmark runs; here each workload runs one traced pass, and that
pass's answers must pass the benchmark's own checks.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["fit-default", "compare", "oracle-short"])
def test_traced_pass_passes_the_benchmark_checks(name, tmp_path, monkeypatch):
    # Import the benchmark's modules without leaving bytecode in its tree.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import workloads

    fixture = tmp_path / "fixture.csv"
    workloads.write_fixture(fixture, 1)
    workload = workloads.WORKLOADS[name](1, fixture)
    tracer = layers.Tracer()
    layers.install(tracer)
    try:
        result = workload.run_pass()
        check = workload.check(result)
        metrics = layers.layer_metrics(tracer, result.wall_s, result.output_bytes)
    finally:
        tracer.restore()
    assert check.failed == 0, check.problems
    assert metrics["trace.coverage_frac"][0] > 0.0

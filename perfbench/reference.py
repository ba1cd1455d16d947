"""Host-speed references for the benchmark's timings.

On a shared virtual machine the speed of identical work drifts by
20-40% over minutes, as other tenants load the cores and the page
cache; process CPU time drifts with it.  So each timing is taken next
to a reference task that does not touch cetseg, and is reported at the
reference's nominal speed:

    reported = measured * nominal reference time / measured reference time

A change to cetseg moves the measured time and not the reference, so it
shows in full; a slower host moves both, and cancels.  The raw times
are printed in the diagnostics line of every run.

* Set-up: a fresh interpreter that only imports numpy, launched just
  before each set-up probe.  Interpreter start and the numpy import are
  most of the set-up's own work.
* Passes: :func:`reference_rounds`, a fixed loop of the GA's kind of
  work (small least-squares fits on segments of a 362-point series, a
  dict memo, sorting tuples), run before the first pass and after each.
  Garbage collection is off while it runs, so objects the program keeps
  alive cannot slow the reference.

The nominal times are the references' medians on a 2-core Intel Xeon
VM (Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

import numpy as np

NOMINAL_IMPORT_S = 0.25
NOMINAL_ROUND_S = 2.4e-4

IMPORT_SNIPPET = "import numpy"

_N = 362


def interpreter_seconds(*args: str) -> float:
    """Wall time of a fresh interpreter running ``python -c args...``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", *args], check=True, stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=60,
    )
    return time.perf_counter() - start


def reference_rounds(rounds: int) -> float:
    """Run ``rounds`` rounds of the reference loop; return their wall time."""
    rng = np.random.default_rng(12345)
    y = rng.standard_normal(_N)
    t = np.arange(1.0, _N + 1.0)
    memo: dict[tuple[int, ...], float] = {}
    start = time.perf_counter()
    for r in range(rounds):
        taus = tuple(sorted({int(v) for v in rng.integers(3, _N - 3, size=3)}))
        if taus not in memo:
            bounds = (0, *taus, _N)
            rss = 0.0
            for a, b in zip(bounds, bounds[1:]):
                X = np.column_stack((np.ones(b - a), t[a:b]))
                coef = np.linalg.lstsq(X, y[a:b], rcond=None)[0]
                resid = y[a:b] - X @ coef
                rss += float(resid @ resid)
            memo[taus] = rss
        bits = [(r * 2654435761 >> k) & 1 for k in range(64)]
        sorted((v + sum(bits), k) for k, v in list(memo.items())[-50:])
    return time.perf_counter() - start


class PassReference:
    """Reference-loop samples taken before the first pass and after each.

    Each sample lasts a quarter of the last pass (at least half a
    second), so it averages the host's short-term noise as a pass does.
    """

    ROUNDS = 250
    SHARE = 0.25
    MIN_S = 0.5

    def __init__(self) -> None:
        self.round_s: list[float] = []  # mean round time of each sample

    def sample(self, last_pass_s: float = 0.0) -> None:
        target = max(self.MIN_S, self.SHARE * last_pass_s)
        spent, rounds = 0.0, 0
        gc.disable()
        try:
            while spent < target:
                spent += reference_rounds(self.ROUNDS)
                rounds += self.ROUNDS
        finally:
            gc.enable()
        self.round_s.append(spent / rounds)

    def scaled_median(self, pass_s: list[float]) -> float:
        """Median pass time at nominal speed.  Pass i is scaled by the mean
        round time of the samples just before and just after it."""
        r = self.round_s
        return statistics.median(
            t * NOMINAL_ROUND_S * 2.0 / (r[i] + r[i + 1]) for i, t in enumerate(pass_s))

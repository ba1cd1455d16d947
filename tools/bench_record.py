"""Record perfbench's end-to-end metrics for one or more source trees.

Usage (from the repository root):

    python3 tools/bench_record.py --pr 8 --tree parent=../cetseg-parent --tree change=.

Each tree is a checkout of this repository.  For every benchmark workload
(from ``BENCHMARK.json``) and seeds 1 and 7, the trees' own
``perfbench/run.py`` runs ten times with ``--seconds 30 --trace 0``,
alternating between the trees run by run and reversing their order every
other round, so that drift in the host's speed reaches all trees alike.
The result is written afresh to ``BENCH_<pr>.json`` at the repository
root: per tree, its ``git rev-parse HEAD``, whether its working tree
differed from that commit, a SHA-256 of the ``src/`` files it ran and
their line count, the environment line of its first run and, per
workload and seed, the median over runs of each end-to-end metric, the
per-run values, each run's CPU affinity and load average before it (a
two-process run is only fast when the second CPU is free), and the
number of failed operations.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 7)  # perfbench's default seed and its held-out seed
SECONDS = 30
RUNS = 10  # per tree, workload and seed: ten alternating pairs


def _git(tree: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(tree), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def _src_files(tree: Path) -> list[Path]:
    return sorted((tree / "src").rglob("*.py"))


def _src_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in _src_files(tree):
        digest.update(str(path.relative_to(tree)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _src_lines(tree: Path) -> int:
    """Lines of the files :func:`_src_digest` reads, counted as ``wc -l`` does."""
    return sum(path.read_bytes().count(b"\n") for path in _src_files(tree))


def _run(tree: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """One perfbench run: its environment line and its result line."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return lines[0]["environment"], lines[-1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--pr", type=int, required=True, help="number in BENCH_<pr>.json")
    parser.add_argument("--tree", action="append", metavar="LABEL=DIR",
                        help="a checkout to measure under LABEL (default: change=.)")
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metric_names = [m["name"] for m in benchmark["end_to_end"]]
    workloads = [w["name"] for w in benchmark["workloads"]]
    trees = {}
    for spec in args.tree or ["change=."]:
        label, _, path = spec.partition("=")
        trees[label] = Path(path).resolve()

    records = {
        label: {
            "commit": _git(tree, "rev-parse", "HEAD"),
            "dirty": bool(_git(tree, "status", "--porcelain", "--", "src", "perfbench")),
            "src_sha256": _src_digest(tree),
            "src_lines": _src_lines(tree),
            "command": f"perfbench/run.py --seconds {SECONDS} --trace 0",
            "runs": RUNS,
            "environment": None,
            "results": {},
        }
        for label, tree in trees.items()
    }
    for workload in workloads:
        for seed in SEEDS:
            runs = {label: [] for label in trees}
            for i in range(RUNS):
                # alternate which tree runs first
                for label, tree in list(trees.items())[::1 if i % 2 == 0 else -1]:
                    env, result = _run(tree, workload, seed)
                    records[label]["environment"] = records[label]["environment"] or env
                    runs[label].append((env, result))
                    print(f"{label} {workload} seed {seed} run {i + 1}: "
                          f"{json.dumps({k: v['value'] for k, v in result['metrics'].items()})}",
                          file=sys.stderr)
            for label, pairs in runs.items():
                results = [r for _, r in pairs]
                values = {name: [r["metrics"][name]["value"] for r in results]
                          for name in metric_names}
                records[label]["results"].setdefault(workload, {})[str(seed)] = {
                    "median": {name: statistics.median(v) if None not in v else None
                               for name, v in values.items()},
                    "values": values,
                    "affinity": [env["affinity"] for env, _ in pairs],
                    "loadavg_before": [env["loadavg_before"] for env, _ in pairs],
                    "failed": sum(r["failed"] for r in results),
                    "attempted": sum(r["attempted"] for r in results),
                }

    doc = {
        "pr": args.pr,
        "note": "medians over runs alternating between the trees; run_s and setup_s "
                "are at perfbench's reference host speed",
        "records": records,
    }
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())

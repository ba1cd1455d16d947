"""``tools/bench_record.py`` keeps each run's environment beside its values."""

import importlib.util
import json
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_run_records_its_affinity_and_load(tmp_path, monkeypatch):
    tool = _load_tool()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    calls = []

    def fake_run(tree, workload, seed):
        calls.append((tree.name, workload, seed))
        env = {"affinity": len(calls), "loadavg_before": [0.1 * len(calls)] * 3}
        metrics = {"setup_s": 0.1, "run_s": 0.5 + len(calls), "peak_rss_mb": 40.0,
                   "score_ratio": 1.0}
        return env, {"metrics": {k: {"value": v} for k, v in metrics.items()},
                     "failed": 0, "attempted": 11}

    monkeypatch.setattr(tool, "RUNS", 2)
    monkeypatch.setattr(tool, "ROOT", tmp_path)
    monkeypatch.setattr(tool, "_run", fake_run)
    monkeypatch.setattr(tool, "_git", lambda tree, *args: "")
    (tmp_path / "a" / "src").mkdir(parents=True)
    (tmp_path / "b" / "src" / "pkg").mkdir(parents=True)
    (tmp_path / "a" / "src" / "one.py").write_text("x = 1\ny = 2\n", encoding="utf-8")
    (tmp_path / "b" / "src" / "one.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "b" / "src" / "pkg" / "two.py").write_text("a\nb\nc\n", encoding="utf-8")
    (tmp_path / "b" / "src" / "pkg" / "data.json").write_text("{}\n{}\n", encoding="utf-8")
    assert tool.main(["--pr", "0", "--tree", f"a={tmp_path / 'a'}",
                      "--tree", f"b={tmp_path / 'b'}"]) == 0

    doc = json.loads((tmp_path / "BENCH_0.json").read_text(encoding="utf-8"))
    # the first workload's seed 1: a, b, then b, a
    assert calls[:4] == [("a", "fit-default", 1), ("b", "fit-default", 1),
                         ("b", "fit-default", 1), ("a", "fit-default", 1)]
    first = doc["records"]["a"]["results"]["fit-default"]["1"]
    assert first["affinity"] == [1, 4]
    assert first["loadavg_before"] == [[0.1] * 3, [0.4] * 3]
    assert first["values"]["run_s"] == [1.5, 4.5]
    assert doc["records"]["b"]["results"]["fit-default"]["1"]["affinity"] == [2, 3]
    assert doc["records"]["a"]["runs"] == 2
    # the Python files under src/, nested ones included, as wc -l counts them
    assert doc["records"]["a"]["src_lines"] == 2
    assert doc["records"]["b"]["src_lines"] == 4

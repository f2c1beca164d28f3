"""scripts/bench.py, which writes the BENCH files: what one holds, at the
smallest settings (one workload, one run, one fresh interpreter a case)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_writes_a_bench_file_with_every_key(tmp_path):
    (tmp_path / "BENCH_3.json").write_text("{}")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--workloads", "ratio_search",
         "--runs", "1", "--seconds", "0.2", "--repeats", "1", "--outdir", str(tmp_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    path = tmp_path / "BENCH_4.json"
    assert proc.stdout.strip() == str(path)
    bench = json.loads(path.read_text())
    assert set(bench) == {"machine", "tree", "settings", "workloads", "wall_s",
                          "wall_per_interpreter", "src_lines"}
    assert set(bench["machine"]) == {"nproc", "affinity", "python", "numpy", "blas", "threads"}
    assert bench["machine"]["threads"] == "1"
    assert set(bench["tree"]) == {"commit", "dirty", "src_sha256"}
    assert bench["settings"] == {"seeds": [1], "runs": 1, "seconds": 0.2, "repeats": 1,
                                 "trace": 0}
    (name, workload), = bench["workloads"].items()
    assert name == "ratio_search" and workload["correct"] is True
    assert set(workload["metrics"]) == {"states_per_s", "search_ms_p50", "search_ms_p90",
                                        "peak_heap_mb", "setup_s"}
    for metric in workload["metrics"].values():
        assert set(metric) == {"unit", "median", "q1", "q3", "runs"}
        assert len(metric["runs"]) == 1 and metric["q1"] == metric["median"] == metric["q3"] > 0
    assert set(bench["wall_s"]) == {"figure_fig2a", "figure_fig2b", "figure_fig3",
                                    "figure_fig4", "figure_fig5", "report", "critical_esd",
                                    "critical_esd_general", "critical_ratio", "import",
                                    "interpreter"}
    assert all(t > 0 for t in bench["wall_s"].values())
    assert bench["wall_per_interpreter"] == {
        name: t / bench["wall_s"]["interpreter"]
        for name, t in bench["wall_s"].items() if name != "interpreter"}
    assert bench["src_lines"]["physical"] > bench["src_lines"]["code"] > 1000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_3.json", "BENCH_4.json"]


def test_rejects_a_tree_without_the_benchmark(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--root", str(tmp_path),
         "--outdir", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and proc.stderr.startswith("error: ")
    assert list(tmp_path.iterdir()) == []

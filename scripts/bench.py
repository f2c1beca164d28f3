#!/usr/bin/env python3
"""Write one BENCH_<n>.json: the benchmark's end-to-end metrics and the
fresh-process wall times of the CLI, for one source tree on this machine.

Each run is `perfbench/run.py` of the measured tree, unedited, in a
subprocess (`--trace 0`); runs go round the workloads in turn, so a change
of host speed reaches every workload alike.  The file holds:

- the machine (cores, Python, numpy, BLAS and its thread pins, as the
  benchmark's `# run` line gives them), the tree's commit and the seeds;
- for each workload and end-to-end metric, the median and quartiles over
  the runs, each run's value, and whether every run was correct with none
  failed;
- the median wall time over `--repeats` fresh interpreters of each
  `figure` preset at its published grid (writing into a scratch
  directory), of `report`, `critical esd` (at phi_e = 1/2, X states, and
  at phi_e = 0.37, general states) and `critical ratio`, of a bare
  `import jcqsim.cli` and of an interpreter that imports nothing, which
  shows how fast the host started interpreters while the others ran;
- each of those wall times over the empty interpreter's, which two files
  written while the host ran at different speeds can compare;
- the code and physical lines of `src/`, by `scripts/src_lines.py`.

The tree's `src/` is byte-compiled first (`compileall`), so that no fresh
interpreter pays for compiling it where bytecode is not written.  n is one
more than the largest n of a BENCH file already in `--outdir`.

Example:
    python scripts/bench.py                                  # this checkout
    python scripts/bench.py --root ../parent --runs 3 --seconds 10
    python scripts/bench.py --workloads ratio_search --runs 1 --seconds 0.2 \\
        --repeats 1 --outdir /tmp/bench
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
WORKLOADS = ("figures", "general_states", "entanglement_scan", "ratio_search")
# As perfbench/run.py pins them for itself and its children.
THREAD_PINS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MACHINE_KEYS = ("nproc", "affinity", "python", "numpy", "blas", "threads")
# Run k of a workload takes seed SEEDS[k % len(SEEDS)].
SEEDS = (1,)
# Fresh-process cases: the figure presets at their published grids, the CLI's
# other commands at small inputs, and their import.
COMMANDS = {
    **{f"figure_{which}": ["-m", "jcqsim", "figure", which]
       for which in ("fig2a", "fig2b", "fig3", "fig4", "fig5")},
    "report": ["-m", "jcqsim", "report", "--eps", "1", "--j", "2", "--temp", "0.5"],
    "critical_esd": ["-m", "jcqsim", "critical", "esd", "--v-x", "7.5e-6", "--t-max", "1"],
    "critical_esd_general": ["-m", "jcqsim", "critical", "esd", "--v-x", "7.5e-6",
                             "--phi-e", "0.37", "--t-max", "1"],
    "critical_ratio": ["-m", "jcqsim", "critical", "ratio", "--temp", "0.5"],
    "import": ["-c", "import jcqsim.cli"],
    "interpreter": ["-c", "pass"],
}


def _summary(values: list[float]) -> dict:
    """Median and quartiles (the median alone stands for both with one value)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _git(root: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True,
                             timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _tree(root: Path) -> dict:
    """The measured tree: its commit, whether files differ from it, and a hash
    of the package's sources, which names the code measured either way."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    status = _git(root, "status", "--porcelain", "--untracked-files=no")
    return {"commit": _git(root, "rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest.hexdigest()}


def _benchmark_run(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(the `# run` line, the result line) of one `perfbench/run.py` run."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = out.stdout.splitlines()
    if out.returncode != 0 or not lines:
        raise SystemExit(f"error: {workload} seed {seed} exited {out.returncode}: "
                         + (out.stderr.strip().splitlines() or [""])[-1])
    info = next(json.loads(line[len("# run "):]) for line in lines if line.startswith("# run "))
    return info, json.loads(lines[-1])


def _wall_times(root: Path, repeats: int, scratch: Path) -> dict:
    """Median wall time, seconds, of each of COMMANDS in a fresh interpreter."""
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(root / "src")}
    times = {name: [] for name in COMMANDS}
    for _ in range(repeats):
        for name, argv in COMMANDS.items():
            out = ["--out", str(scratch / f"{name}.csv")] if argv[0] == "-m" else []
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv, *out], cwd=scratch, env=env,
                           capture_output=True, timeout=120, check=True)
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(values) for name, values in times.items()}


def _src_lines(root: Path) -> dict:
    out = subprocess.run([sys.executable, str(HERE / "scripts" / "src_lines.py"),
                          str(root / "src")], capture_output=True, text=True, check=True)
    code, physical = out.stdout.splitlines()[-1].split()[:2]
    return {"code": int(code), "physical": int(physical)}


def _next_path(outdir: Path) -> Path:
    taken = [int(m.group(1)) for p in outdir.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return outdir / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=HERE,
                        help="source tree to measure (default: this checkout)")
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    parser.add_argument("--runs", type=int, default=3, help="benchmark runs per workload")
    parser.add_argument("--seconds", type=float, default=10.0, help="timed seconds per run")
    parser.add_argument("--repeats", type=int, default=7,
                        help="fresh interpreters per wall-time case")
    parser.add_argument("--outdir", type=Path, default=HERE)
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not (root / "perfbench" / "run.py").is_file() or not (root / "src" / "jcqsim").is_dir():
        print(f"error: {root} holds no perfbench/run.py and src/jcqsim", file=sys.stderr)
        return 2
    if min(args.runs, args.repeats) < 1 or not args.seconds > 0.0:
        print("error: --runs and --repeats must be at least 1, --seconds positive",
              file=sys.stderr)
        return 2
    args.outdir.mkdir(parents=True, exist_ok=True)
    compileall.compile_dir(root / "src", quiet=1)

    machine, results = None, {w: [] for w in args.workloads}
    for run in range(args.runs):
        seed = SEEDS[run % len(SEEDS)]
        for workload in args.workloads:
            info, result = _benchmark_run(root, workload, seed, args.seconds)
            machine = machine or {k: info.get(k) for k in MACHINE_KEYS}
            results[workload].append(result)
            print(f"{workload} seed {seed}: " + json.dumps(result), file=sys.stderr)

    workloads = {}
    for workload, runs in results.items():
        first = runs[0]["metrics"]
        workloads[workload] = {
            "correct": all(r["correct"] and r["failed"] == 0 for r in runs),
            "metrics": {name: {"unit": first[name]["unit"],
                               **_summary([r["metrics"][name]["value"] for r in runs])}
                        for name in first},
        }
    with tempfile.TemporaryDirectory() as scratch:
        wall = _wall_times(root, args.repeats, Path(scratch))

    bench = {
        "machine": machine,
        "tree": _tree(root),
        "settings": {"seeds": list(SEEDS), "runs": args.runs, "seconds": args.seconds,
                     "repeats": args.repeats, "trace": 0},
        "workloads": workloads,
        "wall_s": wall,
        "wall_per_interpreter": {name: t / wall["interpreter"] for name, t in wall.items()
                                 if name != "interpreter"},
        "src_lines": _src_lines(root),
    }
    path = _next_path(args.outdir)
    path.write_text(json.dumps(bench, indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())

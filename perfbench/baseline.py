"""Reference figures for perfbench/README.md; not part of a benchmark run.

    python3 perfbench/baseline.py [--skip-full]

Prints, from the repository root: wall time of each figure preset at its
full published grid (`--threads 1`), the five presets at the `figures`
workload's grids at `--threads 1` and `--threads 2` as a scaling
baseline, and the line count of `src/`.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from pathlib import Path

from run import SRC, WORK  # importing run pins BLAS and OpenMP to one thread

sys.path.insert(0, str(SRC))

import jcqsim.cli as cli  # noqa: E402
import workloads  # noqa: E402

REPEATS = 5


def timed(argv) -> float:
    t0 = time.perf_counter()
    if cli.main(argv) != 0:
        raise SystemExit(f"failed: {argv}")
    return time.perf_counter() - t0


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        out = Path(tmp)
        if "--skip-full" not in sys.argv:
            for name in workloads.FIGURE_STEPS:
                t = timed(["figure", name, "--threads", "1", "--out", str(out / f"{name}.csv")])
                print(f"full grid {name}: {t:.2f} s")
        points = sum(op.points for op in workloads.figures(0).ops)
        for threads in ("1", "2", "1", "2"):
            walls = [
                sum(timed(["figure", name, "--threads", threads, "--steps", str(steps),
                           "--out", str(out / f"{name}.csv")])
                    for name, steps in workloads.FIGURE_STEPS.items())
                for _ in range(REPEATS)
            ]
            print(f"figures presets, --threads {threads}: median {statistics.median(walls):.3f} s "
                  f"over {REPEATS} rounds of {points} points")
    lines = sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py"))
    print(f"src/ lines: {lines}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

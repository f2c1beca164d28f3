"""jcqsim benchmark: one workload, end-to-end or traced, one JSON line out.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0

Run from the repository root: the package is imported from `src/`.  With
`--trace 0` the run measures set-up time, runs a first round under
tracemalloc (peak heap), then times whole rounds for `--seconds` seconds
(states per second, search latency).  With `--trace 1` it alternates plain
and traced rounds and reports the per-layer metrics.  Every run checks the
first round's output against the independent reference and checks that
every round wrote the same CSV bytes.  The last line of stdout is the
result; README.md describes the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
import traceback
from pathlib import Path

# BLAS and OpenMP run on one thread; numpy is imported only after this, and
# child processes inherit it.
THREAD_PINS = {k: "1" for k in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
SETUP_REPEATS = 7
MIN_TIMED_ROUNDS = 3
MIN_SEARCH_SAMPLES = 100     # so that ten samples lie beyond p90
MEASURE_CAP = 2.5            # stop adding rounds past this many times --seconds
STEADY_RATIO = 1.10          # calibration drift across a round that still counts
# Nominal time of `calibration_kernel` on the reference box in its fast state.
CALIBRATION_NOMINAL_S = 0.050
IMPORT_PROBE = ("import time; t = time.perf_counter(); import jcqsim.cli; "
                "print(time.perf_counter() - t)")


def machine(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy: no dict mode
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": THREAD_PINS["OMP_NUM_THREADS"],
    }


def calibration_kernel() -> float:
    """Machine speed now: wall time of a fixed mix of Python arithmetic and
    small numpy calls (the program's own mix), over its nominal time.

    The shared 2-core host this benchmark was tuned on changes speed by up
    to 1.5x for 10 to 60 s at a time.  The kernel runs before and after
    every timed round, and each operation's time is divided by the factor
    interpolated to its middle, so timings read in seconds of the host at
    its nominal speed; the uncorrected medians go to the `# run` line.
    """
    import numpy as np

    h = np.diag([0.3, -0.1, 0.1, -0.3]).astype(complex) + 0.05
    start = time.perf_counter()
    acc = 0.0
    for i in range(250_000):
        acc += math.sqrt(i) * 1.0001
    for _ in range(500):
        w, v = np.linalg.eigh(h)
        ((v * np.exp(-w)) @ v.conj().T).trace()
    return (time.perf_counter() - start) / CALIBRATION_NOMINAL_S


def measure_setup() -> float:
    """Median time to import jcqsim.cli in a fresh interpreter, seconds.

    Not speed-corrected: import time does not follow the calibration kernel
    (on the tuning host, correcting it tripled its spread).
    """
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Runner:
    """Runs rounds of a plan through `cli.main`, counting every operation and
    checking that every round writes the bytes the first one wrote."""

    def __init__(self, cli, plan, out_dir: Path):
        self.cli = cli
        self.plan = plan
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._first_digest = None

    def fail(self, problems: list[str]) -> None:
        self.problems += problems
        self.failed += len(problems)

    def round(self, tracer=None):
        """One round; returns ((start, end, is_search) per operation, CSV bytes).

        A collection first gives every round the same garbage-collector state,
        so collections fall on the same operations in every round.
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)
        gc.collect()
        timings = []
        for i, op in enumerate(self.plan.ops):
            argv = [*op.argv, "--out", str(self.out_dir / op.out)]
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    tracer.request = i
                    rc = tracer.call("cli.main", self.cli.main, (argv,), {})
            except Exception:
                traceback.print_exc()
                rc = -1
            timings.append((t0, time.perf_counter(), op.search))
            if rc != 0:
                self.failed += 1
                print(f"operation failed with exit {rc}: {' '.join(argv)}", file=sys.stderr)
        digest = hashlib.sha256()
        size = 0
        for path in sorted(self.out_dir.iterdir()):
            data = path.read_bytes()
            digest.update(path.name.encode() + b"\0" + data)
            size += len(data)
        if self._first_digest is None:
            self._first_digest = digest.digest()
        elif digest.digest() != self._first_digest:
            kind = "a traced round" if tracer else "a round"
            self.fail([f"{kind} wrote other CSV bytes than the first round"])
        return timings, size


def _wall(timings) -> float:
    return timings[-1][1] - timings[0][0]


def _speed() -> tuple[float, float]:
    """(speed factor, time at the middle of its measurement)."""
    start = time.perf_counter()
    factor = calibration_kernel()
    return factor, 0.5 * (start + time.perf_counter())


def _enough(begin: float, seconds: float, done: bool) -> bool:
    elapsed = time.perf_counter() - begin
    return elapsed >= MEASURE_CAP * seconds or (done and elapsed >= seconds)


def end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Timed rounds, speed-corrected: states per second and search latency.

    Only steady rounds count: a round whose calibrations before and after
    differ by more than STEADY_RATIO straddles a change of host speed that
    no interpolation corrects.  If too few rounds are steady by
    MEASURE_CAP times `seconds`, the steadiest rounds count.  Each metric is
    the median over the counted rounds of that round's value, so one round
    that a speed change still reached cannot move it.
    """
    plan = runner.plan
    rounds_needed = max(MIN_TIMED_ROUNDS, -(-MIN_SEARCH_SAMPLES // max(1, plan.searches)))
    rounds = []    # (drift, raw wall, corrected wall, raw latencies, corrected latencies)
    begin = time.perf_counter()
    f0, t0 = _speed()
    while not _enough(begin, seconds,
                      sum(r[0] <= STEADY_RATIO for r in rounds) >= rounds_needed):
        timings, _ = runner.round()
        f1, t1 = _speed()
        # Each operation is corrected by the factor interpolated to its middle.
        corrected = [(end - start) / (f0 + (f1 - f0) * (0.5 * (start + end) - t0) / (t1 - t0))
                     for start, end, _ in timings]
        searches = [i for i, (_, _, search) in enumerate(timings) if search]
        rounds.append((max(f0, f1) / min(f0, f1), _wall(timings), sum(corrected),
                       [(timings[i][1] - timings[i][0]) * 1e3 for i in searches],
                       [corrected[i] * 1e3 for i in searches]))
        f0, t0 = f1, t1
    used = [r for r in rounds if r[0] <= STEADY_RATIO]
    if len(used) < rounds_needed:
        used = sorted(rounds, key=lambda r: r[0])[:rounds_needed]

    def median(per_round):
        return statistics.median(per_round(r) for r in used)

    metrics = {
        "states_per_s": (median(lambda r: plan.points / r[2]), "states/s"),
        "search_ms_p50": (median(lambda r: statistics.median(r[4])), "ms"),
        "search_ms_p90": (median(lambda r: statistics.quantiles(r[4], n=10)[8]), "ms"),
    }
    info = {"rounds": len(rounds), "steady_rounds": len(used),
            "search_samples": sum(len(r[4]) for r in used),
            "points_per_round": plan.points, "raw": {
                "states_per_s": median(lambda r: plan.points / r[1]),
                "search_ms_p50": median(lambda r: statistics.median(r[3])),
                "speed_factor": median(lambda r: r[1] / r[2])}}
    return metrics, info


def per_layer(runner: Runner, seconds: float, bytes_written: int, spans_path: Path):
    """Plain and traced rounds in turn: per-layer metrics and tracing overhead."""
    import tracing
    from jcqsim import correlations

    # Evaluations a polish used = report total minus the seed grid.
    offset = getattr(correlations, "SEED_THETA_POINTS", 0) * getattr(
        correlations, "SEED_PHI_POINTS", 0)
    cap = getattr(correlations, "SIMPLEX_MAX_EVALS", 0)
    plain, traced = [], []
    begin = time.perf_counter()
    while not _enough(begin, seconds, len(traced) >= 2):
        plain.append(_wall(runner.round()[0]))
        tracer = tracing.Tracer(not traced, offset, cap)
        with tracing.installed(tracer):
            traced.append((_wall(runner.round(tracer)[0]), tracer))
    overhead = (statistics.median(w for w, _ in traced) / statistics.median(plain) - 1.0) * 100.0
    per_round = [tracing.layer_metrics(t, bytes_written, overhead) for _, t in traced]
    metrics = {}
    for name, (value, unit) in per_round[0].items():
        if unit in ("ms", "us"):
            value = statistics.median(m[name][0] for m in per_round)
        elif any(m[name][0] != value for m in per_round):
            runner.problems.append(f"count {name} differs between traced rounds")
        metrics[name] = (value, unit)
    traced[0][1].dump(spans_path)
    return metrics, {"rounds": len(traced), "spans_file": str(spans_path.relative_to(ROOT))}


def run(args) -> dict:
    if not (SRC / "jcqsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no jcqsim package under {SRC}; run from a source checkout")
    info = machine(args.seed)
    phases = {}
    mark = time.perf_counter()

    def phase(name):
        nonlocal mark
        now = time.perf_counter()
        phases[name] = round(now - mark, 3)
        mark = now

    setup_s = measure_setup() if args.trace == 0 else None
    phase("setup")

    sys.path.insert(0, str(SRC))
    import jcqsim
    import jcqsim.cli as cli
    if Path(jcqsim.__file__).resolve().parent != (SRC / "jcqsim").resolve():
        raise SystemExit(f"error: jcqsim imported from {jcqsim.__file__}, not {SRC}")
    import workloads

    plan = workloads.WORKLOADS[args.workload](args.seed)
    WORK.mkdir(parents=True, exist_ok=True)
    out_dir = WORK / f"{args.workload}-{os.getpid()}"
    runner = Runner(cli, plan, out_dir)
    try:
        # First round, under tracemalloc in an end-to-end run (the heap
        # pass); its output is the one checked against the reference.
        gc.collect()
        if args.trace == 0:
            tracemalloc.start()
        try:
            _, size = runner.round()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        phase("first")
        if runner.failed == 0:
            try:
                runner.fail(plan.check(out_dir, args.seed))
            except Exception as exc:  # malformed output: a failed check, not a crash
                traceback.print_exc()
                runner.fail([f"checker raised {exc!r}"])
        phase("check")
        if args.trace == 0:
            metrics, more = end_to_end(runner, args.seconds)
            metrics.update(setup_s=(setup_s, "s"), peak_heap_mb=(peak / 1e6, "MB"))
        else:
            metrics, more = per_layer(runner, args.seconds, size,
                                      WORK / f"spans-{args.workload}.jsonl")
        phase("measure")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    for p in runner.problems:
        print(f"check failed: {p}", file=sys.stderr)
    print("# run " + json.dumps({"workload": args.workload, "trace": args.trace, **info,
                                 **more, "phase_s": phases}))
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": min(runner.failed, runner.attempted),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "general_states", "entanglement_scan", "ratio_search"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    result = run(parser.parse_args(argv))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

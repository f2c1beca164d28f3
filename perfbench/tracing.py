"""In-memory spans around the public functions of each jcqsim layer.

The program itself is not changed: while a :class:`Tracer` is installed,
each listed function is replaced by a timing wrapper in every jcqsim module
namespace that holds it, which is where its callers look it up at run time.
Uninstalling puts the originals back.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import reference

# Public functions wrapped per layer.  `cli.main` is the root span of every
# operation and is opened by the runner itself.
LAYER_FUNCTIONS = {
    "sweep": ("figure_preset", "sweep_1d", "sweep_2d", "esd_temperature", "optimal_ratio"),
    "device": ("effective_params", "build_hamiltonian", "gibbs_state"),
    "correlations": ("quantum_discord", "mutual_information", "concurrence"),
    "qmath": ("kron", "partial_trace", "require_hermitian"),
}
NAMESPACES = ("jcqsim", "jcqsim.cli", "jcqsim.sweep", "jcqsim.device",
              "jcqsim.correlations", "jcqsim.qmath")


class Tracer:
    """Collects spans and per-name totals; one instance per traced round."""

    def __init__(self, keep_spans: bool, polish_offset: int, polish_cap: int):
        self.keep_spans = keep_spans
        self.spans: list[tuple] = []      # (id, parent, request, name, start_ns, end_ns)
        self.totals: dict[str, list[int]] = {}   # name -> [calls, total_ns, self_ns]
        self.counts = dict.fromkeys(
            ("points", "search_iterations", "boundary_hits", "reports",
             "optimizer_evals", "polish_cap_hits", "states", "x_states"), 0)
        self.request = 0
        self._stack: list[list] = []      # [span id, covered_ns]
        self._next_id = 0
        self._polish_offset = polish_offset
        self._polish_cap = polish_cap

    def call(self, name, fn, args, kwargs, observe=None):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        frame = [span_id, 0]
        self._stack.append(frame)
        ok = False
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            ok = True
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            total = self.totals.get(name)
            if total is None:
                total = self.totals[name] = [0, 0, 0]
            total[0] += 1
            total[1] += end - start
            total[2] += end - start - frame[1]
            if self.keep_spans:
                self.spans.append(
                    (span_id, parent[0] if parent else None, self.request, name, start, end))
            if ok and observe is not None:
                observe(self, result)
            # Bookkeeping and observer time are charged to no layer.
            if parent is not None:
                parent[1] += time.perf_counter_ns() - start
        return result

    # Observers: counts read from return values at the layer boundary.
    def _rows(self, rows):
        self.counts["points"] += len(rows)

    def _search(self, point):
        self.counts["search_iterations"] += point.iterations
        self.counts["boundary_hits"] += bool(point.boundary)

    def _report(self, report):
        self.counts["reports"] += 1
        self.counts["optimizer_evals"] += report.optimizer_evaluations
        if report.optimizer_evaluations - self._polish_offset >= self._polish_cap:
            self.counts["polish_cap_hits"] += 1

    def _state(self, rho):
        self.counts["states"] += 1
        self.counts["x_states"] += reference.is_x_state(rho)

    OBSERVERS = {
        "sweep.sweep_1d": _rows, "sweep.sweep_2d": _rows,
        "sweep.esd_temperature": _search, "sweep.optimal_ratio": _search,
        "correlations.quantum_discord": _report,
        "device.gibbs_state": _state,
    }

    def dump(self, path) -> None:
        fields = ("id", "parent", "request", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def _wrapper(tracer: Tracer, name: str, fn):
    observe = Tracer.OBSERVERS.get(name)

    def traced(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, observe)

    traced.__wrapped__ = fn
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Replace every listed function, in every namespace holding it."""
    patched = []
    try:
        for layer, names in LAYER_FUNCTIONS.items():
            home = sys.modules[f"jcqsim.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = _wrapper(tracer, f"{layer}.{fname}", original)
                for ns in NAMESPACES:
                    mod = sys.modules[ns]
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            patched.append((mod, attr, original))
        yield tracer
    finally:
        for mod, attr, original in reversed(patched):
            setattr(mod, attr, original)


def layer_metrics(tracer: Tracer, bytes_written: int, overhead_pct: float) -> dict:
    """Per-layer metrics of one traced round, as (value, unit) pairs."""
    tot = tracer.totals
    c = tracer.counts

    def calls(name):
        return tot.get(name, (0, 0, 0))[0]

    def per_call_us(name, index):
        row = tot.get(name)
        return row[index] / row[0] / 1e3 if row else 0.0

    def self_ms(layer):
        return sum(v[2] for k, v in tot.items() if k.startswith(layer + ".")) / 1e6

    qmath_calls = sum(v[0] for k, v in tot.items() if k.startswith("qmath."))
    qmath_self = sum(v[2] for k, v in tot.items() if k.startswith("qmath."))
    out = {
        "cli.self_ms": (self_ms("cli"), "ms"),
        "cli.bytes_written": (bytes_written, "bytes"),
        "sweep.self_ms": (self_ms("sweep"), "ms"),
        "sweep.points": (c["points"], "count"),
        "sweep.search_iterations": (c["search_iterations"], "count"),
        "sweep.boundary_hits": (c["boundary_hits"], "count"),
    }
    for fname in LAYER_FUNCTIONS["device"]:
        out[f"device.{fname}_us"] = (per_call_us(f"device.{fname}", 1), "us")
        out[f"device.{fname}_calls"] = (calls(f"device.{fname}"), "count")
    out.update({
        "correlations.quantum_discord_self_us":
            (per_call_us("correlations.quantum_discord", 2), "us"),
        "correlations.quantum_discord_calls": (calls("correlations.quantum_discord"), "count"),
        "correlations.optimizer_evals_per_state":
            (c["optimizer_evals"] / c["reports"] if c["reports"] else 0.0, "evals"),
        "correlations.polish_cap_hits": (c["polish_cap_hits"], "count"),
        "correlations.x_state_share": (c["x_states"] / c["states"] if c["states"] else 0.0,
                                       "fraction"),
    })
    for fname in ("mutual_information", "concurrence"):
        out[f"correlations.{fname}_us"] = (per_call_us(f"correlations.{fname}", 1), "us")
        out[f"correlations.{fname}_calls"] = (calls(f"correlations.{fname}"), "count")
    out["qmath.self_us"] = (qmath_self / qmath_calls / 1e3 if qmath_calls else 0.0, "us")
    out["qmath.calls"] = (qmath_calls, "count")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out

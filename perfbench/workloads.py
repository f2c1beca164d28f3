"""The four workloads: seeded operations and their correctness checks.

A workload is one round of `jcqsim.cli.main` calls made from `--seed`
alone, plus a checker that reads the CSV files a round wrote and compares
them with the independent reference in `reference.py` and with properties
the method must have.  Every failed check yields one message.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import reference as ref

VOLTAGES = (5e-6, 1.2e-4)      # gate-voltage range drawn from and swept, V
ESD_T_MAX = "1"                # K; every state here is separable well below it
CONCURRENCE_FLOOR = 1e-12      # concurrence the ESD search treats as zero
MEASURE_TOL = 1e-8             # against the reference; CSV carries 9 digits
GROUND_TOL = 5e-5              # the package's closed-form acceptance gate
SCAN_TOL = 1e-7                # golden-section optimum against a bracket scan
SEARCHES_PER_ROUND = 24        # ESD latency samples per round of a sweep workload
DISCORD_SAMPLES = 6            # seeded rows checked against the discord grid

FINE_GRID = ref.DiscordGrid(121, 240)
COARSE_GRID = ref.DiscordGrid(61, 120)


@dataclass(frozen=True)
class Op:
    """One `cli.main` call; the runner appends `--out <dir>/<out>`."""

    argv: tuple[str, ...]
    out: str = ""
    points: int = 0          # grid points named by the inputs
    search: bool = False     # a sequential search, whose latency is sampled


@dataclass(frozen=True)
class Series:
    """One swept series of a CSV file and the reference state of each row."""

    file: str
    label: str | None                  # value of the `series` column, if any
    columns: tuple[str, ...]           # axis columns (two for a surface)
    axis: tuple[float, float, int]     # start, stop, steps of every axis
    measures: tuple[str, ...]
    state: Callable                    # axis value(s) -> reference state


@dataclass(frozen=True)
class Plan:
    ops: tuple[Op, ...]
    checker: Callable                  # (out_dir, rng) -> list of failures

    @property
    def points(self) -> int:
        return sum(op.points for op in self.ops)

    @property
    def searches(self) -> int:
        return sum(op.search for op in self.ops)

    def check(self, out_dir: Path, seed: int) -> list[str]:
        return self.checker(out_dir, random.Random(seed + 1))


def _g(x: float) -> str:
    return format(x, ".6g")


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """One uniform draw from each of n equal slices of (lo, hi]: every seed
    covers the whole range, so per-seed cost varies little."""
    return [lo + (hi - lo) * (k + 1.0 - rng.random()) / n for k in range(n)]


def _numbered(ops: list[Op]) -> tuple[Op, ...]:
    """Give every op without a fixed file name its own output file."""
    return tuple(Op(op.argv, op.out or f"op{i:03d}.csv", op.points, op.search)
                 for i, op in enumerate(ops))


def _interleaved(sweeps: list[Op], searches: list[Op]) -> list[Op]:
    """Searches spread evenly after the sweeps, so that a change of host
    speed during a round reaches a few latency samples, not all of them."""
    out = []
    for k, op in enumerate(sweeps):
        out += [op, *searches[k * len(searches) // len(sweeps):
                             (k + 1) * len(searches) // len(sweeps)]]
    return out


def _read(path: Path) -> tuple[list[str], list[dict]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [dict(zip(rows[0], r)) for r in rows[1:]]


def _close(a: float, b: float, tol: float = MEASURE_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(b))


def _reference_measures(rho) -> dict:
    c = ref.concurrence(rho)
    return {"mutual_information": ref.mutual_information(rho), "concurrence": c,
            "eof": ref.eof_from_concurrence(c)}


def _check_series(out_dir: Path, s: Series, every_row: bool):
    """Header, axis, ranges and the EoF relation on every row; concurrence
    (and with `every_row` every non-discord measure) against the reference.

    Returns (failures, discord rows as (name, axis values, value, state)).
    """
    header, rows = _read(out_dir / s.file)
    expected = (["series"] if s.label else []) + [*s.columns, *s.measures]
    if header != expected:
        return [f"{s.file}: header {header}, expected {expected}"], []
    name = f"{s.file} {s.label or ''}".strip()
    if s.label:
        rows = [r for r in rows if r["series"] == s.label]
    start, stop, n = s.axis
    grid = [start + (stop - start) * k / (n - 1) for k in range(n)]
    axes = [[float(r[s.columns[0]]) for r in rows[:n]]]
    if len(s.columns) == 2:
        axes.append([float(r[s.columns[1]]) for r in rows[::n]])
    bad = []
    if len(rows) != n ** len(s.columns) or not all(
            len(a) == n and all(_close(x, e) for x, e in zip(a, grid)) for a in axes):
        bad.append(f"{name}: axis is not {n} points on [{start}, {stop}]")

    checked = ("mutual_information", "concurrence", "eof") if every_row else ("concurrence",)
    checked = [m for m in checked if m in s.measures]
    discord_rows = []
    for i, r in enumerate(rows):
        x = [float(r[c]) for c in s.columns]
        d, c, e = (float(r.get(m, 0.0)) for m in ("discord", "concurrence", "eof"))
        if not (d >= 0.0 and 0.0 <= c <= 1.0 and 0.0 <= e <= 1.0):
            bad.append(f"{name} row {i}: measure out of range {r}")
            break
        if "concurrence" in r and "eof" in r and not _close(e, ref.eof_from_concurrence(c)):
            bad.append(f"{name} row {i}: eof {e} is not H(C = {c})")
            break
        if checked:
            want = _reference_measures(s.state(*x))
            wrong = [m for m in checked if not _close(float(r[m]), want[m])]
            if wrong:
                bad.append(f"{name} row {i}: {wrong} = {[r[m] for m in wrong]}, "
                           f"reference {[want[m] for m in wrong]}")
                break
        if "discord" in s.measures:
            discord_rows.append((name, x, d, s.state))
    return bad, discord_rows


def _check_discord(name: str, program: float, rho) -> list[str]:
    """D_prog <= D_grid + tol and D_grid - D_prog within the grid's
    resolution bound (the grid value bounds the true discord from above)."""
    grid, bound = FINE_GRID.discord(rho)
    if program > grid + MEASURE_TOL:
        return [f"{name}: discord {program} above the grid value {grid}"]
    if grid - program > bound + MEASURE_TOL:
        return [f"{name}: discord {program} below the grid value {grid} by more than {bound}"]
    return []


def _sampled_discord(rng: random.Random, rows) -> list[str]:
    bad = []
    for name, x, value, state in rng.sample(rows, DISCORD_SAMPLES):
        bad += _check_discord(f"{name} at {x}", value, state(*x))
    return bad


DEVICE_FLAGS = {"v_x": ("v_x1", "v_x2"), "phi_x1": ("phi_x1",), "phi_x2": ("phi_x2",),
                "phi_e": ("phi_e",)}


def _flags(device: dict) -> tuple[str, ...]:
    out = ()
    for key, value in device.items():
        out += (f"--{key.replace('_', '-')}", _g(value))
    return out


def _reference_device(device: dict) -> dict:
    """Device controls as the CLI receives them (6 digits), reference names."""
    return {name: float(_g(v)) for key, v in device.items() for name in DEVICE_FLAGS[key]}


def _esd_ops(rng: random.Random, general: bool) -> list[tuple[Op, dict]]:
    """ESD searches at seeded gate voltages, fluxes and (general) phi_e."""
    out = []
    for v in _stratified(rng, *VOLTAGES, SEARCHES_PER_ROUND):
        dev = {"v_x": v}
        dev["phi_x1"] = dev["phi_x2"] = rng.uniform(0.05, 0.45)
        if general:
            dev["phi_e"] = 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4)
        op = Op(("critical", "esd", *_flags(dev), "--t-max", ESD_T_MAX), search=True)
        out.append((op, _reference_device(dev)))
    return out


def _check_esd(out_dir: Path, ops, devices) -> list[str]:
    """The final bracket holds the ESD point: C_ref(lo) > 0, C_ref(hi) <= floor."""
    bad = []
    for op, dev in zip((op for op in ops if op.search), devices):
        _, rows = _read(out_dir / op.out)
        r = rows[0]
        lo, hi = float(r["bracket_lo"]), float(r["bracket_hi"])
        if not (r["kind"] == "esd_temperature" and lo <= float(r["location"]) <= hi):
            bad.append(f"{op.out}: malformed esd row {r}")
        elif not (ref.concurrence(ref.device_state(lo, **dev)) > 0.0
                  and ref.concurrence(ref.device_state(hi, **dev)) <= CONCURRENCE_FLOOR):
            bad.append(f"{op.out}: bracket [{lo}, {hi}] does not hold the ESD point")
    return bad


# ---------------------------------------------------------------------------
# figures: the five published presets on reduced grids (phi_e = 1/2), plus
# ESD searches at seeded gate voltages as the sequential-latency sample.

FIGURE_STEPS = {"fig2a": 41, "fig2b": 21, "fig3": 21, "fig4": 21, "fig5": 7}
FIG2B_T = (0.1, 0.5, 1.0, 1.5, 2.0)
FIG3_V = (7.5e-6, 50e-6, 100e-6)
FIG4_T = (0.0, 1e-3, 5e-3)
FIG5_T = (0.0, 0.01)


def _figure_series() -> list[Series]:
    st = FIGURE_STEPS
    ratio = (0.1, 50.0)
    out = [Series("fig2a.csv", "T=0K", ("ratio",), (*ratio, st["fig2a"]), ("discord",),
                  lambda x: ref.symmetric_state(1.0, x, 0.0))]
    out += [Series("fig2b.csv", f"T={t:g}K", ("ratio",), (*ratio, st["fig2b"]), ("discord",),
                   lambda x, t=t: ref.symmetric_state(1.0, x, t)) for t in FIG2B_T]
    out += [Series("fig3.csv", f"VX={v * 1e6:g}uV", ("temperature_k",), (0.0, 0.1, st["fig3"]),
                   ("discord", "concurrence", "eof"),
                   lambda x, v=v: ref.device_state(x, v_x1=v, v_x2=v)) for v in FIG3_V]
    out += [Series("fig4.csv", f"T={t:g}K", ("theta",), (0.0, 2.0, st["fig4"]),
                   ("discord", "eof"),
                   lambda x, t=t: ref.device_state(t, phi_x1=x, phi_x2=x)) for t in FIG4_T]
    out += [Series(f"fig5_{s}.csv", f"T={t:g}K", ("theta1", "theta2"), (0.0, 2.0, st["fig5"]),
                   ("discord",),
                   lambda x, y, t=t: ref.device_state(t, phi_x1=x, phi_x2=y))
            for s, t in zip("ab", FIG5_T)]
    return out


def figures(seed: int) -> Plan:
    rng = random.Random(seed)
    series = _figure_series()
    ops = []
    for name, n in FIGURE_STEPS.items():
        points = sum(s.axis[2] ** len(s.columns) for s in series if s.file.startswith(name))
        ops.append(Op(("figure", name, "--threads", "1", "--steps", str(n)),
                      f"{name}.csv", points=points))
    esd = _esd_ops(rng, general=False)
    ops = _numbered(_interleaved(ops, [op for op, _ in esd]))

    def check(out_dir: Path, crng: random.Random) -> list[str]:
        bad, discord_rows = [], []
        for s in series:
            b, rows = _check_series(out_dir, s, every_row=False)
            bad += b
            discord_rows += rows
        for name, x, value, _ in discord_rows:
            if name.startswith("fig2a") and abs(
                    value - ref.ground_state_discord(1.0, x[0])) > GROUND_TOL:
                bad.append(f"{name} at j/eps={x[0]}: discord {value} is not the closed form")
                break
        bad += _sampled_discord(crng, discord_rows)
        bad += _check_esd(out_dir, ops, [dev for _, dev in esd])
        return bad

    return Plan(ops, check)


# ---------------------------------------------------------------------------
# general_states and entanglement_scan: device-mode sweeps at seeded controls.

def _device_sweeps(rng: random.Random, draws: int, steps: int, measures, general: bool):
    """Temperature, voltage and phi_x_common sweeps at seeded fixed controls."""
    ops, series = [], []
    common = ("--measures", *measures, "--steps", str(steps))
    for _ in range(draws):
        pe = {"phi_e": 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4)} if general else {}
        v = rng.uniform(*VOLTAGES)
        phi = rng.uniform(0.05, 0.45)
        t = float(_g(rng.uniform(2e-3, 2e-2) if general else rng.uniform(1e-3, 1e-2)))
        fixed_t = ("--temp", _g(t))
        sweeps = [
            ("temperature", "temperature_k", (0.0, 0.05), {"v_x": v, "phi_x1": phi, "phi_x2": phi},
             (), lambda x, d: ref.device_state(x, **d)),
            ("voltage", "v_x_v", VOLTAGES, {"phi_x1": phi, "phi_x2": phi}, fixed_t,
             lambda x, d, t=t: ref.device_state(t, v_x1=x, v_x2=x, **d)),
            ("phi_x_common", "theta", (0.0, 1.0 if general else 2.0), {"v_x": v}, fixed_t,
             lambda x, d, t=t: ref.device_state(t, phi_x1=x, phi_x2=x, **d)),
        ]
        for variable, column, (start, stop), dev, thermal, state in sweeps:
            dev = {**dev, **pe}
            ops.append(Op(("sweep", "--variable", variable, "--start", _g(start),
                           "--stop", _g(stop), *_flags(dev), *thermal, *common),
                          points=steps))
            d = _reference_device(dev)
            series.append((column, (float(_g(start)), float(_g(stop)), steps),
                           lambda x, d=d, state=state: state(x, d)))
    return ops, series


def _sweep_plan(seed: int, draws: int, steps: int, measures, general: bool) -> Plan:
    rng = random.Random(seed)
    sweep_ops, specs = _device_sweeps(rng, draws, steps, measures, general)
    esd = _esd_ops(rng, general)
    ops = _numbered(_interleaved(sweep_ops, [op for op, _ in esd]))
    series = [Series(op.out, None, (column, ), axis, measures, state)
              for op, (column, axis, state) in zip((op for op in ops if not op.search), specs)]

    def check(out_dir: Path, crng: random.Random) -> list[str]:
        bad, discord_rows = [], []
        for s in series:
            b, rows = _check_series(out_dir, s, every_row=not general)
            bad += b
            discord_rows += rows
        if discord_rows:
            bad += _sampled_discord(crng, discord_rows)
        bad += _check_esd(out_dir, ops, [dev for _, dev in esd])
        return bad

    return Plan(ops, check)


def general_states(seed: int) -> Plan:
    return _sweep_plan(seed, draws=2, steps=51, measures=("discord", "concurrence", "eof"),
                       general=True)


def entanglement_scan(seed: int) -> Plan:
    return _sweep_plan(seed, draws=1, steps=801,
                       measures=("mutual_information", "concurrence", "eof"), general=False)


# ---------------------------------------------------------------------------
# ratio_search: golden-section searches over j/eps, one discord per step.

RATIO_SEARCHES = 12
RATIO_BRACKET = (0.1, 50.0)
RATIO_TOL = 1e-6               # the CLI default
RATIO_VALUE_SAMPLES = 6
RATIO_SCAN_POINTS = 16


def ratio_search(seed: int) -> Plan:
    rng = random.Random(seed)
    temps = [_g(t) for t in _stratified(rng, 0.0, 2.0, RATIO_SEARCHES)] + ["0"]
    lo, hi = RATIO_BRACKET
    # States evaluated by one search, fixed by its inputs: two interior
    # points, one per shrinking step, and one at the reported location.
    steps = math.ceil(math.log((hi - lo) / RATIO_TOL) / math.log((1 + math.sqrt(5)) / 2))
    ops = _numbered([
        Op(("critical", "ratio", "--temp", t, "--bracket", _g(lo), _g(hi),
            "--tol", _g(RATIO_TOL)), points=steps + 3, search=True)
        for t in temps
    ])

    def check(out_dir: Path, crng: random.Random) -> list[str]:
        bad = []
        results = []
        for op, t in zip(ops, temps):
            _, rows = _read(out_dir / op.out)
            r = rows[0]
            loc, value = float(r["location"]), float(r["value_at"])
            if not (r["kind"] == "optimal_ratio" and lo <= float(r["bracket_lo"]) <= loc
                    <= float(r["bracket_hi"]) <= hi and 0.0 <= value <= 1.0):
                bad.append(f"{op.out}: malformed ratio row {r}")
                continue
            if t == "0" and r["boundary"] != "1":
                bad.append(f"{op.out}: T = 0 maximum at {loc} not flagged as boundary")
            results.append((op.out, float(t), loc, value))
        zero = [x for x in results if x[1] == 0.0]
        interior = [x for x in results if x[1] > 0.0]
        picked = crng.sample(interior, RATIO_VALUE_SAMPLES - 1) + zero
        for name, t, loc, value in picked:
            bad += _check_discord(f"{name} T={t} j/eps={loc}", value,
                                  ref.symmetric_state(1.0, loc, t))
        for name, t, loc, value in crng.sample(interior, 1) + zero:
            for k in range(RATIO_SCAN_POINTS):
                x = lo + (hi - lo) * k / (RATIO_SCAN_POINTS - 1)
                grid, bound = COARSE_GRID.discord(ref.symmetric_state(1.0, x, t))
                if grid - bound > value + SCAN_TOL:
                    bad.append(f"{name} T={t}: discord {grid} at j/eps={x} exceeds the "
                               f"reported maximum {value} at {loc}")
                    break
        return bad

    return Plan(ops, check)


WORKLOADS = {
    "figures": figures,
    "general_states": general_states,
    "entanglement_scan": entanglement_scan,
    "ratio_search": ratio_search,
}

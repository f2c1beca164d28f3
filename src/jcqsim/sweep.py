"""Parameter sweeps and critical-point searches over the device controls.

Grid points are taken in axis order in chunks of a fixed size on one thread.
Each point gets its own control maps; from the Hamiltonian on, a chunk is one
(N, 4, 4) stack, built and measured at once, and every state's result is the
one it gets alone.  The ``threads`` keyword and the CLI's ``--threads`` are
accepted and change nothing.  The ESD search diagonalizes its Hamiltonian
once for all the temperatures it visits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correlations import concurrence, measure_states, quantum_discord
from .device import (
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    build_hamiltonian,
    effective_params,
    gibbs_family,
    gibbs_state,
    thermal_states,
)
from .errors import BracketError, SpecValidationError

MEASURES = ("mutual_information", "classical_correlation", "discord", "concurrence", "eof")
VARIABLES = ("ratio_j_over_eps", "temperature", "phi_x_common", "phi_x1", "phi_x2", "voltage")

_DEVICE_VARIABLES = frozenset({"phi_x_common", "phi_x1", "phi_x2", "voltage"})

# Concurrence at or below this is treated as exactly zero (it is a hard
# max(0, .) in the formula, so no tolerance subtleties arise above ESD).
CONCURRENCE_FLOOR = 1e-12

DEFAULT_STEPS_1D = 501
DEFAULT_STEPS_2D = 101
# Points measured together: amortizes the X search's kernel calls, bounds memory.
CHUNK_POINTS = 64


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis: variable, uniform endpoint-inclusive grid, context.

    ``fixed`` is the parameter snapshot the axis perturbs; ratio sweeps need
    EffectiveParams with equal nonzero charge energies, flux and voltage
    sweeps need DeviceParams.
    """

    variable: str
    start: float
    stop: float
    fixed: EffectiveParams | DeviceParams
    steps: int = DEFAULT_STEPS_1D
    thermal: ThermalSpec = field(default_factory=lambda: ThermalSpec(0.0))
    measures: tuple[str, ...] = ("discord",)
    label: str = ""

    def __post_init__(self):
        if self.variable not in VARIABLES:
            raise SpecValidationError(f"unknown sweep variable {self.variable!r}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise SpecValidationError("start and stop must be finite")
        if not self.start < self.stop:
            raise SpecValidationError("start must be strictly below stop")
        if not (isinstance(self.steps, int) and self.steps >= 2):
            raise SpecValidationError("steps must be an integer >= 2")
        requested = tuple(self.measures)
        unknown = set(requested) - set(MEASURES)
        if unknown or not requested:
            raise SpecValidationError(f"measures must be a nonempty subset of {MEASURES}")
        object.__setattr__(
            self, "measures", tuple(m for m in MEASURES if m in requested)
        )
        if self.variable == "ratio_j_over_eps":
            if not isinstance(self.fixed, EffectiveParams):
                raise SpecValidationError("ratio sweeps need EffectiveParams as fixed")
            if self.fixed.eps1 != self.fixed.eps2 or self.fixed.eps1 == 0.0:
                raise SpecValidationError(
                    "ratio sweeps need equal nonzero charge energies"
                )
        elif self.variable in _DEVICE_VARIABLES and not isinstance(
            self.fixed, DeviceParams
        ):
            raise SpecValidationError(f"{self.variable} sweeps need DeviceParams as fixed")

    @property
    def axis(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.steps)


@dataclass(frozen=True)
class SweepRow:
    """One grid point: axis value(s) plus the requested measures."""

    axis: tuple[float, ...]
    values: dict[str, float]


@dataclass(frozen=True)
class CriticalPoint:
    """Result of a critical-point search.

    ``bracket`` is the final enclosing interval (width at most the requested
    tolerance); ``boundary`` flags a maximum pinned to a bracket edge.
    """

    kind: str
    location: float
    value_at: float
    bracket: tuple[float, float]
    iterations: int
    boundary: bool = False


def _apply_axes(fixed, thermal: ThermalSpec, *settings):
    """(params, thermal) with each (variable, value) of ``settings`` applied in
    turn; the parameters are copied (and validated) once, whatever they set."""
    changes = {}
    for variable, value in settings:
        if variable == "temperature":
            thermal = ThermalSpec(value)
        elif variable == "ratio_j_over_eps":
            changes["j12"] = value * fixed.eps1
        elif variable == "phi_x_common":
            changes["phi_x1"] = changes["phi_x2"] = value
        elif variable == "voltage":
            changes["v_x1"] = changes["v_x2"] = value
        else:  # phi_x1 or phi_x2, checked by SweepSpec
            changes[variable] = value
    return (replace(fixed, **changes) if changes else fixed), thermal


def _sweep_rows(axes: list, setup, measures: tuple[str, ...]) -> list[SweepRow]:
    """Rows for the given axis tuples; ``setup`` maps one to (params, thermal)."""
    rows = []
    for i in range(0, len(axes), CHUNK_POINTS):
        part = axes[i : i + CHUNK_POINTS]
        states = thermal_states(*zip(*(setup(*a) for a in part)))
        rows += [SweepRow(a, v) for a, v in zip(part, measure_states(states, measures))]
    return rows


def sweep_1d(spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate the requested measures along one axis, ascending order.

    ``threads`` is accepted and ignored: every sweep runs on one thread.
    """

    def setup(x: float):
        return _apply_axes(spec.fixed, spec.thermal, (spec.variable, x))

    return _sweep_rows([(float(x),) for x in spec.axis], setup, spec.measures)


def sweep_2d(spec_x: SweepSpec, spec_y: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate over a 2-D grid, row-major (y outer, x inner); ``threads`` is
    accepted and ignored, as in :func:`sweep_1d`."""
    if spec_x.variable == spec_y.variable:
        raise SpecValidationError("2-D sweeps need two distinct variables")
    if spec_x.fixed != spec_y.fixed or spec_x.thermal != spec_y.thermal:
        raise SpecValidationError("2-D sweep specs must share fixed parameters")
    if spec_x.measures != spec_y.measures:
        raise SpecValidationError("2-D sweep specs must share measures")

    def setup(x: float, y: float):
        return _apply_axes(spec_x.fixed, spec_x.thermal, (spec_y.variable, y), (spec_x.variable, x))

    points = [(float(x), float(y)) for y in spec_y.axis for x in spec_x.axis]
    return _sweep_rows(points, setup, spec_x.measures)


def esd_temperature(fixed, t_max: float, tol: float = 1e-6) -> CriticalPoint:
    """Bisect for the temperature where concurrence first hits exactly zero.

    Requires entanglement at T -> 0+ and none at t_max; raises BracketError
    otherwise.
    """
    if not (t_max > 0.0 and tol > 0.0):
        raise SpecValidationError("t_max and tol must be positive")
    eff = fixed if isinstance(fixed, EffectiveParams) else effective_params(fixed)
    state_at = gibbs_family(build_hamiltonian(eff))

    def conc(t: float) -> float:
        return concurrence(state_at(ThermalSpec(t)))

    if conc(0.0) <= CONCURRENCE_FLOOR:
        raise BracketError("state is never entangled: concurrence is zero at T = 0")
    if conc(t_max) > CONCURRENCE_FLOOR:
        raise BracketError(f"concurrence is still positive at t_max = {t_max}")

    lo, hi = 0.0, t_max
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if conc(mid) > CONCURRENCE_FLOOR:
            lo = mid
        else:
            hi = mid
    location = 0.5 * (lo + hi)
    return CriticalPoint(
        kind="esd_temperature",
        location=location,
        value_at=conc(location),
        bracket=(lo, hi),
        iterations=iterations,
    )


def optimal_ratio(t: float, bracket: tuple[float, float], tol: float = 1e-6) -> CriticalPoint:
    """Golden-section maximization of thermal discord over j/eps at eps = 1 K.

    A maximum within 10*tol of either bracket edge is reported with the
    boundary flag set (T = 0 legitimately has no interior maximum).
    """
    a0, b0 = float(bracket[0]), float(bracket[1])
    if not (0.0 < a0 < b0):
        raise SpecValidationError("bracket must be positive and ordered")
    if tol <= 0.0:
        raise SpecValidationError("tol must be positive")
    thermal = ThermalSpec(t)

    def discord_at(ratio: float) -> float:
        eff = EffectiveParams.symmetric(1.0, ratio)
        return quantum_discord(gibbs_state(build_hamiltonian(eff), thermal)).discord

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = a0, b0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = discord_at(c), discord_at(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = discord_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = discord_at(d)
    location = 0.5 * (a + b)
    return CriticalPoint(
        kind="optimal_ratio",
        location=location,
        value_at=discord_at(location),
        bracket=(a, b),
        iterations=iterations,
        boundary=location <= a0 + 10.0 * tol or location >= b0 - 10.0 * tol,
    )


FIGURES = ("fig2a", "fig2b", "fig3", "fig4", "fig5")

FIG2B_TEMPERATURES = (0.1, 0.5, 1.0, 1.5, 2.0)   # K
FIG3_VOLTAGES = (7.5e-6, 50e-6, 100e-6)          # V
FIG3_TEMPERATURE_STOP = 0.1                      # K, covers every ESD point
FIG4_TEMPERATURES = (0.0, 1e-3, 5e-3)            # K
FIG5_TEMPERATURES = (0.0, 0.01)                  # K


def figure_preset(which: str):
    """Fully populated sweep spec(s) for the published figure parameters.

    1-D figures return a list of labeled SweepSpec series; fig5 returns a
    list of (spec_x, spec_y) pairs, one per temperature surface.
    """
    base = DeviceParams()
    if which in ("fig2a", "fig2b"):
        return [
            SweepSpec(
                "ratio_j_over_eps", 0.1, 50.0, EffectiveParams.symmetric(1.0, 0.0),
                thermal=ThermalSpec(t), measures=("discord",), label=f"T={t:g}K",
            )
            for t in ((0.0,) if which == "fig2a" else FIG2B_TEMPERATURES)
        ]
    if which == "fig3":
        return [
            SweepSpec(
                "temperature", 0.0, FIG3_TEMPERATURE_STOP,
                replace(base, v_x1=v, v_x2=v),
                measures=("discord", "concurrence", "eof"), label=f"VX={v * 1e6:g}uV",
            )
            for v in FIG3_VOLTAGES
        ]
    if which == "fig4":
        return [
            SweepSpec(
                "phi_x_common", 0.0, 2.0, base,
                thermal=ThermalSpec(t), measures=("discord", "eof"), label=f"T={t:g}K",
            )
            for t in FIG4_TEMPERATURES
        ]
    if which == "fig5":
        return [
            tuple(
                SweepSpec(
                    variable, 0.0, 2.0, base, steps=DEFAULT_STEPS_2D,
                    thermal=ThermalSpec(t), measures=("discord",), label=f"T={t:g}K",
                )
                for variable in ("phi_x1", "phi_x2")
            )
            for t in FIG5_TEMPERATURES
        ]
    raise SpecValidationError(f"unknown figure {which!r}")

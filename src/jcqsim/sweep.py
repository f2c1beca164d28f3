"""Parameter sweeps and critical-point searches over the device controls.

Grid points are taken in axis order in chunks of a fixed size on one thread.
Each point gets its own control maps; from the Hamiltonian on, a chunk is one
(N, 4, 4) stack, built and measured at once, and every state's result is the
one it gets alone.

The two searches (bisection for the ESD temperature, golden section for the
discord-maximizing j/eps) measure speculatively.  Each step's next point is a
fixed float expression of the current bracket, so the points the next
SEARCH_DEPTH steps could visit, one for each outcome of each comparison, are
known before any is measured: a tree of 2**SEARCH_DEPTH - 1 points.  They
go into one stack of at most that many states, with the reported midpoint of
each path that ends inside the tree.  The search then runs its plain loop,
with its own comparisons, reading each value from that stack and measuring
the next tree when a value is missing.  A state's result does not depend on the stack it is measured in,
so every value, decision and reported field is the bit it would be one point
at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .correlations import MEASURES, measure_states
from .device import (
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    build_hamiltonian,
    effective_params,
    gibbs_family,
    thermal_states,
)
from .errors import BracketError, SpecValidationError

VARIABLES = ("ratio_j_over_eps", "temperature", "phi_x_common", "phi_x1", "phi_x2", "voltage")

_DEVICE_VARIABLES = frozenset({"phi_x_common", "phi_x1", "phi_x2", "voltage"})

# Concurrence at or below this is treated as exactly zero (it is a hard
# max(0, .) in the formula, so no tolerance subtleties arise above ESD).
CONCURRENCE_FLOOR = 1e-12

DEFAULT_STEPS_1D = 501
DEFAULT_STEPS_2D = 101
# Points measured together: amortizes the X search's kernel calls, bounds memory.
CHUNK_POINTS = 64
# Search steps measured ahead as one stack of up to 2**SEARCH_DEPTH - 1 points.
# At 4 a golden-section search takes about half the time; 5 is no faster and
# its larger stacks raise the peak heap by half.
SEARCH_DEPTH = 4


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


def sweep_1d(spec: SweepSpec) -> list[SweepRow]:
    """Evaluate the requested measures along one axis, ascending order."""

    def setup(x: float):
        return _apply_axes(spec.fixed, spec.thermal, (spec.variable, x))

    return _sweep_rows([(float(x),) for x in spec.axis], setup, spec.measures)


def sweep_2d(spec_x: SweepSpec, spec_y: SweepSpec) -> list[SweepRow]:
    """Evaluate over a 2-D grid, row-major (y outer, x inner)."""
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


def _require_tol(tol: float, top: float) -> None:
    # A bracket cannot shrink below one float spacing at its upper end ``top``.
    if not (math.isfinite(tol) and tol >= math.ulp(top)):
        raise SpecValidationError(f"tol must be finite and at least {math.ulp(top):.3g}, "
                                  f"one float spacing at {top:g}; got {tol}")


def _column(states: np.ndarray, measure: str) -> list[float]:
    return [row[measure] for row in measure_states(states, (measure,))]


def _speculative(f, children, tol: float):
    """value(state): a search's value at the point of ``state``, measured ahead.

    A state is a tuple (lo, hi, ..., x): its bracket first and last the point
    whose value the search needs there; ``children(*state)`` gives the two
    states that the outcomes of its next comparison lead to.  When the point
    of ``state`` has no value yet, the points of it and of every state up to
    SEARCH_DEPTH - 1 comparisons on go to ``f`` (a list of points to their
    values) as one stack, with the midpoint of each state whose bracket is
    within ``tol``: the search stops there and reports that point.  No such
    state is expanded.  A stack keeps the first 2**SEARCH_DEPTH - 1 distinct
    points, shallowest first, which bounds its memory; a point left out is
    measured when the search reaches it.
    """
    values = {}

    def value(state) -> float:
        if state[-1] not in values:
            points, level = [], [state]
            for _ in range(SEARCH_DEPTH):
                points += [s[-1] for s in level]
                points += [0.5 * (s[0] + s[1]) for s in level if s[1] - s[0] <= tol]
                level = [c for s in level if s[1] - s[0] > tol for c in children(*s)]
            points = list(dict.fromkeys(points))[: 2**SEARCH_DEPTH - 1]
            values.update(zip(points, f(points)))
        return values[state[-1]]

    return value


def _bisection(f, t_max: float, tol: float) -> CriticalPoint:
    """:func:`esd_temperature` for the values f (a list of temperatures to
    their concurrences) gives."""
    at_zero, at_t_max = f([0.0, t_max])
    if at_zero <= CONCURRENCE_FLOOR:
        raise BracketError("state is never entangled: concurrence is zero at T = 0")
    if at_t_max > CONCURRENCE_FLOOR:
        raise BracketError(f"concurrence is still positive at t_max = {t_max}")

    def children(lo, hi, mid):
        return (mid, hi, 0.5 * (mid + hi)), (lo, mid, 0.5 * (lo + mid))

    conc = _speculative(f, children, tol)
    lo, hi = 0.0, t_max
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if conc((lo, hi, mid)) > CONCURRENCE_FLOOR:
            lo = mid
        else:
            hi = mid
    location = 0.5 * (lo + hi)
    return CriticalPoint(
        kind="esd_temperature",
        location=location,
        value_at=conc((lo, hi, location)),
        bracket=(lo, hi),
        iterations=iterations,
    )


def _golden_section(f, a0: float, b0: float, tol: float) -> CriticalPoint:
    """:func:`optimal_ratio` for the values f (a list of ratios to their
    discords) gives."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0

    def children(a, b, c, d, _):
        # The two branches of the loop below, applied to (a, b, c, d).
        c_left, d_right = d - invphi * (d - a), c + invphi * (b - c)
        return (a, d, c_left, c, c_left), (c, b, d, d_right, d_right)

    f_at = _speculative(f, children, tol)
    a, b = a0, b0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f([c, d])
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f_at((a, b, c, d, c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f_at((a, b, c, d, d))
    location = 0.5 * (a + b)
    return CriticalPoint(
        kind="optimal_ratio",
        location=location,
        value_at=f_at((a, b, location)),
        bracket=(a, b),
        iterations=iterations,
        boundary=location <= a0 + 10.0 * tol or location >= b0 - 10.0 * tol,
    )


def esd_temperature(fixed, t_max: float, tol: float = 1e-6) -> CriticalPoint:
    """Bisect for the temperature where concurrence first hits exactly zero.

    Requires entanglement at T -> 0+ and none at t_max; raises BracketError
    otherwise.  The Hamiltonian is diagonalized once.  T = 0 and t_max are
    measured as one stack; after them, each stack holds the midpoints of the
    next SEARCH_DEPTH bisection steps for either outcome of each (15 points,
    fewer where the search ends), so a search at tol 1e-6 over (0, 1 K)
    makes 7 stacked concurrence calls where it made 23 single ones.  The
    result is the same bits: the loop makes the plain comparisons, and a
    state's concurrence does not depend on the stack it is measured in.
    """
    if not 0.0 < t_max < math.inf:
        raise SpecValidationError("t_max must be finite and positive")
    _require_tol(tol, t_max)
    eff = fixed if isinstance(fixed, EffectiveParams) else effective_params(fixed)
    states_at = gibbs_family(build_hamiltonian(eff))

    def concurrences(temperatures):
        return _column(states_at([ThermalSpec(t) for t in temperatures]), "concurrence")

    return _bisection(concurrences, t_max, tol)


def optimal_ratio(t: float, bracket: tuple[float, float], tol: float = 1e-6) -> CriticalPoint:
    """Golden-section maximization of thermal discord over j/eps at eps = 1 K.

    A maximum within 10*tol of either bracket edge is reported with the
    boundary flag set (T = 0 legitimately has no interior maximum).  The two
    starting points are measured as one stack; after them, each stack holds
    the new points of the next SEARCH_DEPTH steps for either outcome of each
    comparison and the midpoint of each path that ends (up to 15 points), so
    a search at tol 1e-6 over (0.1, 50) makes 10 or 11 stacked discord calls
    where it made 40 single ones.  The result is the same bits: the loop
    makes the plain comparisons, and a state's discord does not depend on
    the stack it is measured in.
    """
    a0, b0 = float(bracket[0]), float(bracket[1])
    if not 0.0 < a0 < b0 < math.inf:
        raise SpecValidationError("bracket must be finite, positive and ordered")
    _require_tol(tol, b0)
    thermal = ThermalSpec(t)

    def discords(ratios):
        effs = [EffectiveParams.symmetric(1.0, r) for r in ratios]
        return _column(thermal_states(effs, [thermal] * len(effs)), "discord")

    return _golden_section(discords, a0, b0, tol)


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

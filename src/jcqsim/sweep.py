"""Parameter sweeps and critical-point searches over the device controls.

Grid points are taken in axis order in chunks of a fixed size on one thread.
A chunk's swept controls (``SWEEP_VARIABLES``) and temperatures are arrays,
which :func:`device._coefficient_table` maps and checks at once, as it does a
search's points; the sweep does not know which controls are fluxes.  From the
coefficients on, each row takes one of two paths by its coefficients alone
(:func:`device._thermal_rows`): a row with ej1 = ej2 = 0 is an X state given
in closed form by its entries, the others one (N, 4, 4) stack built by one
real ``eigh`` with its eigenvectors.  Their checked Boltzmann spectra go to
the measures with them as they come, in place of the public validation.
That chain, one chunk's controls to its measure columns, is
:func:`_chunk_measures`, the one place where controls become measures.  A
sweep's generator (:func:`_sweep_chunks`) yields each chunk's rows, one per
point with its axis values innermost first and then the measures, as they
are measured, and each stack of the j/eps search is one chunk of its
ratios, taken as columns with no table.  :func:`sweep_1d` and
:func:`sweep_2d` fill one float table from the generator, as does the CLI's
``report`` (its one-row table over a temperature axis); the CLI's ``sweep``
and ``figure`` write each chunk's rows as they come, so their memory is a
few chunks and the axes.  Every state's
coefficients, temperature and result are the bits it gets alone, and bad
input raises the error of the first offending point in axis order.  The two
searches (bisection for the ESD temperature, golden section for the
discord-maximizing j/eps) share one driver, :func:`_search`, which measures
the steps ahead of them as stacks, filled breadth-first; a stack holds no
point beyond the search's domain but the current step's own, so a search
raises only from a point it reads.  The ESD search
builds no state: it reads each stack's concurrences from the Boltzmann
spectra and the eigenvectors of its one Hamiltonian
(:func:`esd_temperature`).  Its first stack is the spine, the midpoints of
its steps while each goes left, and each later stack also follows the
branch towards an estimate of the crossing (:func:`_bisection`): about
three kernel calls a search, where breadth-first stacks alone made seven.
Where every Gibbs state of that Hamiltonian is
X-shaped it does not stack: each step is decided in Python by the
closed-form concurrence (:func:`_x_bisection`), since a stack costs a numpy
call whatever its points.  The j/eps search, whose states are all
X states, decides its steps in Python by the closed-form discord
(:func:`_x_discord`) from the first while that is clear beyond round-off,
and stacks the rest: it measures no point before a step that the closed
form cannot decide.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

import numpy as np

from .correlations import (
    MEASURES,
    X_SHAPE_TOL,
    _clamp_margin,
    _measure,
    _spin_flip,
    _wootters,
    _wootters_margin,
)
from .device import (
    GROUND_DEGENERACY_RTOL,
    MAX_ENERGY_K,
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    _boltzmann_spectra,
    _coefficient_table,
    _hamiltonians,
    _thermal_rows,
)
from .errors import BracketError, SpecValidationError

# The fields each value of a sweep variable sets ("temperature" is the
# ThermalSpec's), the parameter set it needs as fixed (None takes either) and
# its CSV column.
SweepVariable = namedtuple("SweepVariable", "fields params column")
SWEEP_VARIABLES = {
    "ratio_j_over_eps": SweepVariable(("j12",), EffectiveParams, "ratio"),
    "temperature": SweepVariable(("temperature",), None, "temperature_k"),
    "phi_x_common": SweepVariable(("phi_x1", "phi_x2"), DeviceParams, "theta"),
    "phi_x1": SweepVariable(("phi_x1",), DeviceParams, "theta1"),
    "phi_x2": SweepVariable(("phi_x2",), DeviceParams, "theta2"),
    "voltage": SweepVariable(("v_x1", "v_x2"), DeviceParams, "v_x_v"),
}
VARIABLES = tuple(SWEEP_VARIABLES)

# Concurrence at or below this is treated as exactly zero (it is a hard
# max(0, .) in the formula, so no tolerance subtleties arise above ESD).
CONCURRENCE_FLOOR = 1e-12
# A step of an X-shaped ESD search is decided by its closed-form concurrence
# unless that is within this of CONCURRENCE_FLOOR; then by the Wootters kernel.
ESD_BAND = 1e-10
# A j/eps search step is decided by the closed-form discords of its two points
# (_x_discord) where they differ by more than the sum of their bands: this at
# T = 0, and this times 1 + R/T at T > 0, R = hypot(2, j/eps) the largest
# level, whose round-off in the stack's closed-form levels the Boltzmann
# weights amplify by R/T.
RATIO_BAND = 32 * math.ulp(1.0)

DEFAULT_STEPS_1D = 501
DEFAULT_STEPS_2D = 101
# Points measured together: amortizes the X search's kernel calls, bounds memory.
CHUNK_POINTS = 64
# A search measures at most 2**SEARCH_DEPTH - 1 new points as one stack,
# breadth-first: the points of the next SEARCH_DEPTH steps, or of more steps
# where those hold fewer.  The cap bounds a j/eps search's peak heap, which
# grows with the stack (the temporaries of correlations._cond_entropy).
SEARCH_DEPTH = 4


@dataclass(frozen=True)
class SweepSpec:
    """One swept axis: variable, uniform endpoint-inclusive grid, context.

    ``fixed`` is the parameter snapshot the axis perturbs, of the kind
    ``SWEEP_VARIABLES`` names; ratio sweeps need equal nonzero charge energies.
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
        # np.linspace computes the last grid point so before setting it to
        # stop; near the largest float a step of it overflows, with a warning.
        start, stop, div = float(self.start), float(self.stop), self.steps - 1
        if not math.isfinite(start + div * ((stop - start) / div)):
            raise SpecValidationError("the axis from start to stop overflows a float")
        requested = tuple(self.measures)
        unknown = set(requested) - set(MEASURES)
        if unknown or not requested:
            raise SpecValidationError(f"measures must be a nonempty subset of {MEASURES}")
        object.__setattr__(
            self, "measures", tuple(m for m in MEASURES if m in requested)
        )
        needs, ratio = SWEEP_VARIABLES[self.variable].params, self.variable == "ratio_j_over_eps"
        if needs is not None and not isinstance(self.fixed, needs):
            raise SpecValidationError(
                f"{'ratio' if ratio else self.variable} sweeps need {needs.__name__} as fixed")
        if ratio and (self.fixed.eps1 != self.fixed.eps2 or self.fixed.eps1 == 0.0):
            raise SpecValidationError("ratio sweeps need equal nonzero charge energies")

    @property
    def axis(self) -> np.ndarray:
        """The whole grid, np.linspace(start, stop, steps) bit for bit."""
        return _Linspace(self.start, self.stop, self.steps)[np.arange(self.steps)]


@dataclass(frozen=True)
class _Linspace:
    """The grid np.linspace(start, stop, steps) as a sweep axis that holds
    no values: :func:`_sweep_chunks` takes each chunk's from their indices,
    by linspace's own arithmetic, so a sweep's memory does not grow with its
    axis."""

    start: float
    stop: float
    steps: int

    def __len__(self) -> int:
        return self.steps

    def __getitem__(self, index: np.ndarray) -> np.ndarray:
        # index * step + start, where a step that underflows to 0 is taken
        # as index / (steps - 1) * span, and the last index is stop.
        div = self.steps - 1
        span = float(self.stop) - float(self.start)
        step = span / div
        i = np.asarray(index, dtype=float)
        values = i * step if step != 0.0 else i / div * span
        values += float(self.start)
        return np.where(np.asarray(index) == div, float(self.stop), values)


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


def _chunk_controls(fixed, thermal: ThermalSpec, settings) -> tuple[np.ndarray, np.ndarray]:
    """(coefficient table (N x 5), temperatures (N)) of one chunk, checked by
    :func:`device._coefficient_table`.

    ``settings`` are (variable, values) pairs, each giving one array of N
    values; they are applied in turn, so a later one wins a field both set.
    """
    changes = {"temperature": np.full(len(settings[0][1]), thermal.temperature)}
    for variable, values in settings:
        if variable == "ratio_j_over_eps":  # sets j12 to the ratio times eps1
            with np.errstate(over="ignore"):  # left to the checks, which reject it
                values = values * fixed.eps1
        changes.update(dict.fromkeys(SWEEP_VARIABLES[variable].fields, values))
    temperatures = changes.pop("temperature")
    return _coefficient_table(fixed, changes, temperatures)


def _chunk_measures(fixed, thermal: ThermalSpec, settings, measures: tuple[str, ...]) -> dict:
    """The columns of ``measures`` (see :func:`correlations._measure`) of one
    chunk's points, given by ``settings`` as :func:`_chunk_controls` takes
    them: the chain from controls to measures."""
    return _measure(*_thermal_rows(*_chunk_controls(fixed, thermal, settings)), measures)


def _sweep_chunks(fixed, thermal: ThermalSpec, axes, measures: tuple[str, ...]):
    """The rows of the grid of ``axes``, (variable, axis values) pairs, outer
    first, one chunk of at most ``CHUNK_POINTS`` rows at a time: the last axis
    varies fastest and is applied last.  Axis values are an array or a
    :class:`_Linspace`, indexed by each chunk's indices.  A row holds its
    axis values innermost first, then ``measures``, which each chunk takes
    from :func:`_chunk_measures`, as each stack of a j/eps search does."""
    shape = tuple(len(values) for _, values in axes)
    size = math.prod(shape)
    for start in range(0, size, CHUNK_POINTS):
        index = np.unravel_index(np.arange(start, min(start + CHUNK_POINTS, size)), shape)
        settings = [(variable, values[i]) for (variable, values), i in zip(axes, index)]
        columns = _chunk_measures(fixed, thermal, settings, measures)
        yield np.column_stack(
            [*(values for _, values in reversed(settings)), *(columns[m] for m in measures)])


def _sweep_table(fixed, thermal: ThermalSpec, axes, measures: tuple[str, ...]) -> np.ndarray:
    """All rows of :func:`_sweep_chunks` as one float table."""
    size = math.prod(len(values) for _, values in axes)
    table = np.empty((size, len(axes) + len(measures)))
    start = 0
    for rows in _sweep_chunks(fixed, thermal, axes, measures):
        table[start : start + len(rows)] = rows
        start += len(rows)
    return table


def _grid(spec_x: SweepSpec, spec_y: SweepSpec | None = None) -> tuple:
    """(fixed, thermal, axes, measures) of the grid of one spec, or of a pair
    with y outer and x inner, for :func:`_sweep_chunks`."""
    def axis(spec):
        return spec.variable, _Linspace(spec.start, spec.stop, spec.steps)

    if spec_y is None:
        return spec_x.fixed, spec_x.thermal, [axis(spec_x)], spec_x.measures
    if spec_x.variable == spec_y.variable:
        raise SpecValidationError("2-D sweeps need two distinct variables")
    if spec_x.fixed != spec_y.fixed or spec_x.thermal != spec_y.thermal:
        raise SpecValidationError("2-D sweep specs must share fixed parameters")
    if spec_x.measures != spec_y.measures:
        raise SpecValidationError("2-D sweep specs must share measures")
    return spec_x.fixed, spec_x.thermal, [axis(spec_y), axis(spec_x)], spec_x.measures


def sweep_1d(spec: SweepSpec) -> np.ndarray:
    """Evaluate the requested measures along one axis, ascending order: one
    row (axis value, *spec.measures) per point."""
    return _sweep_table(*_grid(spec))


def sweep_2d(spec_x: SweepSpec, spec_y: SweepSpec) -> np.ndarray:
    """Evaluate over a 2-D grid, row-major (y outer, x inner): one row
    (x, y, *measures) per point; x wins a field both axes set."""
    return _sweep_table(*_grid(spec_x, spec_y))


def _require_tol(tol: float, top: float) -> None:
    # A bracket cannot shrink below one float spacing at its upper end ``top``.
    if not (math.isfinite(tol) and tol >= math.ulp(top)):
        raise SpecValidationError(f"tol must be finite and at least {math.ulp(top):.3g}, "
                                  f"one float spacing at {top:g}; got {tol}")


def _search(f, state, values, children, decide, tol: float, estimate=None, bound=math.inf):
    """(bracket, midpoint, value there, iterations) of a bracketing search.

    A state is a tuple (lo, hi, *points): its bracket, then the points whose
    values its next comparison reads.  While hi - lo > tol the search goes to
    ``children(*state)[not decide(*values of its points)]``; a state within
    ``tol`` stops and reads only its midpoint.  ``values`` maps points to their
    values and ``f`` maps a list of points to theirs.

    Each child's points are fixed float expressions of its parent's bracket,
    so the states ahead, one branch for each outcome of each comparison, are
    known before any of their points is measured.  When a point the search
    reads has no value, the points of the current state and of the states
    ahead of it go to ``f`` as one stack, level by level: deduplicated,
    without those already measured, and at most 2**SEARCH_DEPTH - 1 new
    points, which bounds its memory (a stopping state gives its midpoint and
    is not expanded).  Given ``estimate``, which maps the current state to a
    point in its bracket, the stack then follows the branch towards that
    point down to the stopping state's midpoint, up to 2**(SEARCH_DEPTH + 1)
    - 1 points in all.  A point left out is measured when the search reaches
    it.  A value does not depend on the stack it is measured in, so every
    decision and result is the bit it would be with one point at a time.

    ``f`` accepts the points up to ``bound``, its domain.  A stack holds the
    current state's points, whatever they are, and no other point above
    ``bound``, so ``f`` raises only from a point that the search reads, as it
    would one point at a time, and a search raises in its last call alone.
    """
    cap = 2**SEARCH_DEPTH - 1

    def points(s):
        return (0.5 * (s[0] + s[1]),) if s[1] - s[0] <= tol else s[2:]

    def fill(root):  # measure the stack of points ahead of root
        ahead, level = dict.fromkeys(x for x in points(root) if x not in values), [root]
        while level and len(ahead) < cap:
            level = [c for s in level if s[1] - s[0] > tol for c in children(*s) if c[0] <= bound]
            ahead.update(dict.fromkeys(
                x for s in level for x in points(s) if x not in values and x <= bound))
        ahead = dict.fromkeys(list(ahead)[:cap])
        if estimate is not None:
            guess, s = estimate(root), root
            while len(ahead) < 2 * cap + 1 and s[1] - s[0] > tol:
                first, second = children(*s)
                s = first if first[0] <= guess <= first[1] else second
                ahead.update(dict.fromkeys(x for x in points(s) if x not in values and x <= bound))
        ahead = list(ahead)[: 2 * cap + 1]
        values.update(zip(ahead, f(ahead)))

    def read(root):  # a stack of one point may leave one of root's two
        while True:
            try:
                return [values[x] for x in points(root)]
            except KeyError:
                fill(root)

    iterations = 0
    while state[1] - state[0] > tol:
        state = children(*state)[not decide(*read(state))]
        iterations += 1
    (value,) = read(state)
    return state[:2], 0.5 * (state[0] + state[1]), value, iterations


def _require_esd_bracket(c0: float, c_max: float, t_max: float) -> None:
    # Entangled at T = 0, separable at t_max.
    if c0 <= CONCURRENCE_FLOOR:
        raise BracketError("state is never entangled: concurrence is zero at T = 0")
    if c_max > CONCURRENCE_FLOOR:
        raise BracketError(f"concurrence is still positive at t_max = {t_max}")


def _crossing(margins: dict, lo: float) -> float:
    """An estimate of the temperature in (a, b] where ``margins``, measured
    Wootters margins by temperature, cross CONCURRENCE_FLOOR: a the last
    point from lo on above the floor, b the next.  Inverse interpolation
    through the (at most) four points nearest the crossing, taken as 1/T and
    log(c0 - margin), c0 the margin at T = 0: a margin that one Boltzmann
    factor lowers from c0 is a straight line there.  The midpoint of (a, b)
    where the points are not finite and distinct or the estimate is not in
    [a, b]."""
    known = sorted(margins)
    i = bisect.bisect_right(known, lo)
    while margins[known[i]] > CONCURRENCE_FLOOR:
        i += 1
    a, b, c0 = known[i - 1], known[i], margins[0.0]
    near = [(1.0 / t, math.log(c0 - margins[t])) for t in known[max(0, i - 2) : i + 2]
            if t > 0.0 and margins[t] < c0]
    ys, x = [y for _, y in near], math.nan
    if all(map(math.isfinite, ys)) and len(set(ys)) == len(ys):
        level = math.log(c0 - CONCURRENCE_FLOOR)
        x = sum(u * math.prod((level - z) / (y - z) for z in ys if z != y) for u, y in near)
    guess = 1.0 / x if x > 0.0 else math.nan
    return guess if a <= guess <= b else 0.5 * (a + b)


def _bisection(f, t_max: float, tol: float) -> CriticalPoint:
    """:func:`esd_temperature` for the values f (a list of temperatures to
    their concurrences) gives, its unclamped Wootters margins in
    ``f.margins`` if it keeps them.

    The first stack is the spine: T = 0, t_max and the midpoints of the
    steps while each goes left, t_max/2, t_max/4, ... down to the stopping
    state or 2**(SEARCH_DEPTH + 1) - 1 points, so one call checks the
    bracket and decides the leading run of steps.  Each later stack of
    :func:`_search` follows the branch towards the crossing that
    :func:`_crossing` estimates from the margins of the measured points
    nearest it (f's values where it keeps no margins), which decide as the
    concurrences do.  Every step is decided by f's value at its own
    midpoint, so the estimate only chooses which points share a stack."""
    def children(lo, hi, mid):
        return (mid, hi, 0.5 * (mid + hi)), (lo, mid, 0.5 * (lo + mid))

    spine, hi = [0.0, t_max], t_max  # the midpoint of (0, hi) is 0.5 * hi
    while len(spine) < 2 ** (SEARCH_DEPTH + 1) - 1:
        spine.append(0.5 * hi)
        if hi <= tol:
            break
        hi = spine[-1]
    values = dict(zip(spine, f(spine)))
    _require_esd_bracket(values[0.0], values[t_max], t_max)
    margins = getattr(f, "margins", values)
    bracket, location, value_at, iterations = _search(
        f, (0.0, t_max, 0.5 * t_max), values, children,
        lambda c: c > CONCURRENCE_FLOOR, tol, lambda state: _crossing(margins, state[0]))
    return CriticalPoint("esd_temperature", location, value_at, bracket, iterations)


def _golden_section(f, a0: float, b0: float, tol: float, estimate=None,
                    bound=math.inf) -> CriticalPoint:
    """:func:`optimal_ratio` for the values f (a list of ratios up to
    ``bound`` to their discords) gives, its stacks filled breadth-first by
    :func:`_search`.

    ``estimate``, if given, maps a point to (value, band), f's value within
    band, or to None.  From the first step, a step whose two estimates differ
    by more than the sum of their bands is decided in Python, as f's values
    would decide it; the stacks take over from the first step that is not,
    and measure the value at the midpoint.  No point is measured before
    that, so f's first call is the stack of that step, or the midpoint
    alone where every step is decided."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b0 - invphi * (b0 - a0)
    d = a0 + invphi * (b0 - a0)

    values, known = {}, {}

    def children(a, b, c, d):
        return (a, d, d - invphi * (d - a), c), (c, b, d, c + invphi * (b - c))

    state, steps = (a0, b0, c, d), 0
    while estimate is not None and state[1] - state[0] > tol:
        for x in state[2:]:
            if x not in known:
                known[x] = estimate(x)
        fc, fd = known[state[2]], known[state[3]]
        if fc is None or fd is None or abs(fc[0] - fd[0]) <= fc[1] + fd[1]:
            break
        state = children(*state)[fc[0] < fd[0]]
        steps += 1

    bracket, location, value_at, iterations = _search(
        f, state, values, children, lambda fc, fd: fc >= fd, tol, bound=bound)
    return CriticalPoint(
        "optimal_ratio", location, value_at, bracket, steps + iterations,
        boundary=location <= a0 + 10.0 * tol or location >= b0 - 10.0 * tol,
    )


def esd_temperature(fixed, t_max: float, tol: float = 1e-6) -> CriticalPoint:
    """Bisect for the temperature where concurrence first hits exactly zero.

    Requires entanglement at T -> 0+ and none at t_max; raises BracketError
    otherwise.  No state is built.  The real Hamiltonian is diagonalized
    once, and its eigenvectors V give M = V^T (sy x sy) V once; each stack of
    temperatures (:func:`_bisection`: the spine T = 0, t_max, t_max/2, ...
    first) takes its states' checked spectra from the Boltzmann weights
    (:func:`device._boltzmann_spectra`) and their Wootters margins from one
    :func:`correlations._wootters_margin` call; the search reads their
    clamped concurrences and keeps the margins for its estimates of the
    crossing.  Where V makes every Gibbs state X-shaped, the steps are
    decided one by one in closed form instead (:func:`_x_bisection`), with
    the same result.
    """
    if not 0.0 < t_max < math.inf:
        raise SpecValidationError("t_max must be finite and positive")
    _require_tol(tol, t_max)
    # The Hamiltonian is real symmetric by construction.
    w, v = np.linalg.eigh(_hamiltonians(_coefficient_table(fixed, {}, np.zeros(1))[0]))
    m = _spin_flip(v)

    def spectra(temperatures):
        return _boltzmann_spectra(w, np.array(temperatures)[:, None])[0]

    # Every Gibbs state of H is X-shaped where, for each entry off the
    # diagonal and anti-diagonal, its levels' eigenvector products sum to at
    # most X_SHAPE_TOL in modulus.
    if np.abs(v[0, [0, 0, 1, 2]] * v[0, [1, 2, 3, 3]]).sum(1).max() <= X_SHAPE_TOL:
        return _x_bisection(lambda ts: _wootters(spectra(ts), m).tolist(), w, v, m, t_max, tol)

    def concurrences(temperatures):
        margin = _wootters_margin(spectra(temperatures), m)
        margins.update(zip(temperatures, margin.tolist()))
        return _clamp_margin(margin).tolist()

    # Read from a cell: read from the function, the dict would make a cycle.
    concurrences.margins = margins = {}
    return _bisection(concurrences, t_max, tol)


def _x_concurrence(levels: list, products: list, t: float) -> float:
    """Unclamped X concurrence 2 max(|rho_14| - sqrt(rho_22 rho_33),
    |rho_23| - sqrt(rho_11 rho_44)) of the Gibbs state at t > 0 of ascending
    ``levels``, from its Boltzmann weights, shifted as in
    :func:`device._boltzmann_weights`, and ``products``, the eigenvector
    products V_1k V_4k, V_2k V_3k, V_2k^2, V_3k^2, V_1k^2 and V_4k^2 of each
    level k."""
    a0, a1, a2, a3 = [math.exp(-(e - levels[0]) / t) for e in levels]
    r14, r23, r22, r33, r11, r44 = [a0 * x0 + a1 * x1 + a2 * x2 + a3 * x3
                                    for x0, x1, x2, x3 in products]
    return 2.0 * max(abs(r14) - math.sqrt(r22 * r33),
                     abs(r23) - math.sqrt(r11 * r44)) / (a0 + a1 + a2 + a3)


def _x_bisection(f, w, v, m, t_max: float, tol: float) -> CriticalPoint:
    """:func:`_bisection` of f, the concurrences of a Hamiltonian with levels
    w and eigenvectors v (m = :func:`correlations._spin_flip` of v) whose
    Gibbs states are all X-shaped, one step at a time in Python.  A step
    reads :func:`_x_concurrence`, or f where that is within ESD_BAND of
    CONCURRENCE_FLOOR, so it decides as f does; the first such step while
    no step has been entangled has f measure T = 0 first, so a state never
    entangled fails there.  Then the spectra of every step are checked as f
    checks them, and f's kernel measures T = 0, t_max and the midpoint as
    one stack, for the bracket checks and the value at the midpoint."""
    levels = w[0].tolist()
    products = (v[0, [0, 1, 1, 2, 0, 3]] * v[0, [3, 2, 1, 2, 0, 3]]).tolist()
    lo, hi, steps, checked = 0.0, t_max, [], False
    while hi - lo > tol:
        t = 0.5 * (lo + hi)
        c = _x_concurrence(levels, products, t)
        if abs(c - CONCURRENCE_FLOOR) <= ESD_BAND:
            if lo == 0.0 and not checked:  # no step is entangled yet: is T = 0?
                _require_esd_bracket(f([0.0])[0], 0.0, t_max)  # t_max waits for the end
                checked = True
            (c,) = f([t])
        lo, hi = (t, hi) if c > CONCURRENCE_FLOOR else (lo, t)
        steps.append(t)
    location = 0.5 * (lo + hi)
    p = _boltzmann_spectra(w, np.array([0.0, t_max, location, *steps])[:, None])[0]
    c0, c_max, value_at = _wootters(p[:3], m).tolist()
    _require_esd_bracket(c0, c_max, t_max)
    return CriticalPoint("esd_temperature", location, value_at, (lo, hi), len(steps))


def _plogp(x: float) -> float:
    """x log2 x, 0 at x = 0: one term of an entropy in bits."""
    return x * math.log2(x) if x > 0.0 else 0.0


def _binary_bits(u: float) -> float:
    """Binary entropy of u in bits, as correlations._binary_entropies."""
    return 0.0 if u <= 0.0 else -(u * math.log(u) + (1.0 - u) * math.log1p(-u)) / math.log(2.0)


def _pole_bits(m: float, a: float, b: float) -> float:
    """m H(min(a, b) / m), one qubit's term of correlations._x_pole_entropy."""
    return m * _binary_bits(min(a, b) / m) if m > 0.0 else 0.0


def _x_discord(ratio: float, t: float):
    """(discord, band) of the Gibbs state at t of
    EffectiveParams.symmetric(1.0, ratio), ratio > 0, in closed form: within
    the band of the discord its ratio-sweep row measures, which
    :func:`correlations._maximize_x` takes at theta = 0 or pi/2 by the same
    certificates.  None where neither certificate holds, where the ground
    space at T = 0 is, or is within round-off of, two levels (a state whose
    discord is a difference of entropies near 1.5 bits), or where ratio
    exceeds MAX_ENERGY_K.

    The parity blocks [[a, ratio], [ratio, -a]], a = 2 and a = 0, have levels
    -r, -ratio, ratio, r, r = hypot(2, ratio), weighted as in
    :func:`device._boltzmann_weights`; 1 - 2/r is taken as ratio^2 / (r (r +
    2)), which does not cancel.  A search calls it for each point it decides,
    so its entropies add module-level terms (:func:`_plogp`,
    :func:`_pole_bits`) in the order of the sums they stand for, with the
    same bits, and no closure or generator is built per call."""
    if not ratio <= MAX_ENERGY_K:
        return None
    r = math.hypot(2.0, ratio)
    gap = 4.0 / (r + ratio)  # r - ratio
    if t == 0.0:  # the ground space: -r alone, unless -ratio is in the cut
        if gap <= GROUND_DEGENERACY_RTOL * math.sqrt(2.0) * math.hypot(r, ratio) + RATIO_BAND * r:
            return None
        lower, upper, top, band = 0.0, 0.0, 0.0, RATIO_BAND
    else:
        lower, upper = math.exp(-gap / t), math.exp(-(r + ratio) / t)
        top, band = math.exp(-2.0 * r / t), RATIO_BAND * (1.0 + r / t)
    z = 1.0 + lower + upper + top
    small = ratio / r * (ratio / (r + 2.0))
    p1, p2 = (small + top * (2.0 - small)) / (2.0 * z), (lower + upper) / (2.0 * z)
    p4 = (2.0 - small + top * small) / (2.0 * z)  # p3 = p2
    c = ((1.0 - top) * ratio / r + lower - upper) / (2.0 * z)
    m0, m1 = p1 + p2, p2 + p4  # each qubit's populations

    if (p1 - p2) * (p4 - p2) >= c * c:  # correlations._x_pole_entropy
        best = _pole_bits(m0, p1, p2) + _pole_bits(m1, p2, p4)
    elif abs(math.sqrt(p1 * p4) - p2) <= c:  # correlations._x_equator_entropy
        best = _binary_bits(2.0 * (m0 * m1 - c * c) / (1.0 + math.hypot(2.0 * c, m0 - m1)))
    else:
        return None
    marginal = max(0.0, -(_plogp(m0) + _plogp(m1)))
    joint = max(0.0, -(_plogp(1.0 / z) + _plogp(lower / z) + _plogp(upper / z) + _plogp(top / z)))
    mi = max(0.0, 2.0 * marginal - joint)
    return mi - min(max(0.0, marginal - best), mi), band  # correlations._clamp_classical


def optimal_ratio(t: float, bracket: tuple[float, float], tol: float = 1e-6) -> CriticalPoint:
    """Golden-section maximization of thermal discord over j/eps at eps = 1 K.

    A maximum within 10*tol of either bracket edge is reported with the
    boundary flag set (T = 0 legitimately has no interior maximum).  Each
    step, from the first, whose two closed-form discords (:func:`_x_discord`)
    differ by more than their bands is decided in Python; from the first
    that is not, the points are measured as stacks of up to 15 ratios filled
    breadth-first (see :func:`_golden_section` and :func:`_search`), and the
    value at the midpoint always is: about 2 stacks at the default tol over
    (0.1, 50), 10 on the stacks alone.  A stack is measured as one chunk of
    a ratio sweep (:func:`_chunk_measures`), with no table around it, so each
    decision and value is the one ratio-sweep rows give.  At eps = 1, j12 is
    the ratio itself, so MAX_ENERGY_K bounds the search's domain: no stack
    holds a ratio above it that the search does not read.
    """
    a0, b0 = float(bracket[0]), float(bracket[1])
    if not 0.0 < a0 < b0 < math.inf:
        raise SpecValidationError("bracket must be finite, positive and ordered")
    _require_tol(tol, b0)
    fixed, thermal = EffectiveParams.symmetric(1.0, 0.0), ThermalSpec(t)

    def discords(ratios):  # a stack is one chunk: 2**SEARCH_DEPTH - 1 <= CHUNK_POINTS
        settings = [("ratio_j_over_eps", np.array(ratios))]
        return _chunk_measures(fixed, thermal, settings, ("discord",))["discord"].tolist()

    return _golden_section(discords, a0, b0, tol, lambda ratio: _x_discord(ratio, t), MAX_ENERGY_K)


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

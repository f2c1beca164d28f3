"""Two-qubit Josephson charge-qubit device model.

Maps the physical controls (gate voltages, threading fluxes, shared
inductance) onto the effective qubit Hamiltonian

    H = eps1*sz(1) + eps2*sz(2) - ej1*sx(1) - ej2*sx(2) + j12*sx(1)sx(2)

and builds its equilibrium (Gibbs) states.  All energies are stored in
kelvin (E / k_B), so beta = 1/T with T in kelvin.

Each control map is written once, over controls that are floats (a
DeviceParams) or, for a sweep chunk, arrays of one length wherever the chunk
varies them.  Elementwise float arithmetic in the same order gives the same
bits in Python and in numpy.  The flux maps cos(pi*x) and sin(pi*x) are numpy
expressions too, whose argument reduction is exact and whose one rounding
after pi*x is np.cos or np.sin, so a chunk's coefficients are those of its
points mapped one at a time.  Sweep chunks, searches and single states alike
reach their coefficients through :func:`_coefficient_table`.

A row of coefficients with ej1 = ej2 = 0 exactly (phi_e = 1/2, every
published figure's) has an X-shaped Gibbs state, given in closed form from
its two parity blocks (:func:`_x_stack`): its spectrum and its six entries,
with no eigh and no 4x4 state.  For the other rows one ``eigh`` of their
Hamiltonian stack gives the Gibbs states, their eigenvectors and their
spectra.  Both paths' spectra are checked here (:func:`_boltzmann_spectra`),
and :func:`_thermal_rows` routes each row by its coefficients alone; the
measures diagonalize no built state again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import qmath
from .errors import DimensionError, InvalidParameterError


@dataclass(frozen=True)
class PhysicalConstants:
    """SI constants; fixed, never user-modified."""

    e: float = 1.602176634e-19        # elementary charge, C
    k_b: float = 1.380649e-23         # Boltzmann constant, J/K
    phi_0: float = 2.067833848e-15    # flux quantum h/2e, Wb


CONSTANTS = PhysicalConstants()

# Eigenvalues within this relative distance of the minimum belong to the
# ground eigenspace when taking the T -> 0 limit.
GROUND_DEGENERACY_RTOL = 1e-10
# Largest Hamiltonian coefficient, K.  An entry of H sums at most two
# coefficients, so an entry of a Hamiltonian passed in may reach 4 times it:
# far above that the Frobenius norm of H, which scales that ground-space cut,
# overflows and every level would count as ground.
MAX_ENERGY_K = 1e150


@dataclass(frozen=True)
class DeviceParams:
    """Physical controls and fabrication constants.

    l       shared inductance, H
    c       gate capacitance, F
    c_j0    junction capacitance, F
    e_j0    single-SQUID Josephson energy, K (energy / k_B)
    n       Cooper-pair number offset (integer, |n| <= 1e6)
    v_x1/2  gate voltages, V
    phi_e   external flux through the inductance, units of phi_0
    phi_x1/2  local SQUID fluxes, units of phi_0
    xi      intrabit proportionality constant (dimensionless)
    """

    l: float = 30e-9
    c: float = 1e-6
    c_j0: float = 1e-5
    e_j0: float = 0.02
    n: int = 0
    v_x1: float = 20e-6
    v_x2: float = 20e-6
    phi_e: float = 0.5
    phi_x1: float = 0.0
    phi_x2: float = 0.0
    xi: float = 1.0

    def __post_init__(self):
        if not abs(self.n) <= 1e6:
            raise InvalidParameterError("n must satisfy |n| <= 1e6 (a Cooper-pair offset)")
        if not float(self.n).is_integer():
            raise InvalidParameterError(f"n must be an integer, got {self.n!r}")
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise InvalidParameterError(f"{name} must be finite, got {value}")
        if not (self.l > 0 and self.c > 0 and self.c_j0 > 0):
            raise InvalidParameterError("l, c and c_j0 must all be positive")
        if not self.e_j0 >= 0:
            raise InvalidParameterError("e_j0 must be nonnegative")


@dataclass(frozen=True)
class EffectiveParams:
    """Hamiltonian coefficients in kelvin.

    eps1, eps2 are the charge (sigma_z) energies, ej1, ej2 the intrabit
    (sigma_x) couplings and j12 the interbit sigma_x sigma_x coupling; each
    is finite and at most MAX_ENERGY_K in magnitude.
    """

    eps1: float
    eps2: float
    ej1: float = 0.0
    ej2: float = 0.0
    j12: float = 0.0

    def __post_init__(self):
        for name in ("eps1", "eps2", "ej1", "ej2", "j12"):
            if not abs(getattr(self, name)) <= MAX_ENERGY_K:
                raise InvalidParameterError(
                    f"{name} must be finite with |{name}| <= {MAX_ENERGY_K:g} K")

    @classmethod
    def symmetric(cls, eps: float, j: float) -> "EffectiveParams":
        """Dimensionless mode: equal charge energies, no intrabit coupling."""
        return cls(eps1=eps, eps2=eps, ej1=0.0, ej2=0.0, j12=j)


@dataclass(frozen=True)
class ThermalSpec:
    """Equilibrium temperature in kelvin; T = 0 selects the ground space."""

    temperature: float

    def __post_init__(self):
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise InvalidParameterError("temperature must be finite and >= 0")


def _cos_pi(x):
    """cos(pi*x) of a float, or of each value of an array, with exact argument
    reduction: exactly 2-periodic in x and exactly zero at half-integers,
    which the flux maps rely on.

    x is folded onto y in [0, 1], where cos(pi*x) = cos(pi*y), then onto
    [0, 1/2] by cos(pi*y) = -cos(pi*(1 - y)).  The value each fold keeps is
    exact (Sterbenz), so np.cos is the only rounding after the product with
    pi; the sign of 1/2 - y, exact too, gives the sign and the zeros.
    """
    y = np.abs(np.fmod(x, 2.0))
    y = np.minimum(y, 2.0 - y)
    return np.cos(np.pi * np.minimum(y, 1.0 - y)) * np.sign(0.5 - y)


def _sin_pi(x):
    """sin(pi*x) of a float, or of each value of an array, with exact argument
    reduction; exactly zero at integers.

    x is taken to y in [0, 2), then to [0, 1] with a sign by sin(pi*y) =
    -sin(pi*(y - 1)), and onto [0, 1/2] by sin(pi*y) = sin(pi*(1 - y)); the
    final + 0.0 turns a -0.0 into 0.0.
    """
    y = np.fmod(x, 2.0)
    y = y + 2.0 * (y < 0.0)
    upper = y > 1.0
    y = y - upper
    return (1.0 - 2.0 * upper) * np.sin(np.pi * np.minimum(y, 1.0 - y)) + 0.0


def _check_qubit_index(which: int) -> None:
    if which not in (1, 2):
        raise InvalidParameterError(f"qubit index must be 1 or 2, got {which!r}")


def charge_energy(p: DeviceParams) -> float:
    """Single-box charging energy E_c = 2e^2/(C + C_J0), in kelvin."""
    denominator = (p.c + p.c_j0) * CONSTANTS.k_b
    if not denominator > 0:
        raise InvalidParameterError("c + c_j0 is too small: the charging energy overflows")
    return 2.0 * CONSTANTS.e**2 / denominator


def epsilon_from_voltage(p: DeviceParams, which: int) -> float:
    """Gate-voltage-controlled charge energy of one qubit, in kelvin (an array
    where the gate voltage is)."""
    _check_qubit_index(which)
    v = p.v_x1 if which == 1 else p.v_x2
    return (p.c * v / CONSTANTS.e - (2 * p.n + 1)) * charge_energy(p) / 2.0


def _intrabit(p, cos_x, cos_e):
    """Flux-controlled sigma_x coupling ej of one qubit, in kelvin, from the
    cosines of its local flux and of the external flux; exactly 0 when the
    external flux sits at half a flux quantum."""
    return p.xi * 2.0 * p.e_j0 * cos_x * cos_e


def _interbit(p, cos1, cos2):
    """Inductance-mediated sigma_x sigma_x coupling j12, in kelvin, from the
    cosines of both local fluxes: J12 = -pi^2 L E_J1 E_J2 sin^2(pi*phi_e) /
    phi_0^2 with E_Jk = 2 E_J0 cos(pi*phi_xk), negative for the default
    controls."""
    e_j0_joule = p.e_j0 * CONSTANTS.k_b
    try:
        prefactor = 4.0 * e_j0_joule**2 * math.pi**2 * p.l / CONSTANTS.phi_0**2
    except OverflowError:
        raise InvalidParameterError(f"j12 overflows: e_j0 = {p.e_j0:g} K is too large") from None
    s = _sin_pi(p.phi_e)
    return -prefactor * cos1 * cos2 * s * s / CONSTANTS.k_b


def _coefficients(p) -> tuple:
    """(eps1, eps2, ej1, ej2, j12) of controls p by every control map: floats
    for DeviceParams, arrays wherever a sweep chunk's controls are arrays."""
    eps1, eps2 = epsilon_from_voltage(p, 1), epsilon_from_voltage(p, 2)
    # Each flux's cosine is mapped once and shared by the maps that read it:
    # the fixed (float) fluxes together in one call, each swept array alone.
    fluxes = (p.phi_x1, p.phi_x2, p.phi_e)
    fixed = iter(_cos_pi(np.array([x for x in fluxes if not isinstance(x, np.ndarray)])).tolist())
    cos1, cos2, cos_e = (_cos_pi(x) if isinstance(x, np.ndarray) else next(fixed) for x in fluxes)
    return (eps1, eps2, _intrabit(p, cos1, cos_e), _intrabit(p, cos2, cos_e),
            _interbit(p, cos1, cos2))


def effective_params(p: DeviceParams) -> EffectiveParams:
    """Collect all control maps into the effective Hamiltonian coefficients."""
    return EffectiveParams(*map(float, _coefficients(p)))


def _row(eff: EffectiveParams) -> tuple:
    """``eff`` (or its fields, arrays over a sweep chunk) as a row of a
    coefficient table."""
    return eff.eps1, eff.eps2, eff.ej1, eff.ej2, eff.j12


def _raise_first(ok: np.ndarray, check) -> None:
    """``check(i)`` for the first point i not ``ok``: it builds that point's
    dataclasses, whose own checks fail on it and raise their error."""
    if not ok.all():
        check(int(ok.argmin()))


def _coefficient_table(fixed, changes: dict, temperatures: np.ndarray) -> tuple:
    """(coefficient table (N x 5), temperatures) of N points: ``fixed`` with
    ``changes`` (field -> N values) at an array of N ``temperatures``.

    Each point is checked as its ThermalSpec, parameter set and
    EffectiveParams would check it: temperature and changed fields first, for
    every point, then the control maps' overflow errors and the coefficients.
    An overflow is left to the checks, which reject it.
    """
    effective = isinstance(fixed, EffectiveParams)
    with np.errstate(over="ignore", invalid="ignore"):
        ok = np.isfinite(temperatures) & (temperatures >= 0.0)
        for values in changes.values():
            ok &= np.abs(values) <= MAX_ENERGY_K if effective else np.isfinite(values)
        _raise_first(ok, lambda i: (ThermalSpec(float(temperatures[i])),
                                    replace(fixed, **{k: float(v[i]) for k, v in changes.items()})))
        controls = SimpleNamespace(**{**vars(fixed), **changes})
        coefficients = _row(controls) if effective else _coefficients(controls)
    # Filled column by column: about 25 us a chunk less than np.stack of
    # np.broadcast_to views, which a search's many small stacks feel.
    table = np.empty((len(temperatures), len(coefficients)))
    for column, c in enumerate(coefficients):
        table[:, column] = c
    _raise_first((np.abs(table) <= MAX_ENERGY_K).all(1),
                 lambda i: EffectiveParams(*table[i].tolist()))
    return table, temperatures


# H[r, c] is entry _H_ENTRIES[r, c] of a row of _hamiltonians' entries: sz
# terms on the diagonal; sx(2), sx(1) and sx(1)sx(2) link states that differ
# in the second qubit, the first, and both.
_H_ENTRIES = np.array([[0, 5, 4, 6], [5, 1, 6, 4], [4, 6, 2, 5], [6, 4, 5, 3]])


def _hamiltonians(table) -> np.ndarray:
    """:func:`build_hamiltonian` for each row (eps1, eps2, ej1, ej2, j12) of a
    coefficient table (N x 5), as one N x 4 x 4 stack."""
    eps1, eps2, ej1, ej2, j12 = np.asarray(table, dtype=float).reshape(-1, 5).T
    entries = np.array([eps1 + eps2, eps1 - eps2, -eps1 + eps2, -eps1 - eps2, -ej1, -ej2, j12])
    return entries.T[:, _H_ENTRIES]


def build_hamiltonian(eff: EffectiveParams) -> np.ndarray:
    """Two-qubit Hamiltonian matrix in the |00>,|01>,|10>,|11> basis (kelvin),
    real symmetric."""
    return _hamiltonians([_row(eff)])[0]


def _boltzmann_weights(w: np.ndarray, temperatures: np.ndarray) -> tuple:
    """(unnormalized Boltzmann weights (N x n), which rows are at T = 0) of
    ascending energy levels w (N x n, or 1 x n for every row) at temperatures
    T (N x 1); the mask is None when no T is 0."""
    # Shift by the ground energy so the exponentials never overflow; near
    # T = 0 the gap over T may overflow to inf, whose weight is exactly 0.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        weights = np.exp(-(w - w[:, :1]) / temperatures)
    cold = temperatures[:, 0] == 0.0 if not temperatures.all() else None
    if cold is not None:
        # At T = 0, unit weight on the ground space: the levels within a cut
        # scaled by the Frobenius norm of H, sqrt(sum(w**2)).
        cut = w[:, :1] + GROUND_DEGENERACY_RTOL * np.sqrt(np.vecdot(w, w))[:, None]
        weights = np.where(cold[:, None], w <= cut, weights)
    return weights, cold


def _boltzmann_spectra(w: np.ndarray, temperatures: np.ndarray) -> tuple:
    """(spectra (N x n), weights, T = 0 mask) of the Gibbs states of levels w
    at temperatures T: each row of :func:`_boltzmann_weights` over its sum,
    checked as a density matrix's spectrum, which a spoiled weight is not."""
    weights, cold = _boltzmann_weights(w, temperatures)
    p = weights / weights.sum(1, keepdims=True)
    qmath._require_spectra(p)
    return p, weights, cold


def _gibbs_states(w: np.ndarray, v: np.ndarray, temperatures: np.ndarray) -> tuple:
    """(:func:`gibbs_state` for each of a stack of Hamiltonians, their
    spectra, v), from their eigenvalues w (N x n) and eigenvectors v, at
    temperatures T (N x 1); one Hamiltonian (w of 1 x n) serves every
    temperature.  A state's spectrum is that of :func:`_boltzmann_spectra`,
    in the order of w and v.  The state itself is divided by the weights'
    sum, or at T = 0 by the trace of its ground-space projector."""
    p, weights, cold = _boltzmann_spectra(w, temperatures)
    rho = (v * weights[:, None, :]) @ v.conj().swapaxes(1, 2)
    z = weights.sum(1)
    if cold is not None:
        z = np.where(cold, np.trace(rho, axis1=1, axis2=2).real, z)
    rho /= z[:, None, None]
    rho += rho.conj().swapaxes(1, 2)
    rho *= 0.5
    return rho, p, v


def gibbs_state(h, spec: ThermalSpec) -> np.ndarray:
    """Equilibrium state exp(-H/T)/Z; at T = 0 the ground-space projector.

    A degenerate ground space yields the uniform mixture over it, the
    T -> 0+ limit of the Gibbs state.  The state is complex, whatever the
    dtype of h.  Each entry of h must be finite and at most 4 * MAX_ENERGY_K
    in magnitude, so the Hamiltonian of every EffectiveParams is accepted;
    that is checked before any arithmetic on h.
    """
    h = np.asarray(h, dtype=complex)
    if not (np.abs(h) <= 4 * MAX_ENERGY_K).all():
        raise InvalidParameterError(
            f"hamiltonian entries must be finite with |entry| <= {4 * MAX_ENERGY_K:g} K")
    h = qmath.require_hermitian(h, "hamiltonian")
    if h.ndim != 2:
        raise DimensionError(f"hamiltonian must be 2x2 or 4x4, got shape {h.shape}")
    return _gibbs_states(*np.linalg.eigh(h[None]), np.array([[spec.temperature]]))[0][0]


# a = eps1 + eps2, eps1 - eps2 of the blocks on {|00>, |11>} and {|01>, |10>}.
_BLOCK_SIGNS = np.array([1.0, -1.0])
# Columns of the spectrum of levels -R, -r, r, R holding the weights q- of
# both blocks, then their q+: the block of larger r holds the outer levels.
_OUTER_FIRST, _OUTER_SECOND = np.array([0, 1, 3, 2]), np.array([1, 0, 2, 3])


def _x_stack(table, temperatures) -> tuple[np.ndarray, np.ndarray]:
    """(entries (N x 6: rho_11, rho_22, rho_33, rho_44, rho_14, rho_23),
    spectra) of the Gibbs states of rows of a checked coefficient table (an
    N x 5 array) with ej1 = ej2 = 0, each at its temperature (an array), in
    closed form: no eigh.

    H splits into the blocks a sz + j12 sx on {|00>, |11>}, a = eps1 + eps2,
    and on {|01>, |10>}, a = eps1 - eps2, with levels -r and r, r =
    hypot(a, j12).  The spectrum is :func:`_boltzmann_spectra` of the levels
    -R, -r, r, R in ascending order, so a block's lower and upper level take
    the weights q- and q+ of its place there.  The lower level's eigenvector
    puts u = (1 - |a|/r)/2 on the basis state of higher energy, taken as
    (j12/r)(j12/(r + |a|))/2, which cancels for neither sign of a; a block
    then holds q+ - u (q+ - q-) on that state, q- + u (q+ - q-) on the other,
    and (q+ - q-) j12/(2r) off the diagonal.
    """
    a, j = table[:, :1] + table[:, 1:2] * _BLOCK_SIGNS, table[:, 4:]
    r = np.hypot(a, j)
    levels = np.sort(r, 1)
    p = _boltzmann_spectra(np.concatenate([-levels[:, ::-1], levels], 1), temperatures[:, None])[0]
    q = np.where(r[:, :1] >= r[:, 1:], p[:, _OUTER_FIRST], p[:, _OUTER_SECOND])
    r = np.maximum(r, 5e-324)  # r = 0 where j12 = a = 0, and there q- = q+
    half = 0.5 * j / r
    d = q[:, 2:] - q[:, :2]
    ud = half * (j / (r + np.abs(a))) * d
    major, minor = q[:, :2] + ud, q[:, 2:] - ud
    up = a >= 0.0
    entries = [np.where(up, minor, major), np.where(up, major, minor)[:, ::-1], half * d + 0.0]
    return np.concatenate(entries, 1), p  # + 0.0: no -0.0 off the diagonal, whose phase is pi


def _x_rows(table: np.ndarray) -> np.ndarray:
    """Which rows of a coefficient table (N x 5) have ej1 = ej2 = 0 exactly:
    their Gibbs states are X states, taken by :func:`_x_stack`."""
    return (table[:, 2] == 0.0) & (table[:, 3] == 0.0)


def _thermal_rows(table, temperatures) -> tuple:
    """(X rows, their entries, the other rows' states, spectra, the other
    rows' eigenvectors) of the rows of a checked coefficient table (N x 5),
    each at its temperature, as :func:`correlations._measure` takes them:
    the X rows (:func:`_x_rows`) in closed form by :func:`_x_stack`, the
    others by one ``eigh`` as :func:`_gibbs_states` gives them.  The spectra
    (N x 4) are in row order; a row's values never depend on the others.

    The Hamiltonians are real symmetric by construction, so they are not
    checked for Hermiticity, and they are diagonalized in real arithmetic:
    the states and eigenvectors are real.
    """
    x, w = _x_rows(table), np.empty((len(table), 4))
    entries, states = np.empty((0, 6)), np.empty((0, 4, 4))
    if np.count_nonzero(x):
        entries, w[x] = _x_stack(table[x], temperatures[x])
    v = states
    if np.count_nonzero(~x):
        h = _hamiltonians(table[~x])
        states, w[~x], v = _gibbs_states(*np.linalg.eigh(h), temperatures[~x, None])
    return x, entries, states, w, v


def thermal_state(params, temperature: float) -> np.ndarray:
    """Thermal state for device or effective parameters at the given T (K):
    the real state a sweep row at those controls is measured on, routed by
    :func:`_thermal_rows` (an X row's state holds its six entries)."""
    temperatures = np.array([ThermalSpec(temperature).temperature])
    x, entries, states = _thermal_rows(*_coefficient_table(params, {}, temperatures))[:3]
    if not x[0]:
        return states[0]
    state = np.zeros(16)  # rho_11, ..., rho_44, rho_14 = rho_41 and rho_23 = rho_32
    state[[0, 5, 10, 15, 3, 12, 6, 9]] = entries[0, [0, 1, 2, 3, 4, 4, 5, 5]]
    return state.reshape(4, 4)

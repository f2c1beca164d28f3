"""Shared state constructors and brute-force oracles for the test suite."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from jcqsim import correlations, device, sweep
from jcqsim.device import (
    GROUND_DEGENERACY_RTOL,
    MAX_ENERGY_K,
    EffectiveParams,
    ThermalSpec,
    effective_params,
)
from jcqsim.errors import BracketError
from jcqsim.sweep import CONCURRENCE_FLOOR, RATIO_BAND, CriticalPoint


def bell_phi_plus() -> np.ndarray:
    """|Phi+><Phi+| = (|00> + |11>)(<00| + <11|)/2."""
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


def pure_state(psi) -> np.ndarray:
    psi = np.asarray(psi, dtype=complex)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_density_matrix(rng, dim: int = 4) -> np.ndarray:
    """Full-rank random state from a complex Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_x_state(rng) -> np.ndarray:
    """Random PSD X-shaped state with complex off-diagonal phases."""
    p = rng.dirichlet(np.ones(4))
    r14 = rng.uniform(0.0, np.sqrt(p[0] * p[3])) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    r23 = rng.uniform(0.0, np.sqrt(p[1] * p[2])) * np.exp(1j * rng.uniform(0, 2 * np.pi))
    rho = np.diag(p).astype(complex)
    rho[0, 3] = r14
    rho[3, 0] = r14.conjugate()
    rho[1, 2] = r23
    rho[2, 1] = r23.conjugate()
    return rho


def random_x_states(rng, count: int) -> np.ndarray:
    """A stack of ``count`` states drawn as :func:`random_x_state` draws one,
    each draw vectorised over the stack."""
    p = rng.dirichlet(np.ones(4), size=count)
    r14 = rng.uniform(0.0, np.sqrt(p[:, 0] * p[:, 3]))
    r14 = r14 * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    r23 = rng.uniform(0.0, np.sqrt(p[:, 1] * p[:, 2]))
    r23 = r23 * np.exp(1j * rng.uniform(0, 2 * np.pi, count))
    rho = np.zeros((count, 4, 4), dtype=complex)
    rho[:, range(4), range(4)] = p
    rho[:, 0, 3], rho[:, 3, 0] = r14, r14.conj()
    rho[:, 1, 2], rho[:, 2, 1] = r23, r23.conj()
    return rho


def random_unitary_2(rng) -> np.ndarray:
    """Haar-random single-qubit unitary."""
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    phases = np.diag(r)
    return q * (phases / np.abs(phases))


def random_hermitian(rng, dim: int = 4, scale: float = 2.0) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (a + a.conj().T)


def partial_trace_bruteforce(rho: np.ndarray, keep: str) -> np.ndarray:
    """Elementwise index-sum definition of the partial trace."""
    out = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                if keep == "first":
                    out[i, j] += rho[2 * i + k, 2 * j + k]
                else:
                    out[i, j] += rho[2 * k + i, 2 * k + j]
    return out


def entropy_bits(probabilities) -> float:
    """Shannon entropy of a probability vector, in bits."""
    p = np.asarray(probabilities, dtype=float)
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def plain_bisection(f, t_max: float, tol: float):
    """``sweep.esd_temperature``'s bisection, one scalar f(T) call per point,
    as the search ran before it measured in stacks."""
    if f(0.0) <= CONCURRENCE_FLOOR:
        raise BracketError("state is never entangled: concurrence is zero at T = 0")
    if f(t_max) > CONCURRENCE_FLOOR:
        raise BracketError(f"concurrence is still positive at t_max = {t_max}")
    lo, hi = 0.0, t_max
    iterations = 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if f(mid) > CONCURRENCE_FLOOR:
            lo = mid
        else:
            hi = mid
    location = 0.5 * (lo + hi)
    return CriticalPoint("esd_temperature", location, f(location), (lo, hi), iterations)


def breadth_first_bisection(f, t_max: float, tol: float):
    """``sweep._bisection`` as it was before it stacked a spine and followed
    an estimate of the crossing: T = 0 and t_max as the first stack, then
    ``sweep._search``'s breadth-first stacks alone."""
    values = dict(zip((0.0, t_max), f([0.0, t_max])))
    sweep._require_esd_bracket(values[0.0], values[t_max], t_max)

    def children(lo, hi, mid):
        return (mid, hi, 0.5 * (mid + hi)), (lo, mid, 0.5 * (lo + mid))

    bracket, location, value_at, iterations = sweep._search(
        f, (0.0, t_max, 0.5 * t_max), values, children,
        lambda c: c > CONCURRENCE_FLOOR, tol)
    return CriticalPoint("esd_temperature", location, value_at, bracket, iterations)


def plain_golden_section(f, a0: float, b0: float, tol: float):
    """``sweep.optimal_ratio``'s golden-section search, one scalar f(x) call
    per point, as the search ran before it measured in stacks."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = a0, b0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    iterations = 0
    while b - a > tol:
        iterations += 1
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    location = 0.5 * (a + b)
    boundary = location <= a0 + 10.0 * tol or location >= b0 - 10.0 * tol
    return CriticalPoint("optimal_ratio", location, f(location), (a, b), iterations, boundary)


def apply_axes(fixed, thermal: ThermalSpec, *settings):
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
        else:  # phi_x1 or phi_x2
            changes[variable] = value
    return (replace(fixed, **changes) if changes else fixed), thermal


def plain_controls(fixed, thermal: ThermalSpec, points):
    """(Hamiltonians, temperatures) of a sweep chunk's points, one point at a
    time, as sweeps mapped their controls before a chunk's were arrays: each
    point's (variable, value) settings applied by :func:`apply_axes` (every
    point checked), then each point's ``effective_params`` and
    ``device._hamiltonians``."""
    params, specs = zip(*(apply_axes(fixed, thermal, *settings) for settings in points))
    effs = [p if isinstance(p, EffectiveParams) else effective_params(p) for p in params]
    h = device._hamiltonians([device._row(e) for e in effs])
    return h, np.array([s.temperature for s in specs])


def built_measures(fixed, thermal: ThermalSpec, settings, measures) -> dict:
    """The measure columns (and the discord search's theta, phi and
    evaluations) of the points ``settings``, (variable, values) pairs, as a
    sweep chunk or a search stack measures them: routed by
    ``device._thermal_rows``, the X rows in closed form and the others built
    by ``eigh``, and measured on their checked Boltzmann spectra."""
    rows = device._thermal_rows(*sweep._chunk_controls(fixed, thermal, settings))
    return correlations._measure(*rows, measures)


def plain_x_discord(ratio: float, t: float):
    """``sweep._x_discord`` as it was written with per-call closures and
    ``sum`` generators: the reference its module-level terms must match bit
    for bit, None included."""
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

    def entropy(q):
        return max(0.0, -sum(x * math.log2(x) for x in q if x > 0.0))

    def binary(u):  # correlations._binary_entropies
        return 0.0 if u <= 0.0 else -(u * math.log(u) + (1.0 - u) * math.log1p(-u)) / math.log(2.0)

    if (p1 - p2) * (p4 - p2) >= c * c:  # correlations._x_pole_entropy
        best = sum(m * binary(min(q) / m) for m, q in ((m0, (p1, p2)), (m1, (p2, p4))) if m > 0.0)
    elif abs(math.sqrt(p1 * p4) - p2) <= c:  # correlations._x_equator_entropy
        best = binary(2.0 * (m0 * m1 - c * c) / (1.0 + math.hypot(2.0 * c, m0 - m1)))
    else:
        return None
    marginal = entropy((m0, m1))
    mi = max(0.0, 2.0 * marginal - entropy((1.0 / z, lower / z, upper / z, top / z)))
    return mi - min(max(0.0, marginal - best), mi), band  # correlations._clamp_classical

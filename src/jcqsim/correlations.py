"""Entropic correlation measures for two-qubit states.

Every measure works on a stack (N, 4, 4) of states, validated once; a public
measure of one state passes a stack of one.  Quantum discord is the mutual
information minus the classical correlation, which maximizes
S(rho_b) - S(rho | {Pi_k}) over rank-1 projective measurements on one qubit;
one kernel gives the measured conditional entropy for many directions and
states at once.  X states (nonzero only on the diagonal and anti-diagonal, as
is every Gibbs state at phi_e = 1/2) reduce exactly to one angle theta in
[0, pi/2]; the optimum can lie inside it (Lu et al., PRA 83, 012327, 2011),
so theta in {0, pi/2} alone (Ali, Rau and Alber, PRA 81, 042105, 2010) is not
exact.  A 33-point theta seed and six shrinking 17-point stencils (135
evaluations, 7 kernel calls, a last cell below 2e-7 rad) serve every X state
of a stack at once.  The other states of a stack are searched together too,
in blocks that bound each kernel call's memory: a seed of the 993 directions
of a 33x64 Bloch-angle grid that differ by more than a sign, then ten
shrinking 9x9 stencils in the plane tangent to each state's best direction so
far, re-centred instead of shrunk where the best point lies on a stencil's
edge (1,803 evaluations, 81 more for each re-centring, a last cell of about
1e-7 rad).  An exhaustive grid oracle over the same kernel is provided
separately for verification and is never the production path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmath
from .errors import (
    DimensionError,
    DomainError,
    InvalidParameterError,
    NotAStateError,
    UnsupportedRegimeError,
)

SIDES = ("first", "second")
# The qubit that measuring ``side`` leaves unmeasured, and its SIDES index.
_OTHER = {"first": "second", "second": "first"}
_KEPT = {"first": 1, "second": 0}

_LN2 = math.log(2.0)
_TWO_PI = 2.0 * math.pi

# Measurement outcomes rarer than this contribute nothing to the
# conditional entropy.
PROBABILITY_FLOOR = 1e-14
# Classical correlation may exceed mutual information by at most this much
# before it stops being round-off and becomes a bug.
DISCORD_NEGATIVE_TOL = 1e-9

# Optimizer tuning: a coarse seed grid over the Bloch sphere, then
# POLISH_STEPS stencils of POLISH_POINTS x POLISH_POINTS directions around
# the best direction so far.  The first reaches one seed-grid cell either
# way and each next one reaches one cell of the last, so the last cell is
# about 1e-7 rad wide.  A stencil whose best point lies on its edge and
# gains more than RECENTRE_GAIN is re-centred there at the same width, at
# most POLISH_RECENTRES times a state: a curved valley can lead further than
# one cell.  Smaller gains are round-off (the values of a stencil on a flat
# optimum spread by a few 1e-15).
SEED_THETA_POINTS = 33
SEED_PHI_POINTS = 64
POLISH_POINTS = 9
POLISH_STEPS = 10
POLISH_RECENTRES = 4
RECENTRE_GAIN = 1e-13
# General states per kernel call: a seed call then holds 2 * 2 * 993 = 3,972
# columns and a polish call 2 * 26 * 81 = 4,212, within the 4,224 of one
# state on the full 33 x 64 grid.
SEED_BLOCK = 2
POLISH_BLOCK = 26
# X states: theta alone, a seed cell of pi/64 shrunk 8**6-fold to 1.9e-7 rad.
X_SEED_POINTS = 33
X_POLISH_POINTS = 17
X_POLISH_STEPS = 6

# Row-major flat indices of the entries off the diagonal and anti-diagonal,
# then of rho_14, rho_23, rho_22, rho_11, rho_33 and rho_44.
_X_ENTRIES = np.array([1, 2, 4, 7, 8, 11, 13, 14, 3, 6, 5, 0, 10, 15])


@dataclass(frozen=True)
class Measurement:
    """Rank-1 projective measurement on one qubit, in Bloch angles.

    The measured direction is |m> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>.
    """

    theta: float
    phi: float
    side: str = "first"

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise InvalidParameterError(f"theta must be in [0, pi], got {self.theta}")
        if not 0.0 <= self.phi < _TWO_PI:
            raise InvalidParameterError(f"phi must be in [0, 2*pi), got {self.phi}")
        if self.side not in SIDES:
            raise InvalidParameterError(f"side must be one of {SIDES}, got {self.side!r}")


@dataclass(frozen=True)
class CorrelationReport:
    """Bundle of correlation measures for one state (entropies in bits)."""

    mutual_information: float
    classical_correlation: float
    discord: float
    concurrence: float
    eof: float
    optimal_measurement: Measurement
    optimizer_evaluations: int


def _require_state(states, dim: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The one validation boundary: each public measure checks its input here
    once, as a stack (N x d x d; one state is a stack of one), and hands it,
    with each state's spectrum (N x d), to unchecked private kernels."""
    states = np.asarray(states, dtype=complex)
    sizes = (2, 4) if dim is None else (dim,)
    if states.ndim != 3 or states.shape[1] != states.shape[2] or states.shape[1] not in sizes:
        expected = " or ".join(f"{n}x{n}" for n in sizes)
        raise DimensionError(f"state must be {expected}, got shape {states.shape[1:]}")
    if np.count_nonzero(np.isfinite(states)) < states.size:
        raise NotAStateError("state has a non-finite entry")
    # A state's Frobenius norm is at most 1, so Hermiticity is judged to an
    # absolute tolerance.
    skew = (states - states.conj().swapaxes(1, 2)).reshape(len(states), states.shape[1] ** 2)
    if np.count_nonzero(np.vecdot(skew, skew).real > qmath.HERMITICITY_RTOL**2):
        raise NotAStateError("state is not Hermitian")
    w = np.linalg.eigvalsh(states)
    if np.count_nonzero(w[:, 0] < qmath.EIGENVALUE_CLAMP):
        raise NotAStateError(f"state has negative eigenvalue {w[:, 0].min():.3e}")
    if np.count_nonzero(np.abs(w.sum(1) - 1.0) > 1e-9):
        raise NotAStateError("state trace is not 1")
    return states, w


def _require_side(side: str) -> None:
    if side not in SIDES:
        raise InvalidParameterError(f"side must be one of {SIDES}, got {side!r}")


def binary_entropy(tau: float) -> float:
    """Shannon entropy of a coin with bias tau, in bits; H(0) = H(1) = 0."""
    if tau <= 0.0 or tau >= 1.0:
        return 0.0
    return -(tau * math.log(tau) + (1.0 - tau) * math.log(1.0 - tau)) / _LN2


def _spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """Entropy of density matrices from their eigenvalues (last axis of w);
    eigenvalues at or below zero contribute nothing."""
    terms = w * np.log2(np.where(w > 0.0, w, 1.0))
    return np.maximum(0.0, -terms.sum(-1))


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(lam * log2 lam) of a density matrix, in bits."""
    return float(_spectrum_entropy(_require_state([rho])[1])[0])


def _mutual_information(states: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked kernel of :func:`mutual_information` for a stack with
    spectra w; also returns the entropy of each qubit's reduced state (N x 2,
    in SIDES order), from one eigvalsh call over all of them."""
    marginals = _spectrum_entropy(np.linalg.eigvalsh(qmath.reduced_states(states)))
    mi = marginals[:, 0] + marginals[:, 1] - _spectrum_entropy(w)
    if np.count_nonzero(mi < -1e-10):
        raise DomainError(f"mutual information came out negative: {mi.min()}")
    return np.maximum(mi, 0.0), marginals


def mutual_information(rho) -> float:
    """I(rho) = S(rho_a) + S(rho_b) - S(rho), in bits."""
    return float(_mutual_information(*_require_state([rho], 4))[0][0])


def measurement_projector(theta: float, phi: float) -> np.ndarray:
    """2x2 projector onto cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>."""
    m = np.array(
        [math.cos(0.5 * theta), math.sin(0.5 * theta) * np.exp(1j * phi)],
        dtype=complex,
    )
    return np.outer(m, m.conj())


def conditional_entropy(rho, m: Measurement) -> float:
    """Measured conditional entropy sum_k p_k S(rho_unmeasured|k), in bits.

    Definitional path: each outcome is the explicit projector sandwich
    (Pi_k x I) rho (Pi_k x I) followed by a partial trace.
    """
    rho = _require_state([rho], 4)[0][0]
    proj = measurement_projector(m.theta, m.phi)
    keep = _OTHER[m.side]
    total = 0.0
    for p_k in (proj, qmath.IDENTITY_2 - proj):
        k = qmath.kron(p_k, qmath.IDENTITY_2) if m.side == "first" else qmath.kron(
            qmath.IDENTITY_2, p_k
        )
        post = k @ rho @ k
        prob = float(np.trace(post).real)
        if prob <= PROBABILITY_FLOOR:
            continue
        reduced = qmath.partial_trace(post, keep) / prob
        total += prob * float(_spectrum_entropy(np.linalg.eigvalsh(reduced)))
    return total


# ---------------------------------------------------------------------------
# Batched conditional-entropy kernel.
#
# In Fano form rho = (1/4) sum_ij R[i, j] s_i x s_j with s = (I, sx, sy, sz),
# R = [[1, b], [a, T]] when the rows index the measured qubit.  Measuring
# that qubit along the unit vector n leaves the other qubit in the
# unnormalized state (1/4) [(1 +- n.a) I + (b +- T^T n).s], so outcome k has
# weight p = (1 +- n.a)/2 and eigenvalues lam = (1 +- n.a +- |b +- T^T n|)/4,
# and sum_k p_k S(rho|k) = sum p log2 p - sum lam log2 lam.  Unit tests pin
# this against the definitional projector sandwich above.
# ---------------------------------------------------------------------------

_PAULIS = (qmath.IDENTITY_2, qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z)
# Row (i, j) maps rho.ravel() to Tr(rho s_i x s_j).
_FANO = np.array([np.kron(s, t).T.ravel() for s in _PAULIS for t in _PAULIS])
_YY = qmath.kron(qmath.SIGMA_Y, qmath.SIGMA_Y)


def _bloch(rho: np.ndarray, side: str) -> np.ndarray:
    """Fano matrix [[1, b], [a, T]] of a state or of each state of a stack,
    rows on the measured qubit ``side``."""
    lead = rho.shape[:-2]
    r = (_FANO @ rho.reshape(*lead, 16, 1)).real.reshape(*lead, 4, 4)
    return r if side == "first" else np.swapaxes(r, -1, -2)


def _cond_entropy(bloch: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Conditional entropy for each measured unit vector (columns of 3xK n);
    N x 4 x 4 Fano matrices with N x 3 x K (or shared) directions give N x K."""
    count = n.shape[-1]
    m = np.ones(n.shape[:-2] + (4, 2 * count))
    m[..., 1:, :count] = n
    np.negative(n, out=m[..., 1:, count:])
    # Spent temporaries are freed at once and x holds (p, lam+, lam-) in one
    # array: that bounds the memory of a call.
    # Columns of y: (1 +- n.a, b +- T^T n) for the outcomes +n, then -n.
    y = np.swapaxes(bloch, -1, -2) @ m
    del m
    r = np.einsum("...ij,...ij->...j", y[..., 1:, :], y[..., 1:, :])
    np.sqrt(r, out=r)
    y0 = y[..., 0, :]
    x = np.empty((3,) + r.shape)
    np.multiply(y0, 0.5, out=x[0])
    np.add(y0, r, out=x[1])
    np.subtract(y0, r, out=x[2])
    x[1:] *= 0.25
    np.maximum(x, 1e-300, out=x)  # round-off can push lam a hair below 0
    del y, r
    t = np.log2(x)
    t *= x
    terms = t[0] - (t[1] + t[2])
    return terms[..., :count] + terms[..., count:]


def _grid_directions(thetas, phis) -> np.ndarray:
    """Unit vectors (3xN) on the theta x phi product grid, theta-major."""
    t, p = (g.ravel() for g in np.meshgrid(thetas, phis, indexing="ij"))
    s = np.sin(t)
    return np.array([s * np.cos(p), s * np.sin(p), np.cos(t)])


def _angles(n) -> tuple[float, float]:
    """Bloch angles of a unit vector, theta in [0, pi] and phi in [0, 2*pi)."""
    theta = math.atan2(math.hypot(n[0], n[1]), n[2])
    phi = math.atan2(n[1], n[0]) % _TWO_PI
    # A tiny negative atan2 rounds up to exactly 2*pi.
    return theta, (phi if phi < _TWO_PI else 0.0)


# n and -n give one value (each kernel column sums both outcomes), so the seed
# keeps one direction of each antipodal pair of the 33 x 64 Bloch-angle grid,
# the one of lower theta-major index: the pole, theta rows 1-15 and the first
# half of the equator, 993 directions.  (Theta row i pairs with row 32 - i,
# phi index k with k + 32, and each pole row is one direction.)
_SEED_THETAS = np.linspace(0.0, math.pi, SEED_THETA_POINTS)
_SEED_PHIS = _TWO_PI * np.arange(SEED_PHI_POINTS) / SEED_PHI_POINTS
_EQUATOR = SEED_THETA_POINTS // 2
_SEED = np.hstack([
    _grid_directions(_SEED_THETAS[:1], _SEED_PHIS[:1]),
    _grid_directions(_SEED_THETAS[1:_EQUATOR], _SEED_PHIS),
    _grid_directions(_SEED_THETAS[_EQUATOR : _EQUATOR + 1], _SEED_PHIS[: SEED_PHI_POINTS // 2]),
])
# Offsets (u, v) of the polish stencil, in units of its half-width, and which
# of them lie on its edge.
_STENCIL_AXIS = np.linspace(-1.0, 1.0, POLISH_POINTS)
_STENCIL = np.array(np.meshgrid(_STENCIL_AXIS, _STENCIL_AXIS, indexing="ij")).reshape(2, -1)
_STENCIL_EDGE = (np.abs(_STENCIL) == 1.0).any(0)
# Offsets of the X-state stencils in units of their half-width; the first,
# the seed, spans [0, pi/2].
_X_STENCILS = [np.linspace(-1.0, 1.0, X_SEED_POINTS)]
_X_STENCILS += [np.linspace(-1.0, 1.0, X_POLISH_POINTS)] * X_POLISH_STEPS
_X_EVALUATIONS = sum(map(len, _X_STENCILS))


def _maximize_general(states: np.ndarray, side: str, kept: np.ndarray) -> list:
    """(classical correlation, argmax Measurement, evaluations) for each of a
    stack of states (N x 4 x 4), given S of each unmeasured qubit ``kept``.

    Seed on :data:`_SEED` in blocks of SEED_BLOCK states, keeping each state's
    first minimum, then polish in lockstep blocks of POLISH_BLOCK states.
    """
    bloch = _bloch(states, side)
    count = len(states)
    seed, best = np.empty(count, dtype=int), np.empty(count)
    for start in range(0, count, SEED_BLOCK):
        block = slice(start, start + SEED_BLOCK)
        values = _cond_entropy(bloch[block], _SEED)
        seed[block] = i = values.argmin(1)
        best[block] = values[np.arange(len(i)), i]
    n = _SEED[:, seed].T.copy()
    stencils = np.empty(count, dtype=int)
    for start in range(0, count, POLISH_BLOCK):
        block = slice(start, start + POLISH_BLOCK)
        stencils[block] = _polish(bloch[block], n[block], best[block])
    return [
        (max(0.0, s - b), Measurement(*_angles(v), side), _SEED.shape[1] + POLISH_POINTS**2 * k)
        for s, b, v, k in zip(kept.tolist(), best.tolist(), n, stencils.tolist())
    ]


def _polish(bloch: np.ndarray, n: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Tangent-plane stencils around each state's best direction so far (rows
    of n, N x 3, value ``best``), run in lockstep; n and best are updated in
    place.  Returns the number of stencils each state ran."""
    half_width = np.full(len(n), math.pi / (SEED_THETA_POINTS - 1))
    shrunk = np.zeros(len(n), dtype=int)
    recentred = np.zeros(len(n), dtype=int)
    while len(a := np.flatnonzero(shrunk < POLISH_STEPS)):
        # Stencil in the plane tangent at n (basis e_theta, e_phi), put back on
        # the sphere; unlike a box in (theta, phi) it does not pinch at the poles.
        x, y, z = n[a].T
        theta, phi = np.arctan2(np.hypot(x, y), z), np.arctan2(y, x) % _TWO_PI
        ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
        tangent = np.zeros((len(a), 3, 2))
        tangent[:, 0, 0], tangent[:, 1, 0], tangent[:, 2, 0] = ct * cp, ct * sp, -st
        tangent[:, 0, 1], tangent[:, 1, 1] = -sp, cp
        candidates = n[a, :, None] + half_width[a, None, None] * (tangent @ _STENCIL)
        candidates /= np.sqrt(np.einsum("aij,aij->aj", candidates, candidates))[:, None]
        values = _cond_entropy(bloch[a], candidates)
        rows, i = np.arange(len(a)), values.argmin(1)
        lowest = values[rows, i]
        gain = best[a] - lowest
        better = gain > 0.0
        best[a] = np.where(better, lowest, best[a])
        n[a] = np.where(better[:, None], candidates[rows, :, i], n[a])
        recentre = (gain > RECENTRE_GAIN) & _STENCIL_EDGE[i] & (recentred[a] < POLISH_RECENTRES)
        recentred[a] += recentre
        shrunk[a] += ~recentre
        # Otherwise the next stencil reaches one cell of this one.
        half_width[a] *= np.where(recentre, 1.0, 2.0 / (POLISH_POINTS - 1))
    return shrunk + recentred


def _maximize_x(states: np.ndarray, side: str, kept: np.ndarray) -> list:
    """(classical correlation, argmax Measurement, evaluations) for each of a
    stack of X states (N x 4 x 4), given S of each unmeasured qubit ``kept``.

    The measured qubit's x axis is put along the top singular vector of T_xy,
    which maximizes |b +- T^T n| at any theta: the Fano matrix becomes
    diag(1, s, 0, T33), s = 2(|rho_14| + |rho_23|), with a3 and b3 at [3, 0], [0, 3].
    """
    p1, p2, p3, p4 = states[:, range(4), range(4)].real.T
    r14, r23 = states[:, 0, 3], states[:, 1, 2]
    bloch = np.zeros((len(states), 4, 4))
    bloch[:, 0, 0] = 1.0
    bloch[:, 1, 1] = 2.0 * (np.abs(r14) + np.abs(r23))
    bloch[:, 3, 0], bloch[:, 0, 3] = p1 + p2 - p3 - p4, p1 - p2 + p3 - p4
    bloch[:, 3, 3] = p1 - p2 - p3 + p4
    if side == "second":
        bloch = np.swapaxes(bloch, 1, 2)
    # The singular vector's azimuth lines up the phases of rho_14 and rho_23
    # (rho_32 if the second qubit is measured), mod pi: +-n is one measurement.
    phis = -0.5 * (np.angle(r14) + (1.0 if side == "first" else -1.0) * np.angle(r23)) % math.pi

    rows = np.arange(len(states))
    best, theta = np.full(len(states), np.inf), np.full(len(states), 0.25 * math.pi)
    half_width = 0.25 * math.pi
    for offsets in _X_STENCILS:
        # np.clip to [0, pi/2], as two cheaper ufuncs with the same result.
        candidates = theta[:, None] + half_width * offsets
        candidates = np.minimum(0.5 * math.pi, np.maximum(0.0, candidates))
        n = np.zeros((len(states), 3, len(offsets)))
        np.sin(candidates, out=n[:, 0])
        np.cos(candidates, out=n[:, 2])
        values = _cond_entropy(bloch, n)
        i = values.argmin(1)
        lowest = values[rows, i]
        better = lowest < best
        best = np.where(better, lowest, best)
        theta = np.where(better, candidates[rows, i], theta)
        half_width *= 2.0 / (len(offsets) - 1)  # one cell of this stencil
    return [
        (max(0.0, s - b), Measurement(t, f, side), _X_EVALUATIONS)
        for s, b, t, f in zip(kept.tolist(), best.tolist(), theta.tolist(), phis.tolist())
    ]


def _classical(states: np.ndarray, side: str, kept: np.ndarray, is_x: np.ndarray):
    """Classical correlations, argmax Measurements and evaluations of a stack:
    X states (``is_x``) in one :func:`_maximize_x` call, the others in one
    :func:`_maximize_general` call.  ``kept`` holds S of each state's
    unmeasured qubit (S(rho_b), from its spectrum: 1 - |b| would keep too few
    digits when rho_b is near pure)."""
    found = [None] * len(states)
    for chosen, maximize in ((is_x, _maximize_x), (~is_x, _maximize_general)):
        picked = np.flatnonzero(chosen)
        if len(picked):
            for i, result in zip(picked, maximize(states[picked], side, kept[picked])):
                found[i] = result
    return [list(column) for column in zip(*found)] or [[], [], []]


def classical_correlation(rho, side: str = "first") -> tuple[float, Measurement]:
    """Maximal classical correlation extractable by measuring one qubit.

    Returns the maximum of S(rho_unmeasured) minus the measured conditional
    entropy over all rank-1 projective measurements on ``side``, together
    with the maximizing measurement.
    """
    states, w = _require_state([rho], 4)
    _require_side(side)
    kept = _mutual_information(states, w)[1][:, _KEPT[side]]
    cc, found, _ = _classical(states, side, kept, _x_entries(states)[0])
    return cc[0], found[0]


def _clamp_classical(mi, cc):
    """(discord, classical correlation), the latter clamped to mi within round-off."""
    if np.count_nonzero(cc - mi > DISCORD_NEGATIVE_TOL):
        raise DomainError(f"classical correlation {cc} exceeds mutual information {mi}")
    cc = np.minimum(cc, mi)
    return mi - cc, cc


def quantum_discord(rho, side: str = "first") -> CorrelationReport:
    """Full correlation report: discord, classical correlation, concurrence, EoF.

    Discord is I(rho) minus the maximal classical correlation; values within
    round-off below zero are clamped to zero.
    """
    return correlation_reports([rho], side)[0]


def correlation_reports(states, side: str = "first") -> list[CorrelationReport]:
    """:func:`quantum_discord` for each state of a stack (N x 4 x 4), measured at
    once; each report is the one its state gets alone."""
    _require_side(side)
    states, w = _require_state(states, 4)
    mi, marginals = _mutual_information(states, w)
    is_x, c = _x_entries(states)
    cc, found, evaluations = _classical(states, side, marginals[:, _KEPT[side]], is_x)
    discord, cc = _clamp_classical(mi, np.array(cc))
    c = _concurrence(states, is_x, c).tolist()
    rows = zip(mi.tolist(), cc.tolist(), discord.tolist(), c, found, evaluations)
    return [CorrelationReport(mi, cc, d, c, eof_from_concurrence(c), m, e)
            for mi, cc, d, c, m, e in rows]


def measure_states(states, measures) -> list[dict[str, float]]:
    """The named :class:`CorrelationReport` measures of each state of a stack,
    checked once; the discord search runs only for discord or classical
    correlation, as :func:`correlation_reports` (first qubit measured)."""
    if "discord" in measures or "classical_correlation" in measures:
        return [{m: getattr(r, m) for m in measures} for r in correlation_reports(states)]
    states, w = _require_state(states, 4)
    columns = {}
    if "mutual_information" in measures:
        columns["mutual_information"] = _mutual_information(states, w)[0].tolist()
    if "concurrence" in measures or "eof" in measures:
        columns["concurrence"] = _concurrence(states, *_x_entries(states)).tolist()
        columns["eof"] = [eof_from_concurrence(c) for c in columns["concurrence"]]
    return [dict(zip(measures, values)) for values in zip(*(columns[m] for m in measures))]


def discord_grid_oracle(
    rho, side: str = "first", n_theta: int = 721, n_phi: int = 1441
) -> float:
    """Discord with the maximization replaced by exhaustive grid search.

    Searches theta over n_theta points on [0, pi] inclusive and phi over
    n_phi points on [0, 2*pi); upper-bounds the true discord.  Verification
    oracle only, never the production path.
    """
    states, w = _require_state([rho], 4)
    _require_side(side)
    if n_theta < 2 or n_phi < 2:
        raise InvalidParameterError("grid needs at least 2 points per angle")
    mi, marginals = _mutual_information(states, w)
    bloch = _bloch(states[0], side)

    thetas = np.linspace(0.0, math.pi, n_theta)
    phis = _TWO_PI * np.arange(n_phi) / n_phi
    best = math.inf
    rows_per_chunk = max(1, 16384 // n_phi)
    for start in range(0, n_theta, rows_per_chunk):
        n = _grid_directions(thetas[start : start + rows_per_chunk], phis)
        best = min(best, float(_cond_entropy(bloch, n).min()))

    cc = max(0.0, float(marginals[0, _KEPT[side]]) - best)
    discord, _ = _clamp_classical(float(mi[0]), cc)
    return float(discord)


def _x_entries(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each state of a stack is X-shaped (every entry off the diagonal
    and anti-diagonal at most 1e-12 in modulus), and its X concurrence
    2 * max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44))."""
    e = states.reshape(len(states), 16).take(_X_ENTRIES, 1)
    moduli = np.hypot(e[:, :10].real, e[:, :10].imag)
    p = e[:, 10:].real
    c12 = moduli[:, 8:] - np.sqrt(np.maximum(p[:, :2] * p[:, 2:], 0.0))
    c = np.minimum(1.0, 2.0 * np.maximum(0.0, np.maximum(c12[:, 0], c12[:, 1])))
    return moduli[:, :8].max(1) <= 1e-12, c


def concurrence(rho, method: str = "auto") -> float:
    """Two-qubit concurrence via the spin-flipped state.

    ``method`` is "auto" (closed form for X-shaped states, spectral
    otherwise), "xstate" or "general".  The X closed form is
    2 * max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44));
    the general path takes the descending square-rooted spectrum of the
    Hermitian matrix sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho).
    """
    states = _require_state([rho], 4)[0]
    if method not in ("auto", "xstate", "general"):
        raise InvalidParameterError(f"unknown concurrence method {method!r}")
    is_x, c = _x_entries(states)
    if method == "xstate" and not is_x[0]:
        raise UnsupportedRegimeError("state is not X-shaped")
    if method == "general":
        is_x[0] = False
    return float(_concurrence(states, is_x, c)[0])


def _concurrence(states: np.ndarray, is_x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Unchecked kernel of :func:`concurrence` for a stack: keeps the X closed
    form ``c`` where ``is_x`` holds, the spectral path elsewhere."""
    if np.count_nonzero(is_x) < len(states):
        general = ~is_x
        g = states[general]
        w, v = np.linalg.eigh(g)
        sqrt_rho = (v * np.sqrt(np.maximum(0.0, w))[:, None, :]) @ v.conj().swapaxes(1, 2)
        m = sqrt_rho @ _YY @ g.conj() @ _YY @ sqrt_rho
        m = 0.5 * (m + m.conj().swapaxes(1, 2))
        lam = np.sqrt(np.maximum(0.0, np.linalg.eigvalsh(m)))
        c[general] = np.minimum(1.0, np.maximum(0.0, lam[:, 3] - lam[:, 2] - lam[:, 1] - lam[:, 0]))
    return c


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation H((1 + sqrt(1 - C^2))/2) for concurrence C."""
    if not 0.0 <= c <= 1.0:
        raise InvalidParameterError(f"concurrence must be in [0, 1], got {c}")
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def eof(rho) -> float:
    """Entanglement of formation of a two-qubit state, in bits."""
    return eof_from_concurrence(concurrence(rho))


def ground_state_discord_analytic(eps: float, j: float) -> float:
    """Closed-form ground-state discord of the symmetric zero-intrabit model.

    For H = eps (sz x I + I x sz) + j (sx x sx) with a nondegenerate ground
    state (eps != 0) the discord equals -u log2 u - v log2 v with
    u = (2 eps + lam)^2 / zeta, v = j^2 / zeta, zeta = j^2 + (2 eps + lam)^2
    and lam = sqrt(4 eps^2 + j^2).

    Ratio convention: this package parametrizes the coupling strength as
    j/eps for the Hamiltonian exactly as written above.  If the same model
    is written with per-qubit splitting eps/2, quoted ratios double; e.g.
    this function gives ~0.9955 at j = 25 eps and ~0.9988 at j = 50 eps.
    """
    if eps == 0.0 and j == 0.0:
        raise InvalidParameterError("eps and j cannot both be zero")
    if j == 0.0:
        return 0.0
    lam = math.hypot(2.0 * eps, j)
    a = (2.0 * eps + lam) ** 2
    zeta = j * j + a
    u = a / zeta
    v = j * j / zeta
    out = 0.0
    for x in (u, v):
        if x > 0.0:
            out -= x * math.log(x) / _LN2
    return out

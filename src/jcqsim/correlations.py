"""Entropic correlation measures for two-qubit states.

Every measure works on a stack (N, 4, 4) of states with their spectra.  A
public measure validates its stack once (:func:`_require_state`), and a
public measure of one state passes a stack of one; the rows the package
builds (a sweep chunk, a j/eps search's stack) come real, with their
Boltzmann weights as spectra, checked where they are built
(:func:`device._boltzmann_spectra`) in place of that validation: a row with
ej1 = ej2 = 0 as the six entries of its X state, with no 4x4 state, and the
others as states with the eigenvectors they are built from.  An X-shaped
state from outside reaches the same X measures through its entries
(:func:`_x_entries`).  The kernels take real or complex stacks as they
are.  Quantum discord is the mutual
information minus the classical correlation, which maximizes
S(rho_b) - S(rho | {Pi_k}) over rank-1 projective measurements on one qubit;
one kernel gives the measured conditional entropy for many directions and
states at once.  Measuring the second qubit of rho is measuring the first
qubit of SWAP rho SWAP at the same angles, so :func:`_measure` hands the
searches the qubit-swapped stack for it, and every function below it
measures the first qubit.  X states (nonzero only on the diagonal and
anti-diagonal, as is every Gibbs state at phi_e = 1/2) reduce exactly to one
angle theta in [0, pi/2], and each one's populations, rho_14 and rho_23 are
read once.  Where the sufficient conditions of Chen, Zhang, Yu, Yi and Oh
(PRA 84, 042313, 2011) hold, theta = 0 or theta = pi/2 is optimal, and a
state takes that end at 1 evaluation (theta = 0 if both hold), its value in
closed form at either end.  That is 26,376 of the 26,414 Gibbs states of the
published figures.  Elsewhere the optimum can lie inside the interval
(Lu et al., PRA 83, 012327, 2011), so theta in {0, pi/2} alone (Ali, Rau
and Alber, PRA 81, 042105, 2010) is not exact.
Each search seeds on a grid and ends in one trust-region Newton polish
(:func:`_polish`) on 3x3 stencils in the plane tangent at its best
direction so far, until a stencil's values agree to round-off; it measures
at most 30 stencils of 9 evaluations.  The uncertified X states of a stack
are searched 64 at a time: a 33-point theta seed, then a 17-point stencil a
seed cell either way of the best seed (2 kernel calls, 50 evaluations).  A
state whose best seed is an end of the interval, with the stencil's values
rising away from it, stops there, and so does one whose best stencil value
and its two neighbours agree to round-off: the 38 uncertified Gibbs states
of the published figures stop after these 2 calls.  The others polish from
their best angle in their own X frame, one kernel call a stencil and 50 + 9k
evaluations in all.  The other states of a stack are searched together, in
blocks that bound each kernel call's memory.  Each state seeds on the 993
directions of a 33x64 Bloch-angle grid that differ by more than a sign, or,
if its density matrix is exactly real (as is every Gibbs state built here),
on the 528 of them with n_y >= 0: its conditional entropy is then even in
n_y.  Then it polishes from its best seed direction, after 5 to 7 stencils
on most states (1,038 to 1,056 evaluations in all, or 573 to 591 from the
halved seed).  A seed kernel call serves 2 states (3 real ones) and a
polish call, one per stencil, up to 64 states.
The test suite checks the optimizer against an exhaustive grid search over
the same kernel.  Mutual information of an X state comes from its spectrum
and its diagonal marginals, and of the others from one eigvalsh of their
reduced states.  Concurrence takes the closed form on X states and, on the
others, one kernel, Wootters' form from a state's eigenvectors and spectrum
(:func:`_wootters`): a built stack's own, the eigenvectors of the one
Hamiltonian of an ESD search's Gibbs states, none of which is built, or
those of one ``eigh`` of a stack from outside.  Entanglement of formation is
the binary entropy of the smaller of Wootters' two probabilities,
u = C^2 / (2 (1 + sqrt(1 - C^2))), by one numpy kernel
(:func:`_binary_entropies`, with ln(1 - u) as log1p(-u)) that the EoF
column, :func:`eof_from_concurrence` and :func:`binary_entropy` share: no
step cancels, so small concurrences keep their digits, down to those whose
square is no longer a normal float, where u is formed from ln C.
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
)

SIDES = ("first", "second")
MEASURES = ("mutual_information", "classical_correlation", "discord", "concurrence", "eof")
# The SIDES index of the qubit that measuring ``side`` leaves unmeasured.
_KEPT = {"first": 1, "second": 0}

_LN2 = math.log(2.0)
# The smallest normal float, 2^-1022.
_TINY = 2.2250738585072014e-308
_TWO_PI = 2.0 * math.pi

# Classical correlation may exceed mutual information by at most this much
# before it stops being round-off and becomes a bug.
DISCORD_NEGATIVE_TOL = 1e-9

# Optimizer tuning: a coarse seed grid, then the polish, one trust-region rule
# on 3x3 stencils in the plane tangent at a direction.  Each stencil fits a
# quadratic to its values.  Where the fit is positive definite with its
# minimum inside the stencil, the centre moves there and the stencil shrinks
# to the step's length, at least NEWTON_SHRINK-fold; with the minimum
# outside, the centre moves to the stencil's edge along the step and the
# stencil doubles.  A step whose point comes out above the best value so far
# is undone: the centre goes back to the best point, the stencil at most half
# the one that proposed the step.  Elsewhere the centre moves to the stencil's
# best point, at the same width if that point is on the edge and better
# beyond POLISH_FLAT (a curved valley can lead further than one stencil) and
# at half the width otherwise.  A state stops once a stencil's values spread
# by at most POLISH_FLAT, which is round-off (the values of a stencil on a
# flat optimum spread by a few 1e-15), or once the polish has measured
# POLISH_STENCILS stencils.  General states seed on a grid over the Bloch
# sphere and polish, the first stencil one seed-grid cell (pi/32) either way
# of the best seed direction.
SEED_THETA_POINTS = 33
SEED_PHI_POINTS = 64
NEWTON_SHRINK = 1.0 / 16.0
POLISH_FLAT = 1e-14
POLISH_STENCILS = 30
# Kernel columns per seed call, at least one state's: two states on the full
# seed (2 * 2 * 993 = 3,972), three on the real states' half (3,168).
SEED_COLUMNS = 3972
# States per kernel call of a polish, one call a stencil (64 * 2 * 9 = 1,152
# kernel columns), and of an uncertified X search (64 * 2 * 33 = 4,224 for
# its seed); also the states per Hermiticity test, whose copies it bounds.
STATE_BLOCK = 64
# X states: theta alone, in [0, pi/2]; the conditional entropy is even about
# both ends.  A seed with cells of pi/64, then one stencil with cells of
# pi/512 a seed cell either way of the best seed, reflected at the ends.  A
# best seed at an end with the stencil's values rising away from it stops
# there, and so does a state whose best stencil value and its two neighbours
# (the three at an end of the stencil) spread by at most POLISH_FLAT.  The
# other states polish in their X frame, the first stencil one fine cell
# (pi/512) either way of their best angle.
X_SEED_POINTS = 33
X_POLISH_POINTS = 17

# A state is X-shaped where every entry off its diagonal and anti-diagonal is
# at most this in modulus.
X_SHAPE_TOL = 1e-12
# Row-major flat indices of the entries off the diagonal and anti-diagonal,
# then of an X state's entries: rho_11, rho_22, rho_33, rho_44, rho_14, rho_23.
_X_ENTRIES = np.array([1, 2, 4, 7, 8, 11, 13, 14, 0, 5, 10, 15, 3, 6])
# An X state's populations times this are its qubits' populations, the
# first's then the second's: the spectra of its reduced states.
_X_MARGINALS = np.array([[1, 0, 1, 0], [1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 0, 1]], dtype=float)
# Row-major flat indices of SWAP rho SWAP in rho: rows and columns |01>, |10> swapped.
_FLAT_SWAP = (4 * np.array([0, 2, 1, 3])[:, None] + [0, 2, 1, 3]).ravel()


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
        _require_side(self.side)


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


def _require_state(states) -> tuple[np.ndarray, np.ndarray]:
    """The one validation boundary for states from outside the package: each
    public measure checks its input here once, as a complex stack (N x 4 x 4;
    one state is a stack of one), and hands it, with each state's spectrum
    (N x 4), to unchecked private kernels."""
    states = np.asarray(states, dtype=complex)
    if states.ndim != 3 or states.shape[1:] != (4, 4):
        raise DimensionError(f"state must be 4x4, got shape {states.shape[1:]}")
    if np.count_nonzero(np.isfinite(states)) < states.size:
        raise NotAStateError("state has a non-finite entry")
    # A state's Frobenius norm is at most 1, so Hermiticity is judged to an
    # absolute tolerance, STATE_BLOCK states at a time to bound the copies.
    for start in range(0, len(states), STATE_BLOCK):
        block = states[start : start + STATE_BLOCK]
        skew = (block - block.conj().swapaxes(1, 2)).reshape(len(block), -1)
        if np.count_nonzero(np.vecdot(skew, skew).real > qmath.HERMITICITY_RTOL**2):
            raise NotAStateError("state is not Hermitian")
    w = np.linalg.eigvalsh(states)
    qmath._require_spectra(w)
    return states, w


def _require_side(side: str) -> None:
    if side not in SIDES:
        raise InvalidParameterError(f"side must be one of {SIDES}, got {side!r}")


def binary_entropy(tau: float) -> float:
    """Shannon entropy of a coin with bias tau, in bits; H(0) = H(1) = 0.

    It is :func:`_binary_entropies` of the smaller probability
    min(tau, 1 - tau), which is exact (1 - tau is, for tau >= 1/2), and so
    within a few 1e-16 relative of the true value."""
    if not 0.0 <= tau <= 1.0:
        raise InvalidParameterError(f"tau must be in [0, 1], got {tau}")
    return float(_binary_entropies(np.array([min(tau, 1.0 - tau)]))[0])


def _binary_entropies(u: np.ndarray) -> np.ndarray:
    """Binary entropy -(u ln u + (1 - u) ln(1 - u)) / ln 2 of each of an
    array of smaller probabilities u in [0, 1/2], in bits; u <= 0 gives +0.
    ln(1 - u) is taken as log1p(-u), so no term loses digits as u -> 0."""
    zero = u <= 0.0
    v = np.where(zero, 0.5, u)
    return np.where(zero, 0.0, -(v * np.log(v) + (1.0 - v) * np.log1p(-v)) / _LN2)


def _spectrum_entropy(w: np.ndarray) -> np.ndarray:
    """Entropy of density matrices from their eigenvalues (last axis of w);
    eigenvalues at or below zero contribute nothing."""
    terms = w * np.log2(np.where(w > 0.0, w, 1.0))
    return np.maximum(0.0, -terms.sum(-1))


def _mutual_information(states, w: np.ndarray, reduced=None) -> tuple[np.ndarray, np.ndarray]:
    """Unchecked kernel of :func:`mutual_information` for a stack with
    spectra w; also returns the entropy of each qubit's reduced state (N x 2,
    in SIDES order), from the spectra of the reduced states (N x 2 x 2) if
    given, else from one eigvalsh call over all of them."""
    if reduced is None:
        reduced = np.linalg.eigvalsh(qmath.reduced_states(states))
    marginals = _spectrum_entropy(reduced)
    mi = marginals[:, 0] + marginals[:, 1] - _spectrum_entropy(w)
    if np.count_nonzero(mi < -1e-10):
        raise DomainError(f"mutual information came out negative: {mi.min()}")
    return np.maximum(mi, 0.0), marginals


def mutual_information(rho) -> float:
    """I(rho) = S(rho_a) + S(rho_b) - S(rho), in bits."""
    return float(_measure(*_outside([rho]), ("mutual_information",))["mutual_information"][0])


# ---------------------------------------------------------------------------
# Batched conditional-entropy kernel.
#
# In Fano form rho = (1/4) sum_ij R[i, j] s_i x s_j with s = (I, sx, sy, sz),
# R = [[1, b], [a, T]] when the rows index the measured qubit.  Measuring
# that qubit along the unit vector n leaves the other qubit in the
# unnormalized state (1/4) [(1 +- n.a) I + (b +- T^T n).s], so outcome k has
# weight p = (1 +- n.a)/2 and eigenvalues lam = (1 +- n.a +- |b +- T^T n|)/4,
# and sum_k p_k S(rho|k) = sum p log2 p - sum lam log2 lam.  Unit tests pin
# this against the definitional projector sandwich.
# ---------------------------------------------------------------------------

_PAULIS = (qmath.IDENTITY_2, qmath.SIGMA_X, qmath.SIGMA_Y, qmath.SIGMA_Z)
# Row (i, j) maps rho.ravel() to Tr(rho s_i x s_j).
_FANO = np.array([np.kron(s, t).T.ravel() for s in _PAULIS for t in _PAULIS])
_YY = qmath.kron(qmath.SIGMA_Y, qmath.SIGMA_Y)


def _bloch(rho: np.ndarray) -> np.ndarray:
    """Fano matrix [[1, b], [a, T]] of a state or of each state of a stack,
    rows on the first qubit, the measured one."""
    lead = rho.shape[:-2]
    return (_FANO @ rho.reshape(*lead, 16, 1)).real.reshape(*lead, 4, 4)


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


def _angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch angles of unit vectors, the columns of 3 x N n: theta in [0, pi]
    and phi in [0, 2*pi)."""
    phi = np.arctan2(n[1], n[0]) % _TWO_PI
    # A tiny negative atan2 rounds up to exactly 2*pi.
    return np.arctan2(np.hypot(n[0], n[1]), n[2]), np.where(phi < _TWO_PI, phi, 0.0)


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
# A real state's Fano matrix has only T_yy in the sigma_y row and column, so
# its conditional entropy is even in n_y, bit for bit: it seeds on the 528
# directions of _SEED with n_y >= 0 (phi in [0, pi]), in the same order.
_REAL_SEED = _SEED[:, _SEED[1] >= 0.0]
# Offsets (u, v) of the polish stencil in units of its half-width, u-major:
# the centre is the middle point.
_STENCIL = np.array(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij")).reshape(2, -1)
# The X-state seed angles, spanning [0, pi/2], its cell and its directions;
# the offsets of the X-state fine stencil in units of its half-width.
_X_SEED = 0.25 * math.pi + 0.25 * math.pi * np.linspace(-1.0, 1.0, X_SEED_POINTS)
_X_SEED_CELL = 0.5 * math.pi / (X_SEED_POINTS - 1)
_X_SEED_DIRECTIONS = np.array([np.sin(_X_SEED), np.zeros(X_SEED_POINTS), np.cos(_X_SEED)])
_X_FINE = np.linspace(-1.0, 1.0, X_POLISH_POINTS)


def _maximize_general(states: np.ndarray) -> tuple[np.ndarray, ...]:
    """(minimal conditional entropy, theta, phi, evaluations) of each of a
    stack of states (N x 4 x 4), its first qubit measured.

    Seed exactly real states on :data:`_REAL_SEED` and the others on
    :data:`_SEED`, at most SEED_COLUMNS kernel columns a call, keeping each
    state's first minimum; then :func:`_polish` from the best seed
    direction, in lockstep blocks of STATE_BLOCK.
    """
    bloch = _bloch(states)
    count = len(states)
    real = np.count_nonzero(states.imag.reshape(count, 16), axis=1) == 0
    n, best = np.empty((count, 3)), np.empty(count)
    evaluations = np.where(real, _REAL_SEED.shape[1], _SEED.shape[1])
    for seed, members in ((_SEED, np.flatnonzero(~real)), (_REAL_SEED, np.flatnonzero(real))):
        per_call = max(1, SEED_COLUMNS // (2 * seed.shape[1]))
        for start in range(0, len(members), per_call):
            block = members[start : start + per_call]
            values = _cond_entropy(bloch[block], seed)
            i = values.argmin(1)
            best[block], n[block] = values[np.arange(len(i)), i], seed[:, i].T
    for start in range(0, count, STATE_BLOCK):
        block = slice(start, start + STATE_BLOCK)
        width = np.full(len(best[block]), math.pi / (SEED_THETA_POINTS - 1))
        evaluations[block] += 9 * _polish(bloch[block], best[block], n[block], width)
    return best, *_angles(n.T), evaluations


def _polish(bloch, best, n, width) -> np.ndarray:
    """Newton steps on 3x3 stencils, in lockstep over L states with Fano
    matrices bloch (L x 4 x 4), in the chart n + u e_theta + v e_phi of the
    plane tangent at each state's starting direction n (L x 3,
    :func:`_tangent_chart`), put back on the sphere.  best (L) and n, each
    state's best value so far and its direction, are updated in place;
    width (L) is the half-width of the first stencil, centred on n.  Returns
    the number of stencils each state measured."""
    chart, origin = _tangent_chart(n), n.copy()
    mid = _STENCIL.shape[1] // 2
    # Chart coordinates of each stencil's centre and of the best point.
    centre, spot = np.zeros((2, len(best), 2))
    proposed = np.zeros(len(best))
    stencils = np.zeros(len(best), dtype=int)
    a = np.arange(len(best))
    while len(a):
        offsets = centre[a, :, None] + width[a, None, None] * _STENCIL
        points = origin[a, :, None] + chart[a] @ offsets
        points /= np.sqrt(np.einsum("aij,aij->aj", points, points))[:, None]
        values = _cond_entropy(bloch[a], points)
        stencils[a] += 1
        w = width[a]
        # A model's step whose point came out above the best value so far is
        # undone: the centre goes back to the best point.
        undo = (proposed[a] > 0.0) & (values[:, mid] > best[a])
        rows, i = np.arange(len(a)), values.argmin(1)
        lowest = values[rows, i]
        better = lowest < best[a]
        best[a] = np.where(better, lowest, best[a])
        n[a] = np.where(better[:, None], points[rows, :, i], n[a])
        spot[a] = np.where(better[:, None], offsets[rows, :, i], spot[a])
        # Where the model is positive definite, its minimum s is taken if it
        # lies inside the stencil and cut at its edge otherwise; both tests
        # come before dividing.
        step, det, definite = _quadratic(values)
        reach = np.abs(step).max(0)
        convex = ~undo & definite
        newton = convex & (reach <= det)
        s = np.where(convex, step / np.where(newton, det, np.where(convex, reach, 1.0)),
                     _STENCIL[:, i])
        # Elsewhere the centre moves to the stencil's best point, at the same
        # width if that point is on the edge and better beyond round-off.
        edge = ~convex & ~undo & (i != mid) & (values[:, mid] - lowest > POLISH_FLAT)
        width[a] = np.where(undo, np.minimum(w, 0.5 * proposed[a]), w * np.where(
            newton, np.maximum(NEWTON_SHRINK, np.abs(s).max(0)),
            np.where(convex, 2.0, np.where(edge, 1.0, 0.5))))
        proposed[a] = np.where(convex, w, 0.0)
        centre[a] = np.where(undo[:, None], spot[a], centre[a] + w[:, None] * s.T)
        a = a[(undo | (values.max(1) - lowest > POLISH_FLAT)) & (stencils[a] < POLISH_STENCILS)]
    return stencils


def _quadratic(f: np.ndarray) -> tuple[np.ndarray, ...]:
    """(adj(h) (-g), det(h), whether h is positive definite) of the quadratic
    through each row of 3x3 stencil values f (N x 9), with gradient g and
    Hessian h in stencil units by central differences: its minimum is
    s = adj(h) (-g) / det(h)."""
    f = f.reshape(-1, 3, 3)
    g_u, g_v = 0.5 * (f[:, 2, 1] - f[:, 0, 1]), 0.5 * (f[:, 1, 2] - f[:, 1, 0])
    h_uu = f[:, 2, 1] + f[:, 0, 1] - 2.0 * f[:, 1, 1]
    h_vv = f[:, 1, 2] + f[:, 1, 0] - 2.0 * f[:, 1, 1]
    h_uv = 0.25 * (f[:, 2, 2] + f[:, 0, 0] - f[:, 2, 0] - f[:, 0, 2])
    det = h_uu * h_vv - h_uv * h_uv
    step = np.array([h_uv * g_v - h_vv * g_u, h_uv * g_u - h_uu * g_v])
    return step, det, (h_uu > 0.0) & (det > 0.0)


def _tangent_chart(n: np.ndarray) -> np.ndarray:
    """Basis (e_theta, e_phi), the columns of each N x 3 x 2 slice, of the
    plane tangent at each direction n (N x 3).  The chart n + u e_theta +
    v e_phi, put back on the sphere, reaches every measurement but those at
    right angles to n and, unlike a box in (theta, phi), does not pinch at a
    pole."""
    # The chart's azimuth is atan2's, unfolded: folding into [0, 2*pi) would
    # round it.
    theta, phi = _angles(n.T)[0], np.arctan2(n[:, 1], n[:, 0])
    ct, st, cp, sp = np.cos(theta), np.sin(theta), np.cos(phi), np.sin(phi)
    chart = np.zeros((len(n), 3, 2))
    chart[:, 0, 0], chart[:, 1, 0], chart[:, 2, 0] = ct * cp, ct * sp, -st
    chart[:, 0, 1], chart[:, 1, 1] = -sp, cp
    return chart


def _x_bloch(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Fano matrices of X states from their populations p (N x 4) and
    c = |rho_14| + |rho_23| (N), rows on the first qubit, the measured one,
    with its x axis turned to the azimuth of :func:`_maximize_x`.

    The x axis is put along the top singular vector of T_xy, which maximizes
    |b +- T^T n| at any theta: the Fano matrix becomes diag(1, s, 0, T33),
    s = 2c, with a3 and b3 at [3, 0], [0, 3].  Its conditional entropy at
    n = (sin theta, 0, cos theta) is even about theta = 0 and theta = pi/2.
    """
    p1, p2, p3, p4 = p.T
    bloch = np.zeros((len(p), 4, 4))
    bloch[:, 0, 0] = 1.0
    bloch[:, 1, 1] = 2.0 * c
    bloch[:, 3, 0], bloch[:, 0, 3] = p1 + p2 - p3 - p4, p1 - p2 + p3 - p4
    bloch[:, 3, 3] = p1 - p2 - p3 + p4
    return bloch


def _x_values(bloch: np.ndarray, thetas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(conditional entropy, angle) at each of N x K angles theta of N X-state
    Fano matrices, each angle reflected into [0, pi/2] first: the values
    are even about 0 and pi/2."""
    thetas = np.abs(thetas) % math.pi
    thetas = np.minimum(thetas, np.abs(thetas - math.pi))
    n = np.zeros((len(thetas), 3, thetas.shape[1]))
    np.sin(thetas, out=n[:, 0])
    np.cos(thetas, out=n[:, 2])
    return _cond_entropy(bloch, n), thetas


def _maximize_x(entries: np.ndarray) -> tuple[np.ndarray, ...]:
    """(minimal conditional entropy, theta, phi, evaluations) of each of a
    stack of X states given by their entries (N x 6, as :func:`_x_entries`
    reads them), its first qubit measured, over theta in [0, pi/2] at the
    azimuth phi that lines up the phases of rho_14 and rho_23, mod pi (+-n
    is one measurement).

    c = |rho_14| + |rho_23| is formed once.  A state that
    :func:`_x_certificates` certifies takes its end at 1 evaluation, in
    closed form (:func:`_x_pole_entropy` at theta = 0,
    :func:`_x_equator_entropy` at pi/2), theta = 0 if both ends are
    certified.  Only the others get an X-frame Fano matrix
    (:func:`_x_bloch`) and take :func:`_search_x`, STATE_BLOCK at a time,
    each state's certificates and result its own whatever the stack.
    """
    p, r14, r23 = entries[:, :4].real, entries[:, 4], entries[:, 5]
    c = np.abs(r14) + np.abs(r23)
    phis = -0.5 * (np.angle(r14) + np.angle(r23)) % math.pi
    zero, half = _x_certificates(p, c)
    half &= ~zero
    best = np.empty(len(p))
    theta = np.where(half, 0.5 * math.pi, 0.0)
    evaluations = np.ones(len(p), dtype=int)
    if np.count_nonzero(zero):
        best[zero] = _x_pole_entropy(p[zero])
    if np.count_nonzero(half):
        best[half] = _x_equator_entropy(p[half], c[half])
    a = np.flatnonzero(~zero & ~half)
    for start in range(0, len(a), STATE_BLOCK):
        block = a[start : start + STATE_BLOCK]
        best[block], theta[block], evaluations[block] = _search_x(_x_bloch(p[block], c[block]))
    return best, theta, phis, evaluations


def _x_certificates(p: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """Whether theta = 0 (sigma_z) and whether theta = pi/2 (sigma_x) is the
    optimal measurement of the first qubit of each of a stack of X states
    with populations p (N x 4) and c = |rho_14| + |rho_23| (N), by the
    sufficient conditions of Chen, Zhang, Yu, Yi and Oh (PRA 84, 042313,
    2011): theta = 0 where (rho_11 - rho_22)(rho_44 - rho_33) >= c^2, theta
    = pi/2 where |sqrt(rho_11 rho_44) - sqrt(rho_22 rho_33)| <= c.  Both
    tests are inclusive: on the boundary the optimum is still the end."""
    zero = (p[:, 0] - p[:, 1]) * (p[:, 3] - p[:, 2]) >= c * c
    roots = np.sqrt(np.maximum(p[:, [0, 1]] * p[:, [3, 2]], 0.0))
    return zero, np.abs(roots[:, 0] - roots[:, 1]) <= c


def _x_pole_entropy(p: np.ndarray) -> np.ndarray:
    """Conditional entropy at theta = 0 of a stack of X states with
    populations p (N x 4), the first qubit measured: S(diag rho) -
    S(diag rho_a), rho_a the measured qubit's state, taken as the sum over
    its two outcomes of m H(q / m), each outcome's probability m times the
    binary entropy of the smaller of its two levels q.  Every term is
    nonnegative, so nothing cancels."""
    pairs = p.reshape(-1, 2, 2)
    m = pairs.sum(2)
    return (m * _binary_entropies(pairs.min(2) / np.where(m > 0.0, m, 1.0))).sum(1)


def _x_equator_entropy(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Conditional entropy at theta = pi/2 of a stack of X states with
    populations p (N x 4) and c = |rho_14| + |rho_23| (N), the first qubit
    measured.  Both outcomes are equally likely and leave the other qubit
    with Bloch length r = hypot(2c, m0 - m1), m0 and m1 its populations, so
    it is H(q) with q = (1 - r)/2 taken as 2 (m0 m1 - c^2) / (1 + r), which
    does not cancel as r -> 1."""
    m0, m1 = (p[:, :2] + p[:, 2:]).T
    return _binary_entropies(2.0 * (m0 * m1 - c * c) / (1.0 + np.hypot(2.0 * c, m0 - m1)))


def _search_x(bloch: np.ndarray) -> tuple[np.ndarray, ...]:
    """(minimal conditional entropy, theta, evaluations) over theta in
    [0, pi/2] for each of a stack of X-state Fano matrices from
    :func:`_x_bloch`.

    Seed on :data:`_X_SEED`, then take one X_POLISH_POINTS stencil a seed
    cell either way of each state's best seed angle.  The states whose
    optimum that leaves open take :func:`_polish` in their X frame from
    (sin theta, 0, cos theta) at their best angle theta; the values are even
    in n_x and in n_z there, so the direction it finds folds back to
    theta = atan2(|n_x|, |n_z|) in [0, pi/2], at the same azimuth.
    """
    count = len(bloch)
    rows = np.arange(count)
    values = _cond_entropy(bloch, np.broadcast_to(_X_SEED_DIRECTIONS, (count, 3, X_SEED_POINTS)))
    i = values.argmin(1)
    best, theta = values[rows, i], _X_SEED[i]
    values, angles = _x_values(bloch, theta[:, None] + _X_SEED_CELL * _X_FINE)
    j = values.argmin(1)
    lowest = values[rows, j]
    better = lowest < best
    best = np.where(better, lowest, best)
    theta = np.where(better, angles[rows, j], theta)
    evaluations = np.full(count, X_SEED_POINTS + X_POLISH_POINTS)
    # A best seed at an end of [0, pi/2] whose stencil values rise away from
    # it on both sides is the optimum: the values are even about the end.
    mid = X_POLISH_POINTS // 2
    rise = values[:, 1:] - values[:, :-1]
    falls = np.maximum(rise[:, :mid].max(1), np.negative(rise[:, mid:]).max(1)) > 0.0
    # So is a best stencil value whose neighbours agree with it to round-off.
    near = values[rows[:, None], np.clip(j, 1, X_POLISH_POINTS - 2)[:, None] + np.arange(-1, 2)]
    flat = near.max(1) - near.min(1) <= POLISH_FLAT
    a = np.flatnonzero((((i != 0) & (i != X_SEED_POINTS - 1)) | falls) & ~flat)
    if len(a):
        polished = best[a]
        n = np.array([np.sin(theta[a]), np.zeros(len(a)), np.cos(theta[a])]).T
        evaluations[a] += 9 * _polish(bloch[a], polished, n,
                                      np.full(len(a), 2.0 * _X_SEED_CELL / (X_POLISH_POINTS - 1)))
        best[a], theta[a] = polished, np.arctan2(np.abs(n[:, 0]), np.abs(n[:, 2]))
    return best, theta, evaluations


def _clamp_classical(mi, cc):
    """(discord, classical correlation), the latter clamped to mi within round-off."""
    if np.count_nonzero(cc - mi > DISCORD_NEGATIVE_TOL):
        raise DomainError(f"classical correlation {cc} exceeds mutual information {mi}")
    cc = np.minimum(cc, mi)
    return mi - cc, cc


def _measure(x, entries, states, w, v, measures, side: str = "first") -> dict:
    """Column arrays of the named :data:`MEASURES` of a checked stack of N
    rows with spectra w (N x 4), computing only what they need; a discord
    search (for discord or classical correlation) adds its theta, phi and
    optimizer_evaluations.  The rows x (a mask) are X states given by their
    entries (as :func:`_x_entries` reads them, in row order), the others
    states with, if known (a built stack's), the eigenvectors v their
    spectra belong to.  A state X-shaped within X_SHAPE_TOL, as is every X
    state from outside, joins the X rows.  X rows take the closed forms: mutual information from
    the spectrum and the diagonal marginals, :func:`_maximize_x`, and the X
    concurrence; the others eigvalsh of their marginals,
    :func:`_maximize_general` and :func:`_wootters`."""
    k, g = np.flatnonzero(x), np.flatnonzero(~x)
    if len(g):
        shaped, e = _x_entries(states)
        if np.count_nonzero(shaped):
            k, entries = np.concatenate([k, g[shaped]]), np.concatenate([entries, e[shaped]])
            g, states, v = g[~shaped], states[~shaped], None if v is None else v[~shaped]
    searched = "discord" in measures or "classical_correlation" in measures
    informed = searched or "mutual_information" in measures
    entangled = "concurrence" in measures or "eof" in measures
    mi, c, best, theta, phi = np.empty((5, len(w)))
    marginals, evaluations = np.empty((len(w), 2)), np.empty(len(w), dtype=int)
    if informed and len(k):
        diagonal = (entries[:, :4].real @ _X_MARGINALS).reshape(-1, 2, 2)
        mi[k], marginals[k] = _mutual_information(None, w[k], diagonal)
    if informed and len(g):
        mi[g], marginals[g] = _mutual_information(states, w[g])
    if searched:
        # The searches measure the first qubit: the second is the first of
        # the qubit-swapped states, at the same angles.
        if len(k):
            measured = entries if side == "first" else np.concatenate(
                [entries[:, [0, 2, 1, 3, 4]], entries[:, 5:].conj()], 1)  # rho_32 = rho_23*
            best[k], theta[k], phi[k], evaluations[k] = _maximize_x(measured)
        if len(g):
            measured = (states if side == "first" else
                        states.reshape(len(g), 16)[:, _FLAT_SWAP].reshape(-1, 4, 4))
            best[g], theta[g], phi[g], evaluations[g] = _maximize_general(measured)
    columns = {"mutual_information": mi} if informed else {}
    if searched:
        # S(rho_b) from its spectrum: 1 - |b| keeps too few digits near pure.
        cc = np.maximum(0.0, marginals[:, _KEPT[side]] - best)
        columns["discord"], columns["classical_correlation"] = _clamp_classical(mi, cc)
        columns.update(theta=theta, phi=phi, optimizer_evaluations=evaluations)
    if entangled:
        if len(k):
            p = entries[:, :4].real  # rho_22 rho_33, then rho_11 rho_44
            c12 = np.abs(entries[:, 4:]) - np.sqrt(np.maximum(p[:, 1::-1] * p[:, 2:], 0.0))
            c[k] = np.minimum(1.0, 2.0 * np.maximum(0.0, c12.max(1)))
        if len(g):
            # A stack from outside takes its eigenvectors from one eigh.
            p, u = (w[g], v) if v is not None else np.linalg.eigh(states)
            c[g] = _wootters(p, _spin_flip(u))
        columns["concurrence"] = c
    if "eof" in measures:
        columns["eof"] = _eof_column(c)
    return columns


def _outside(states) -> tuple:
    """A stack from outside, checked by :func:`_require_state`, as
    :func:`_measure` takes it: no row given by its X entries, and no
    eigenvectors."""
    states, w = _require_state(states)
    return np.zeros(len(states), dtype=bool), np.empty((0, 6)), states, w, None


def _eof_column(c: np.ndarray) -> np.ndarray:
    """:func:`eof_from_concurrence` of each of an array of concurrences in
    [0, 1]: the binary entropy of u = (1 - sqrt(1 - C^2))/2, taken as
    C^2 / (2 (1 + sqrt(1 - C^2))), which does not cancel as C -> 0.

    Where C^2 is below the smallest normal float it has lost digits, and
    there the entropy is u (1 - ln u) / ln 2 (the next term is u^2 / 2), with
    ln u = 2 ln C + ln(1 / (2 (1 + sqrt(1 - C^2)))) and u formed from C
    scaled by 2^300, then scaled back once at the end."""
    root = 2.0 * (1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c)))
    eof = _binary_entropies(c * c / root)
    tiny = np.flatnonzero((c > 0.0) & (c * c < _TINY))
    if len(tiny):
        small, root = c[tiny], root[tiny]
        ln_u = 2.0 * np.log(small) - np.log(root)
        eof[tiny] = np.ldexp(np.ldexp(small, 300) ** 2 / root * ((1.0 - ln_u) / _LN2), -600)
    return eof


def classical_correlation(rho, side: str = "first") -> tuple[float, Measurement]:
    """Maximal classical correlation extractable by measuring one qubit.

    Returns the maximum of S(rho_unmeasured) minus the measured conditional
    entropy over all rank-1 projective measurements on ``side``, together
    with the maximizing measurement, as :func:`quantum_discord` reports them.
    """
    report = quantum_discord(rho, side)
    return report.classical_correlation, report.optimal_measurement


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
    columns = _measure(*_outside(states), MEASURES, side)
    names = (*MEASURES, "theta", "phi", "optimizer_evaluations")
    return [CorrelationReport(mi, cc, d, c, e, Measurement(t, f, side), k)
            for mi, cc, d, c, e, t, f, k in zip(*[columns[n].tolist() for n in names])]


def measure_states(states, measures) -> dict[str, np.ndarray]:
    """Measure name -> column over a stack, checked once, for each of the named
    :data:`MEASURES` in the order given; each value is the one
    :func:`correlation_reports` gives (first qubit measured).  The discord
    search runs only for discord or classical correlation."""
    if isinstance(measures, str) or any(m not in MEASURES for m in measures):
        raise InvalidParameterError(
            f"measures must be a sequence of names from {MEASURES}, got {measures!r}")
    columns = _measure(*_outside(states), measures)
    return {m: columns[m] for m in measures}


def _x_entries(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each state of a stack is X-shaped (every entry off the diagonal
    and anti-diagonal at most X_SHAPE_TOL in modulus), and its entries rho_11,
    rho_22, rho_33, rho_44, rho_14 and rho_23 (N x 6)."""
    e = states.reshape(len(states), 16).take(_X_ENTRIES, 1)
    return np.abs(e[:, :8]).max(1) <= X_SHAPE_TOL, e[:, 8:]


def concurrence(rho) -> float:
    """Two-qubit concurrence via the spin-flipped state.

    X-shaped states take the closed form
    2 * max(0, |rho_14| - sqrt(rho_22 rho_33), |rho_23| - sqrt(rho_11 rho_44));
    other states take Wootters' form from their eigenvectors and spectrum
    (:func:`_wootters`).
    """
    return float(_measure(*_outside([rho]), ("concurrence",))["concurrence"][0])


def _spin_flip(v: np.ndarray) -> np.ndarray:
    """M = V^T (sy x sy) V for each of a stack of eigenvector matrices V
    (columns), real or complex, as :func:`_wootters` takes it."""
    return v.swapaxes(1, 2) @ _YY.real @ v


def _wootters_margin(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Wootters' margin 2 max lam - sum lam of each of a stack of states rho =
    V P V^dagger from its spectrum p (N x 4), P its diagonal, and m =
    :func:`_spin_flip` of V (N x 4 x 4, or 1 x 4 x 4 for every state): its
    concurrence before the clamp (:func:`_wootters`), negative where the
    state is separable.

    Y = sy x sy is real, so rho Y rho* Y is similar to P M* P M, M = V^T Y V,
    and so to B* B, B = P^1/2 M P^1/2 symmetric: Wootters' square roots of
    its eigenvalues (PRL 80, 2245, 1998) are the singular values lam of B.
    A real B (every built state's) has lam = |eigvalsh(B)|; a complex B
    takes an SVD.  Neither squares a small lam, whose digits a near-pure
    state would lose.
    """
    root = np.sqrt(np.maximum(p, 0.0))
    b = root[:, :, None] * m * root[:, None, :]
    lam = (np.linalg.svd(b, compute_uv=False) if np.iscomplexobj(b)
           else np.abs(np.linalg.eigvalsh(b)))
    return 2.0 * lam.max(1) - lam.sum(1)


def _clamp_margin(margin: np.ndarray) -> np.ndarray:
    """Concurrence C = min(1, max(0, margin)) of Wootters' margins."""
    return np.minimum(1.0, np.maximum(0.0, margin))


def _wootters(p: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Concurrence of each of a stack of states, as :func:`_wootters_margin`
    takes them: its margin, clamped."""
    return _clamp_margin(_wootters_margin(p, m))


def eof_from_concurrence(c: float) -> float:
    """Entanglement of formation H((1 + sqrt(1 - C^2))/2) for concurrence C
    (Wootters, PRL 80, 2245, 1998), in bits, as :func:`_eof_column` takes it:
    within a few 1e-16 relative of the true value, plus one unit of the last
    place (2^-1074) where that is below the smallest normal float."""
    if not 0.0 <= c <= 1.0:
        raise InvalidParameterError(f"concurrence must be in [0, 1], got {c}")
    return float(_eof_column(np.array([c], dtype=float))[0])


def eof(rho) -> float:
    """Entanglement of formation of a two-qubit state, in bits."""
    return eof_from_concurrence(concurrence(rho))

"""Verification-only references that the package's fast paths are tested
against: closed forms, the scalar flux maps cos(pi*x) and sin(pi*x), the
one-qubit coupling maps, the von Neumann entropy, the definitional
conditional entropy, an exhaustive grid-search discord, a fixed-schedule
X-state search, the spectral concurrence of any state, 50-digit mutual
information, conditional entropy, discord and concurrence of Gibbs states,
the 50-digit conditional entropy of an X state at a polar angle of its X
frame, and the 50-digit entanglement of formation of a concurrence.
None of them is a production path, so they live with the tests."""

from __future__ import annotations

import math

import numpy as np

from jcqsim import device, qmath
from jcqsim.correlations import (
    _KEPT,
    _LN2,
    _TWO_PI,
    SIDES,
    Measurement,
    _bloch,
    _clamp_classical,
    _cond_entropy,
    _grid_directions,
    _mutual_information,
    _require_side,
    _require_state,
    _spectrum_entropy,
    _x_bloch,
)
from jcqsim.device import DeviceParams, EffectiveParams
from jcqsim.errors import InvalidParameterError, NotAStateError

# Measurement outcomes rarer than this contribute nothing to the
# conditional entropy.
PROBABILITY_FLOOR = 1e-14
# The qubit that measuring ``side`` leaves unmeasured.
_OTHER = {"first": "second", "second": "first"}


class UnsupportedRegimeError(ValueError):
    """A closed-form path was requested outside the regime it covers."""


def scalar_cos_pi(x: float) -> float:
    """cos(pi*x) of one float with exact argument reduction, by branches on
    the folded argument: the reference that :func:`jcqsim.device._cos_pi` must
    match bit for bit."""
    y = abs(math.fmod(x, 2.0))
    if y > 1.0:
        y = 2.0 - y
    if y == 0.5:
        return 0.0
    if y > 0.5:
        return -math.cos(math.pi * (1.0 - y))
    return math.cos(math.pi * y)


def scalar_sin_pi(x: float) -> float:
    """sin(pi*x) of one float with exact argument reduction, by branches on
    the folded argument: the reference that :func:`jcqsim.device._sin_pi` must
    match bit for bit."""
    y = math.fmod(x, 2.0)
    if y < 0.0:
        y += 2.0
    sign = 1.0
    if y > 1.0:
        y = y - 1.0
        sign = -1.0
    if y == 0.0 or y == 1.0:
        return 0.0
    if y > 0.5:
        y = 1.0 - y
    return sign * math.sin(math.pi * y)


def intrabit_coupling(p: DeviceParams, which: int) -> float:
    """Flux-controlled sigma_x coupling of qubit ``which`` (1 or 2), in kelvin,
    by the map :func:`jcqsim.device.effective_params` applies."""
    device._check_qubit_index(which)
    phi_x = p.phi_x1 if which == 1 else p.phi_x2
    return device._intrabit(p, device._cos_pi(phi_x), device._cos_pi(p.phi_e))


def interbit_coupling(p: DeviceParams) -> float:
    """Inductance-mediated sigma_x sigma_x coupling, in kelvin, by the map
    :func:`jcqsim.device.effective_params` applies."""
    return device._interbit(p, device._cos_pi(p.phi_x1), device._cos_pi(p.phi_x2))


def von_neumann_entropy(rho) -> float:
    """Entropy -sum(lam * log2 lam) of a 2x2 or 4x4 density matrix, in bits."""
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise NotAStateError("state has a non-finite entry")
    w = np.linalg.eigvalsh(qmath.require_hermitian(rho, "state"))[None]
    qmath._require_spectra(w)
    return float(_spectrum_entropy(w)[0])


def closed_form_thermal(eff: EffectiveParams, t: float) -> np.ndarray:
    """Closed-form thermal X state for the symmetric, zero-intrabit regime.

    Valid only when ej1 = ej2 = 0, eps1 = eps2, j12 != 0 and T > 0; any other
    regime should go through :func:`jcqsim.device.gibbs_state`.  With eps = eps1
    and lam = sqrt(4 eps^2 + j12^2) the nonzero entries are

        rho_11,44 = [cosh(b*lam) -/+ (2 eps/lam) sinh(b*lam)] / Z
        rho_22 = rho_33 = cosh(b*j12) / Z
        rho_23 = rho_32 = -sinh(b*j12) / Z
        rho_14 = rho_41 = -(j12/lam) sinh(b*lam) / Z
        Z = 2 cosh(b*lam) + 2 cosh(b*j12),   b = 1/T.

    Equivalently rho_11,44 = w_-/+ / (alpha*Z) and rho_14 = -gamma/(alpha*Z)
    with w_-/+ = j12^2 [lam^2 cosh(b*lam) -/+ 2 eps lam sinh(b*lam)],
    gamma = j12^3 lam sinh(b*lam) and normalization alpha = j12^2 lam^2.
    A variant of alpha sometimes quoted for this model, j12^4 - 12 eps^4,
    does not reproduce exp(-H/T)/Z and is treated here as a misprint; the
    test suite pins the equivalence with direct exponentiation.

    The implementation rescales every term by exp(-b*lam) so large b never
    overflows.
    """
    if eff.ej1 != 0.0 or eff.ej2 != 0.0:
        raise UnsupportedRegimeError(
            "closed form requires zero intrabit couplings; use gibbs_state"
        )
    if eff.eps1 != eff.eps2:
        raise UnsupportedRegimeError(
            "closed form requires eps1 == eps2; use gibbs_state"
        )
    if eff.j12 == 0.0:
        raise UnsupportedRegimeError(
            "closed form is singular at j12 = 0; use gibbs_state"
        )
    if not (math.isfinite(t) and t > 0.0):
        raise UnsupportedRegimeError("closed form requires T > 0; use gibbs_state")

    eps, j = eff.eps1, eff.j12
    beta = 1.0 / t
    lam = math.hypot(2.0 * eps, j)
    # All exponents below are <= 0 because lam >= |j|.
    u = math.exp(-2.0 * beta * lam)
    a = math.exp(-beta * (lam - j))
    b = math.exp(-beta * (lam + j))
    z = (1.0 + u) + a + b          # Z scaled by exp(-beta*lam)/2

    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = ((1.0 + u) - (2.0 * eps / lam) * (1.0 - u)) / (2.0 * z)
    rho[3, 3] = ((1.0 + u) + (2.0 * eps / lam) * (1.0 - u)) / (2.0 * z)
    rho[1, 1] = rho[2, 2] = (a + b) / (2.0 * z)
    rho[1, 2] = rho[2, 1] = -(a - b) / (2.0 * z)
    rho[0, 3] = rho[3, 0] = -(j / lam) * (1.0 - u) / (2.0 * z)
    return rho


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
    rho = _require_state([rho])[0][0]
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


def discord_grid_oracle(
    rho, side: str = "first", n_theta: int = 721, n_phi: int = 1441
) -> float:
    """Discord with the maximization replaced by exhaustive grid search.

    Searches theta over n_theta points on [0, pi] inclusive and phi over
    n_phi points on [0, 2*pi); upper-bounds the true discord.
    """
    states, w = _require_state([rho])
    _require_side(side)
    if n_theta < 2 or n_phi < 2:
        raise InvalidParameterError("grid needs at least 2 points per angle")
    mi, marginals = _mutual_information(states, w)
    # The oracle keeps its own frame per side: the second qubit's rows are
    # the first's Fano matrix transposed.
    bloch = _bloch(states[0]) if side == "first" else _bloch(states[0]).T

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


def x_stencil_search(states: np.ndarray, side: str) -> tuple[np.ndarray, np.ndarray]:
    """(minimal conditional entropy, theta) of the measured qubit ``side`` for
    each of a stack of X states by a fixed schedule over theta in [0, pi/2]: a
    33-point seed, then six 17-point stencils, each spanning one cell of the
    last either way and clipped to the interval (135 evaluations, a last cell
    of 1.9e-7 rad).  The reference for :func:`jcqsim.correlations._maximize_x`."""
    p = states[:, range(4), range(4)].real
    bloch = _x_bloch(p, np.abs(states[:, 0, 3]) + np.abs(states[:, 1, 2]))
    # Its own frame per side, as for the grid oracle.
    if side == "second":
        bloch = bloch.swapaxes(1, 2)
    rows = np.arange(len(states))
    best, theta = np.full(len(states), np.inf), np.full(len(states), 0.25 * math.pi)
    half_width = 0.25 * math.pi
    for points in (33, 17, 17, 17, 17, 17, 17):
        offsets = np.linspace(-1.0, 1.0, points)
        candidates = np.clip(theta[:, None] + half_width * offsets, 0.0, 0.5 * math.pi)
        n = np.zeros((len(states), 3, points))
        n[:, 0], n[:, 2] = np.sin(candidates), np.cos(candidates)
        values = _cond_entropy(bloch, n)
        i = values.argmin(1)
        lowest = values[rows, i]
        better = lowest < best
        best = np.where(better, lowest, best)
        theta = np.where(better, candidates[rows, i], theta)
        half_width *= 2.0 / (points - 1)  # one cell of this stencil
    return best, theta


def ground_state_discord_analytic(eps: float, j: float) -> float:
    """Closed-form ground-state discord of the symmetric zero-intrabit model.

    For H = eps (sz x I + I x sz) + j (sx x sx) with a nondegenerate ground
    state (eps != 0) the discord equals -u log2 u - v log2 v with
    u = (2 eps + lam)^2 / zeta, v = j^2 / zeta, zeta = j^2 + (2 eps + lam)^2
    and lam = sqrt(4 eps^2 + j^2).

    Ratio convention: the package parametrizes the coupling strength as
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


def _gibbs_50_digits(eff: EffectiveParams):
    """(levels, eigenvectors, weights) of the Gibbs states of ``eff`` in
    50-digit mpmath arithmetic from the exact float coefficients; weights(T)
    gives the normalized Boltzmann weights at T (K; T = 0 the uniform
    mixture over the ground space, cut as the package cuts it).  Call it
    inside ``mpmath.workdps(50)``."""
    import mpmath

    e1, e2, x1, x2, j = (mpmath.mpf(c) for c in (eff.eps1, eff.eps2, eff.ej1, eff.ej2, eff.j12))
    h = mpmath.matrix([[e1 + e2, -x2, -x1, j], [-x2, e1 - e2, j, -x1],
                       [-x1, j, -e1 + e2, -x2], [j, -x1, -x2, -e1 - e2]])
    w, v = mpmath.eigsy(h)
    w = [w[k] for k in range(4)]
    ground, scale = min(w), mpmath.sqrt(sum(x * x for x in w))

    def weights(t):
        if t == 0.0:
            u = [mpmath.mpf(x - ground <= 1e-10 * scale) for x in w]
        else:
            u = [mpmath.exp(-(x - ground) / mpmath.mpf(t)) for x in w]
        return [x / sum(u) for x in u]

    return w, v, weights


def _entropy_50_digits(values) -> "mpmath.mpf":
    """-sum x log2 x over the positive ``values``, in bits."""
    import mpmath

    return -sum((x * mpmath.log(x, 2) for x in values if x > 0), mpmath.mpf(0))


def _qubit_spectrum_50_digits(m) -> list:
    """Eigenvalues of a Hermitian 2x2 mpmath matrix, in closed form."""
    import mpmath

    mean, half = (m[0, 0] + m[1, 1]).real / 2, (m[0, 0] - m[1, 1]).real / 2
    r = mpmath.sqrt(half * half + abs(m[0, 1]) ** 2)
    return [mean + r, mean - r]


def _reduced_50_digits(rho, keep: str):
    """The reduced state of qubit ``keep`` of a 4x4 mpmath matrix."""
    import mpmath

    if keep == "first":
        return mpmath.matrix([[rho[2 * a, 2 * c] + rho[2 * a + 1, 2 * c + 1] for c in range(2)]
                              for a in range(2)])
    return mpmath.matrix([[rho[b, d] + rho[b + 2, d + 2] for d in range(2)] for b in range(2)])


def _state_50_digits(eff: EffectiveParams, t: float):
    """The Gibbs state of ``eff`` at T (K) as a 50-digit mpmath matrix, with
    its spectrum; call it inside ``mpmath.workdps(50)``."""
    import mpmath

    _, v, weights = _gibbs_50_digits(eff)
    p = weights(t)
    return v * mpmath.diag(p) * v.T, p


def _marginal_entropies_50_digits(rho) -> dict:
    """Side name -> entropy of that qubit's reduced state of a 4x4 mpmath
    matrix."""
    return {k: _entropy_50_digits(_qubit_spectrum_50_digits(_reduced_50_digits(rho, k)))
            for k in SIDES}


def _conditional_entropy_50_digits(rho, m: Measurement):
    """Measured conditional entropy of a 4x4 mpmath matrix for ``m`` by the
    projector sandwich, as :func:`conditional_entropy` takes it."""
    import mpmath

    theta, phi = mpmath.mpf(m.theta), mpmath.mpf(m.phi)
    ket = [mpmath.cos(theta / 2), mpmath.sin(theta / 2) * mpmath.expj(phi)]
    plus = mpmath.matrix([[ket[a] * mpmath.conj(ket[b]) for b in range(2)] for a in range(2)])
    one = mpmath.eye(2)
    total = mpmath.mpf(0)
    for proj in (plus, one - plus):
        first, second = (proj, one) if m.side == "first" else (one, proj)
        k = mpmath.matrix([[first[a // 2, b // 2] * second[a % 2, b % 2] for b in range(4)]
                           for a in range(4)])
        post = k * rho * k
        prob = sum((post[a, a] for a in range(4)), mpmath.mpf(0)).real
        if prob > 0:
            reduced = _reduced_50_digits(post, _OTHER[m.side]) / prob
            total += prob * _entropy_50_digits(_qubit_spectrum_50_digits(reduced))
    return total


def mutual_information_50_digits(eff: EffectiveParams, t: float) -> float:
    """I(rho) = S(rho_a) + S(rho_b) - S(rho) of the Gibbs state of ``eff`` at
    T (K), in bits, in 50-digit mpmath arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        rho, p = _state_50_digits(eff, t)
        return float(sum(_marginal_entropies_50_digits(rho).values()) - _entropy_50_digits(p))


def conditional_entropy_50_digits(eff: EffectiveParams, t: float, m: Measurement) -> float:
    """Measured conditional entropy sum_k p_k S(rho_unmeasured|k) of the Gibbs
    state of ``eff`` at T (K) for the measurement ``m``, in bits, in 50-digit
    mpmath arithmetic."""
    import mpmath

    with mpmath.workdps(50):
        return float(_conditional_entropy_50_digits(_state_50_digits(eff, t)[0], m))


def discord_50_digits(eff: EffectiveParams, t: float, m: Measurement) -> float:
    """I(rho) - S(rho_unmeasured) + the conditional entropy for ``m``, of the
    Gibbs state of ``eff`` at T (K), in 50-digit mpmath arithmetic: the
    discord that ``m`` measures, the discord itself where ``m`` is optimal."""
    import mpmath

    with mpmath.workdps(50):
        rho, p = _state_50_digits(eff, t)
        marginals = _marginal_entropies_50_digits(rho)
        mi = sum(marginals.values()) - _entropy_50_digits(p)
        return float(mi - marginals[_OTHER[m.side]] + _conditional_entropy_50_digits(rho, m))


def x_conditional_entropy_50_digits(rho, side: str, thetas) -> list:
    """Measured conditional entropy of an X state ``rho`` (4 x 4, taken as its
    exact float entries), the qubit ``side`` measured at each polar angle
    theta of its X frame (the azimuth of ``correlations._maximize_x``), in bits,
    in 50-digit mpmath arithmetic, as :func:`_conditional_entropy_50_digits`
    takes it (rho as it is, not renormalized).  With a3 and b3 the z Bloch
    components of the measured and the other qubit, T33 = rho_11 - rho_22 -
    rho_33 + rho_44 and s = 2 (|rho_14| + |rho_23|), the outcome +-1 has
    weight w = (tr rho +- a3 cos theta)/2 and leaves eigenvalues (2w +- r)/4,
    r = sqrt(s^2 sin^2 theta + (b3 +- T33 cos theta)^2); the conditional
    entropy is sum w log2 w - sum lam log2 lam.  Returns mpmath numbers."""
    import mpmath

    with mpmath.workdps(50):
        p = [mpmath.mpf(float(rho[k, k].real)) for k in range(4)]
        s = 2 * sum(abs(mpmath.mpc(complex(rho[i, j]))) for i, j in ((0, 3), (1, 2)))
        z1, z2 = p[0] + p[1] - p[2] - p[3], p[0] - p[1] + p[2] - p[3]
        a3, b3 = (z1, z2) if side == "first" else (z2, z1)
        t33 = p[0] - p[1] - p[2] + p[3]
        out = []
        for theta in thetas:
            c, n = mpmath.cos(mpmath.mpf(theta)), mpmath.sin(mpmath.mpf(theta))
            total = mpmath.mpf(0)
            for sign in (1, -1):
                w = (sum(p) + sign * a3 * c) / 2
                r = mpmath.sqrt((s * n) ** 2 + (b3 + sign * t33 * c) ** 2)
                total += _entropy_50_digits([(2 * w + r) / 4, (2 * w - r) / 4])
                total -= _entropy_50_digits([w])
            out.append(total)
        return out


def eof_50_digits(c: float) -> float:
    """Entanglement of formation H(u) of concurrence C, in bits, in 50-digit
    mpmath arithmetic: u = C^2 / (2 (1 + sqrt(1 - C^2))), the smaller
    probability (1 - sqrt(1 - C^2))/2 without its cancellation, and
    ln(1 - u) as log1p(-u): at 50 digits 1 - u rounds to 1 for u below 1e-50."""
    import mpmath

    with mpmath.workdps(50):
        c = mpmath.mpf(c)
        u = c * c / (2 * (1 + mpmath.sqrt(1 - c * c)))
        if u == 0:
            return 0.0
        return float(-(u * mpmath.log(u) + (1 - u) * mpmath.log1p(-u)) / mpmath.log(2))


def concurrences_50_digits(eff: EffectiveParams, temperatures) -> list[float]:
    """Wootters' concurrence of the Gibbs state of ``eff`` at each temperature
    (K; T = 0 the uniform mixture over the ground space), in 50-digit mpmath
    arithmetic from the exact float coefficients: the descending square roots
    l of the spectrum of sqrt(rho) (sy x sy) rho (sy x sy) sqrt(rho), which is
    real symmetric for the real Gibbs state, give max(0, l1 - l2 - l3 - l4)."""
    import mpmath

    with mpmath.workdps(50):
        _, v, weights = _gibbs_50_digits(eff)
        flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        out = []
        for t in temperatures:
            sqrt_rho = v * mpmath.diag([mpmath.sqrt(x) for x in weights(t)]) * v.T
            r = sqrt_rho * flip * sqrt_rho * sqrt_rho * flip * sqrt_rho
            mu = mpmath.eigsy((r + r.T) / 2, eigvals_only=True)
            lam = sorted((mpmath.sqrt(max(mpmath.mpf(0), mu[k])) for k in range(4)),
                         reverse=True)
            out.append(float(max(mpmath.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])))
        return out


def spectral_concurrence(rho) -> float:
    """Concurrence of any state, X-shaped or not, by Wootters' spectral path
    through sqrt(rho): C = max(0, l1 - l2 - l3 - l4) over the descending
    singular values l of sqrt(rho) (sy x sy) sqrt(rho)*, whose squares are the
    eigenvalues of sqrt(rho) (sy x sy) rho* (sy x sy) sqrt(rho)."""
    w, v = np.linalg.eigh(_require_state([rho])[0][0])
    sqrt_rho = (v * np.sqrt(np.maximum(0.0, w))) @ v.conj().T
    yy = np.kron(qmath.SIGMA_Y, qmath.SIGMA_Y)
    lam = np.linalg.svd(sqrt_rho @ yy @ sqrt_rho.conj(), compute_uv=False)
    return float(min(1.0, max(0.0, lam[0] - lam[1] - lam[2] - lam[3])))

"""Independent numpy reference for the jcqsim per-point chain.

Built from the formulas in PAPER.md alone, sharing no code with the
package: control maps, the 4x4 Hamiltonian, the Gibbs state from its own
eigendecomposition, mutual information, Wootters concurrence (spectral and
X closed form), entanglement of formation, the closed-form ground-state
discord and discord by a dense measurement grid.  Energies are in kelvin,
entropies in bits, and the measured qubit is the first one.
"""

from __future__ import annotations

import math

import numpy as np

E_CHARGE = 1.602176634e-19    # C
K_B = 1.380649e-23            # J/K
PHI_0 = 2.067833848e-15       # Wb

DEVICE_DEFAULTS = {
    "l": 30e-9, "c": 1e-6, "c_j0": 1e-5, "e_j0": 0.02, "n": 0,
    "v_x1": 20e-6, "v_x2": 20e-6, "phi_e": 0.5, "phi_x1": 0.0, "phi_x2": 0.0,
    "xi": 1.0,
}

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
YY = np.kron(SY, SY)

# Entries of a two-qubit matrix that vanish for an X-shaped state.
X_OFF = np.ones((4, 4), dtype=bool)
for _i in range(4):
    X_OFF[_i, _i] = X_OFF[_i, 3 - _i] = False
X_TOL = 1e-12
# Eigenvalues this close to the lowest one (relative to the spectral
# scale) form the ground space in the T -> 0 limit.
GROUND_RTOL = 1e-9


def control_maps(**device) -> tuple[float, float, float, float, float]:
    """(eps1, eps2, ej1, ej2, j12) in kelvin for device controls (SI units)."""
    p = {**DEVICE_DEFAULTS, **device}
    ec = 2.0 * E_CHARGE**2 / (p["c"] + p["c_j0"]) / K_B
    eps = [(p["c"] * p[v] / E_CHARGE - (2 * p["n"] + 1)) * ec / 2.0 for v in ("v_x1", "v_x2")]
    cos_e = math.cos(math.pi * p["phi_e"])
    ej = [p["xi"] * 2.0 * p["e_j0"] * math.cos(math.pi * p[f]) * cos_e for f in ("phi_x1", "phi_x2")]
    j12 = (
        -4.0 * math.pi**2 * p["l"] * (p["e_j0"] * K_B) ** 2 / PHI_0**2 / K_B
        * math.cos(math.pi * p["phi_x1"]) * math.cos(math.pi * p["phi_x2"])
        * math.sin(math.pi * p["phi_e"]) ** 2
    )
    return eps[0], eps[1], ej[0], ej[1], j12


def hamiltonian(eps1, eps2, ej1=0.0, ej2=0.0, j12=0.0) -> np.ndarray:
    return (
        eps1 * np.kron(SZ, I2) + eps2 * np.kron(I2, SZ)
        - ej1 * np.kron(SX, I2) - ej2 * np.kron(I2, SX)
        + j12 * np.kron(SX, SX)
    )


def gibbs(h: np.ndarray, t: float) -> np.ndarray:
    """exp(-H/T)/Z; at T = 0 the uniform mixture over the ground space."""
    w, v = np.linalg.eigh(h)
    if t == 0.0:
        weights = (w - w[0] <= GROUND_RTOL * max(1.0, float(np.abs(w).max()))).astype(float)
    else:
        weights = np.exp(-(w - w[0]) / t)
    rho = (v * (weights / weights.sum())) @ v.conj().T
    return 0.5 * (rho + rho.conj().T)


def device_state(t: float, **device) -> np.ndarray:
    return gibbs(hamiltonian(*control_maps(**device)), t)


def symmetric_state(eps: float, j: float, t: float) -> np.ndarray:
    return gibbs(hamiltonian(eps, eps, 0.0, 0.0, j), t)


def entropy(rho: np.ndarray) -> float:
    w = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
    w = w[w > 0.0]
    return float(-(w * np.log2(w)).sum())


def reduced(rho: np.ndarray, keep: int) -> np.ndarray:
    r = rho.reshape(2, 2, 2, 2)
    return np.trace(r, axis1=1, axis2=3) if keep == 0 else np.trace(r, axis1=0, axis2=2)


def mutual_information(rho: np.ndarray) -> float:
    return max(0.0, entropy(reduced(rho, 0)) + entropy(reduced(rho, 1)) - entropy(rho))


def is_x_state(rho: np.ndarray) -> bool:
    return float(np.abs(rho[X_OFF]).max()) <= X_TOL


def concurrence_x(rho: np.ndarray) -> float:
    """X closed form 2 max(0, |r14| - sqrt(r22 r33), |r23| - sqrt(r11 r44))."""
    r = rho
    c1 = abs(r[0, 3]) - math.sqrt(max(0.0, r[1, 1].real * r[2, 2].real))
    c2 = abs(r[1, 2]) - math.sqrt(max(0.0, r[0, 0].real * r[3, 3].real))
    return min(1.0, 2.0 * max(0.0, c1, c2))


def concurrence_spectral(rho: np.ndarray) -> float:
    """Wootters: max(0, l1 - l2 - l3 - l4) over the singular values of
    sqrt(rho) sqrt(rho~), rho~ = (sy x sy) rho* (sy x sy)."""
    w, v = np.linalg.eigh(rho)
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    lam = np.linalg.svd(root @ (YY @ root.conj() @ YY), compute_uv=False)
    return min(1.0, max(0.0, float(lam[0] - lam[1:].sum())))


def concurrence(rho: np.ndarray) -> float:
    return concurrence_x(rho) if is_x_state(rho) else concurrence_spectral(rho)


def binary_entropy(x: float) -> float:
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -(x * math.log2(x) + (1.0 - x) * math.log2(1.0 - x))


def eof_from_concurrence(c: float) -> float:
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - c * c))))


def ground_state_discord(eps: float, j: float) -> float:
    """-u log2 u - v log2 v with u = (2eps+lam)^2/zeta, v = j^2/zeta."""
    lam = math.sqrt(4.0 * eps * eps + j * j)
    a = (2.0 * eps + lam) ** 2
    zeta = j * j + a
    return sum(-x * math.log2(x) for x in (a / zeta, j * j / zeta) if x > 0.0)


class DiscordGrid:
    """Discord with the measurement optimisation replaced by a dense grid.

    Directions cover theta in [0, pi] (n_theta points, poles included) and
    phi in [0, 2 pi) (n_phi points).  Each direction n gives the projectors
    (I +- n.sigma)/2 on the first qubit; the post-measurement states of the
    second qubit are partial traces of the explicit projector products.
    """

    def __init__(self, n_theta: int = 121, n_phi: int = 240):
        self.shape = (n_theta, n_phi)
        th = np.linspace(0.0, math.pi, n_theta)[:, None]
        ph = (2.0 * math.pi * np.arange(n_phi) / n_phi)[None, :]
        n = np.stack(np.broadcast_arrays(
            np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)), -1).reshape(-1, 3)
        ndotsigma = np.einsum("nk,kij->nij", n, np.stack([SX, SY, SZ]))
        self.projectors = np.concatenate([0.5 * (I2 + ndotsigma), 0.5 * (I2 - ndotsigma)])

    def conditional_entropy(self, rho: np.ndarray) -> np.ndarray:
        """sum_k p_k S(rho_B|k) on the grid, shape (n_theta, n_phi)."""
        r = rho.reshape(2, 2, 2, 2)
        post = np.einsum("nca,aicj->nij", self.projectors, r)
        p = np.einsum("nii->n", post).real
        safe = np.where(p > 1e-15, p, 1.0)
        w = np.clip(np.linalg.eigvalsh(post / safe[:, None, None]), 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            s = -np.where(w > 0.0, w * np.log2(w), 0.0).sum(-1)
        terms = np.where(p > 1e-15, p * s, 0.0)
        half = terms.size // 2
        return (terms[:half] + terms[half:]).reshape(self.shape)

    def discord(self, rho: np.ndarray) -> tuple[float, float]:
        """(grid discord, resolution bound).

        The grid value bounds the true discord from above.  The bound is the
        largest rise of the conditional entropy from the grid minimum to its
        neighbours: for a smooth minimum lying inside a grid cell the grid
        value overshoots by no more than that.
        """
        f = self.conditional_entropy(rho)
        i, k = np.unravel_index(int(np.argmin(f)), f.shape)
        best = float(f[i, k])
        nt, nphi = f.shape
        rise = max(
            float(f[ii, kk]) - best
            for ii in (max(i - 1, 0), i, min(i + 1, nt - 1))
            for kk in ((k - 1) % nphi, k, (k + 1) % nphi)
        )
        classical = entropy(reduced(rho, 1)) - best
        return max(0.0, mutual_information(rho) - classical), rise

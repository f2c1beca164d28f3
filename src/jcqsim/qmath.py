"""Dense complex linear algebra for single- and two-qubit operators.

Matrices are plain complex numpy arrays, or real ones where the package
builds them real (a Gibbs state of a real Hamiltonian) and a function keeps
them so; only the 2x2 and 4x4 sizes needed by the rest of the package are
supported.  The two-qubit basis order is
|00>, |01>, |10>, |11> with sigma_z|0> = +|0>.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotAStateError, NotHermitianError

HERMITICITY_RTOL = 1e-10
# Eigenvalues of nominally PSD matrices this far below zero are round-off.
EIGENVALUE_CLAMP = -1e-12


def _require_spectra(w: np.ndarray) -> None:
    """Check that each row of w (N x d) is a density matrix's spectrum: each
    eigenvalue at least EIGENVALUE_CLAMP, summing to 1 within 1e-9, finite."""
    if np.count_nonzero(w < EIGENVALUE_CLAMP):
        raise NotAStateError(f"state has negative eigenvalue {w.min():.3e}")
    if np.count_nonzero(np.abs(w.sum(1) - 1.0) > 1e-9):
        raise NotAStateError("state trace is not 1")
    if np.count_nonzero(np.isfinite(w)) < w.size:
        raise NotAStateError("state has a non-finite eigenvalue")


IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square (2x2 or 4x4) and Hermitian, or a stack
    (... x n x n) of such matrices, each within HERMITICITY_RTOL of its
    Frobenius norm (at least 1); return it as a complex array."""
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or a.shape[-1] not in (2, 4):
        raise DimensionError(f"{name} must be 2x2 or 4x4, got shape {a.shape}")
    flat = a.reshape(a.shape[:-2] + (a.shape[-1] ** 2,))
    skew = (a - a.conj().swapaxes(-1, -2)).reshape(flat.shape)
    scale = np.maximum(1.0, np.vecdot(flat, flat).real)
    if np.count_nonzero(np.vecdot(skew, skew).real > HERMITICITY_RTOL**2 * scale):
        raise NotHermitianError(f"{name} is not Hermitian within tolerance")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product of two single-qubit (2x2) operators."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != (2, 2) or b.shape != (2, 2):
        raise DimensionError(
            f"kron expects two 2x2 operators, got {a.shape} and {b.shape}"
        )
    return np.kron(a, b)


# Flat indices of the two terms of each entry of rho_a, then rho_b:
# rho_a[a, c] = sum_k rho[2a + k, 2c + k], rho_b[b, d] = sum_k rho[2k + b, 2k + d].
_TRACE_TERMS = np.array([[0, 2, 8, 10, 0, 1, 4, 5], [5, 7, 13, 15, 10, 11, 14, 15]])


def reduced_states(rho) -> np.ndarray:
    """Both single-qubit reduced states of a two-qubit operator, or of each of
    a stack (... x 4 x 4) of them: ... x 2 x 2 x 2, the first qubit's first;
    real for a real operator, complex otherwise."""
    rho = np.asarray(rho)
    rho = rho.astype(np.result_type(rho.dtype, float), copy=False)
    if rho.shape[-2:] != (4, 4):
        raise DimensionError(f"partial_trace expects 4x4 matrices, got {rho.shape}")
    terms = rho.reshape(rho.shape[:-2] + (16,))[..., _TRACE_TERMS]
    return (terms[..., 0, :] + terms[..., 1, :]).reshape(rho.shape[:-2] + (2, 2, 2))


def partial_trace(rho, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator (or of each of a stack),
    real for a real operator; ``keep`` names the surviving subsystem,
    "first" or "second"."""
    if keep not in ("first", "second"):
        raise DimensionError(f"keep must be 'first' or 'second', got {keep!r}")
    return reduced_states(rho)[..., 0 if keep == "first" else 1, :, :]

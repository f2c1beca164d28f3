"""Dense complex linear algebra for single- and two-qubit operators.

Matrices are plain complex numpy arrays; only the 2x2 and 4x4 sizes needed
by the rest of the package are supported.  The two-qubit basis order is
|00>, |01>, |10>, |11> with sigma_z|0> = +|0>.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError, NotHermitianError

HERMITICITY_RTOL = 1e-10
# Eigenvalues of nominally PSD matrices this far below zero are round-off.
EIGENVALUE_CLAMP = -1e-12

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z):
    _m.setflags(write=False)


def _as_matrix(a, name: str = "matrix") -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] not in (2, 4):
        raise DimensionError(f"{name} must be 2x2 or 4x4, got shape {a.shape}")
    return a


def require_hermitian(a, name: str = "matrix") -> np.ndarray:
    """Validate that ``a`` is square (2x2 or 4x4) and Hermitian; return it."""
    a = _as_matrix(a, name)
    scale = max(1.0, float(np.linalg.norm(a)))
    if float(np.linalg.norm(a - a.conj().T)) > HERMITICITY_RTOL * scale:
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


def partial_trace(rho, keep: str) -> np.ndarray:
    """Trace out one qubit of a two-qubit operator.

    ``keep`` selects the surviving subsystem ("first" or "second").
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise DimensionError(f"partial_trace expects a 4x4 matrix, got {rho.shape}")
    r4 = rho.reshape(2, 2, 2, 2)
    if keep == "first":
        return np.einsum("abcb->ac", r4)
    if keep == "second":
        return np.einsum("abad->bd", r4)
    raise DimensionError(f"keep must be 'first' or 'second', got {keep!r}")

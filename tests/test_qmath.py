import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jcqsim import qmath
from jcqsim.device import ThermalSpec, gibbs_state
from jcqsim.errors import DimensionError, NotHermitianError

from helpers import partial_trace_bruteforce, random_hermitian, bell_phi_plus

finite = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)


@st.composite
def hermitian_matrices(draw, dim=4):
    n = dim * dim
    re = np.array(draw(st.lists(finite, min_size=n, max_size=n))).reshape(dim, dim)
    im = np.array(draw(st.lists(finite, min_size=n, max_size=n))).reshape(dim, dim)
    a = re + 1j * im
    return 0.5 * (a + a.conj().T)


@st.composite
def complex_2x2(draw):
    re = np.array(draw(st.lists(finite, min_size=4, max_size=4))).reshape(2, 2)
    im = np.array(draw(st.lists(finite, min_size=4, max_size=4))).reshape(2, 2)
    return re + 1j * im


class TestKron:
    def test_identity(self):
        assert_allclose(qmath.kron(qmath.IDENTITY_2, qmath.IDENTITY_2), np.eye(4))

    def test_sz_identity_diagonal(self):
        assert_allclose(
            qmath.kron(qmath.SIGMA_Z, qmath.IDENTITY_2), np.diag([1, 1, -1, -1])
        )

    def test_sx_sx_antidiagonal(self):
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        assert_allclose(qmath.kron(qmath.SIGMA_X, qmath.SIGMA_X), expected)

    def test_rejects_wrong_shape(self):
        with pytest.raises(DimensionError):
            qmath.kron(np.eye(4), np.eye(2))

    @given(a=complex_2x2(), b=complex_2x2(), c=complex_2x2())
    def test_bilinear(self, a, b, c):
        left = qmath.kron(a + b, c)
        right = qmath.kron(a, c) + qmath.kron(b, c)
        assert np.abs(left - right).max() <= 1e-13


class TestRequireHermitian:
    def test_returns_hermitian_input_as_complex(self):
        out = qmath.require_hermitian(np.array([[0, 1], [1, 0]]))
        assert out.dtype == complex
        assert np.array_equal(out, qmath.SIGMA_X)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            qmath.require_hermitian(np.array([[0, 1], [0, 0]], dtype=complex))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 4), (4,), (8, 8)])
    def test_rejects_unsupported_shapes(self, shape):
        with pytest.raises(DimensionError):
            qmath.require_hermitian(np.zeros(shape, dtype=complex))

    def test_tolerance_scales_with_norm(self):
        skew = np.array([[0, 1e-5], [0, 0]], dtype=complex)
        qmath.require_hermitian(1e6 * qmath.SIGMA_X + skew)
        with pytest.raises(NotHermitianError):
            qmath.require_hermitian(qmath.SIGMA_X + skew)

    @given(h=hermitian_matrices())
    def test_accepts_every_hermitian_matrix(self, h):
        assert np.array_equal(qmath.require_hermitian(h), h)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        assert_allclose(
            qmath.partial_trace(bell_phi_plus(), "first"), np.eye(2) / 2, atol=1e-14
        )

    def test_product_state_factorizes(self):
        rng = np.random.default_rng(5)
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 2)
        assert_allclose(
            qmath.partial_trace(np.kron(a, b), "first"),
            a * np.trace(b),
            atol=1e-12,
        )
        assert_allclose(
            qmath.partial_trace(np.kron(a, b), "second"),
            b * np.trace(a),
            atol=1e-12,
        )

    def test_rejects_2x2(self):
        with pytest.raises(DimensionError):
            qmath.partial_trace(np.eye(2), "first")

    @given(h=hermitian_matrices())
    def test_matches_bruteforce_and_preserves_trace(self, h):
        for keep in ("first", "second"):
            reduced = qmath.partial_trace(h, keep)
            assert np.abs(reduced - partial_trace_bruteforce(h, keep)).max() <= 1e-13
            assert abs(np.trace(reduced) - np.trace(h)) <= 1e-12


def test_degenerate_eigenspace_downstream_quantities_are_basis_independent():
    # sx x sx has doubly degenerate eigenvalues -1 and 1; any eigenbasis of
    # the eigenspaces must give the same Gibbs state,
    # exp(-beta H) / Z = (cosh(beta) I - sinh(beta) H) / (4 cosh(beta)).
    h = qmath.kron(qmath.SIGMA_X, qmath.SIGMA_X)
    beta = 0.9
    rho = gibbs_state(h, ThermalSpec(1.0 / beta))
    expected = (np.cosh(beta) * np.eye(4) - np.sinh(beta) * h) / (4.0 * np.cosh(beta))
    assert_allclose(rho, expected, atol=1e-12)

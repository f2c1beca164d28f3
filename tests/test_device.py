import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jcqsim import device, qmath
from jcqsim.device import (
    CONSTANTS,
    MAX_ENERGY_K,
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    build_hamiltonian,
    charge_energy,
    effective_params,
    epsilon_from_voltage,
    gibbs_state,
    thermal_state,
)
from jcqsim.errors import (
    DimensionError,
    InvalidParameterError,
    NotHermitianError,
)

from helpers import random_hermitian
from oracles import (
    UnsupportedRegimeError,
    closed_form_thermal,
    interbit_coupling,
    intrabit_coupling,
    scalar_cos_pi,
    scalar_sin_pi,
)


class TestConstants:
    def test_values_are_pinned(self):
        assert CONSTANTS.e == 1.602176634e-19
        assert CONSTANTS.k_b == 1.380649e-23
        assert CONSTANTS.phi_0 == 2.067833848e-15


class TestDeviceParams:
    def test_defaults_are_valid(self):
        p = DeviceParams()
        assert p.l == 30e-9 and p.c == 1e-6 and p.c_j0 == 1e-5

    @pytest.mark.parametrize("field", ["l", "c", "c_j0"])
    def test_nonpositive_scale_rejected(self, field):
        with pytest.raises(InvalidParameterError):
            DeviceParams(**{field: 0.0})

    def test_negative_josephson_energy_rejected(self):
        with pytest.raises(InvalidParameterError):
            DeviceParams(e_j0=-0.1)

    @pytest.mark.parametrize("n", [0.5, -2.25, 1e6 - 0.5])
    def test_non_integer_cooper_pair_offset_rejected(self, n):
        with pytest.raises(InvalidParameterError, match="n must be an integer"):
            DeviceParams(n=n)

    @pytest.mark.parametrize("n", [0, -3, 2.0, 1e6])
    def test_integer_cooper_pair_offset_accepted(self, n):
        assert DeviceParams(n=n).n == n


class TestChargeEnergy:
    def test_paper_default_capacitances(self):
        # independent arithmetic for 2 e^2 / ((C + C_J0) k_B)
        expected = 2.0 * (1.602176634e-19) ** 2 / 1.1e-5 / 1.380649e-23
        assert_allclose(charge_energy(DeviceParams()), expected, rtol=1e-12)

    def test_monotone_in_total_capacitance(self):
        small = charge_energy(DeviceParams(c_j0=1e-5))
        large = charge_energy(DeviceParams(c_j0=1e-2))
        assert large < small

    def test_doubling_capacitance_halves_energy(self):
        base = DeviceParams(c=1e-6, c_j0=1e-5)
        doubled = DeviceParams(c=2e-6, c_j0=2e-5)
        assert_allclose(charge_energy(doubled), charge_energy(base) / 2, rtol=1e-12)


class TestEpsilonFromVoltage:
    def test_charge_degeneracy_point(self):
        p = DeviceParams(n=1)
        v = CONSTANTS.e * 3 / p.c
        assert epsilon_from_voltage(DeviceParams(n=1, v_x1=v), 1) == pytest.approx(0.0, abs=1e-18)

    def test_unit_bracket(self):
        # C V / e = 3 with n = 0 makes the bracket 2, so eps = E_c
        p = DeviceParams(v_x1=3 * CONSTANTS.e / 1e-6)
        assert_allclose(epsilon_from_voltage(p, 1), charge_energy(p), rtol=1e-12)

    def test_paper_default_voltage(self):
        p = DeviceParams()
        expected = (1e-6 * 20e-6 / 1.602176634e-19 - 1.0) * charge_energy(p) / 2.0
        assert_allclose(epsilon_from_voltage(p, 1), expected, rtol=1e-12)
        assert_allclose(epsilon_from_voltage(p, 2), expected, rtol=1e-12)

    def test_rejects_bad_qubit_index(self):
        with pytest.raises(InvalidParameterError):
            epsilon_from_voltage(DeviceParams(), 3)


class TestIntrabitCoupling:
    def test_half_flux_quantum_through_inductance_is_exactly_zero(self):
        for phi_x in (0.0, 0.3, 0.77):
            p = DeviceParams(phi_e=0.5, phi_x1=phi_x)
            assert intrabit_coupling(p, 1) == 0.0

    def test_frustrated_squid_is_zero(self):
        p = DeviceParams(phi_e=0.0, phi_x1=0.5)
        assert intrabit_coupling(p, 1) == 0.0

    def test_unfrustrated_maximum(self):
        p = DeviceParams(phi_e=0.0, phi_x1=0.0, xi=1.0)
        assert_allclose(intrabit_coupling(p, 1), 2 * p.e_j0, rtol=1e-15)


class TestInterbitCoupling:
    def test_decoupled_squid(self):
        assert interbit_coupling(DeviceParams(phi_x1=0.5)) == 0.0

    def test_zero_external_flux(self):
        assert interbit_coupling(DeviceParams(phi_e=0.0)) == 0.0

    def test_paper_defaults_match_direct_formula(self):
        p = DeviceParams()
        ej_joule = 0.02 * 1.380649e-23
        expected = -(4 * ej_joule**2 * np.pi**2 * 30e-9 / (2.067833848e-15) ** 2) / 1.380649e-23
        assert_allclose(interbit_coupling(p), expected, rtol=1e-12)
        assert interbit_coupling(p) < 0

    def test_exact_two_periodicity(self):
        # dyadic flux values survive the +2 shift exactly, so the coupling
        # must be bitwise periodic
        for k in range(0, 512, 37):
            phi = k / 256.0
            a = interbit_coupling(DeviceParams(phi_x1=phi))
            b = interbit_coupling(DeviceParams(phi_x1=phi + 2.0))
            assert a == b
            a = interbit_coupling(DeviceParams(phi_x2=phi))
            b = interbit_coupling(DeviceParams(phi_x2=phi + 2.0))
            assert a == b

    def test_sign_flip_under_unit_shift(self):
        for phi in (0.0, 0.125, 0.3, 0.75):
            a = interbit_coupling(DeviceParams(phi_x1=phi))
            b = interbit_coupling(DeviceParams(phi_x1=phi + 1.0))
            assert_allclose(b, -a, rtol=1e-12, atol=1e-25)


class TestBuildHamiltonian:
    def test_pure_field_term(self):
        h = build_hamiltonian(EffectiveParams(eps1=1.0, eps2=1.0))
        assert_allclose(h, np.diag([2.0, 0.0, 0.0, -2.0]), atol=1e-15)

    def test_pure_coupling_term(self):
        h = build_hamiltonian(EffectiveParams(eps1=0.0, eps2=0.0, j12=1.0))
        assert_allclose(h, qmath.kron(qmath.SIGMA_X, qmath.SIGMA_X), atol=1e-15)

    def test_traceless_and_hermitian(self):
        eff = EffectiveParams(eps1=0.4, eps2=-1.1, ej1=0.2, ej2=0.7, j12=-0.9)
        h = build_hamiltonian(eff)
        assert abs(np.trace(h)) <= 1e-14
        assert np.abs(h - h.conj().T).max() <= 1e-14

    @given(
        eps1=st.floats(-5.0, 5.0), eps2=st.floats(-5.0, 5.0),
        ej1=st.floats(-5.0, 5.0), ej2=st.floats(-5.0, 5.0),
        j12=st.floats(-5.0, 5.0),
    )
    def test_matches_pauli_kron_sum(self, eps1, eps2, ej1, ej2, j12):
        # distinct per-qubit terms, so swapping the qubits' roles shows up
        assume(abs(eps1 - eps2) > 1e-3 and abs(ej1 - ej2) > 1e-3)
        sx, sz, i2 = qmath.SIGMA_X, qmath.SIGMA_Z, qmath.IDENTITY_2
        expected = (
            eps1 * np.kron(sz, i2) + eps2 * np.kron(i2, sz)
            - ej1 * np.kron(sx, i2) - ej2 * np.kron(i2, sx)
            + j12 * np.kron(sx, sx)
        )
        h = build_hamiltonian(EffectiveParams(eps1, eps2, ej1, ej2, j12))
        assert np.abs(h - expected).max() <= 1e-15

    @pytest.mark.parametrize("eps,j", [(1.0, 2.0), (0.5, -3.0), (2.0, 0.3)])
    def test_symmetric_spectrum(self, eps, j):
        h = build_hamiltonian(EffectiveParams.symmetric(eps, j))
        lam = math.hypot(2 * eps, j)
        w = np.linalg.eigvalsh(h)
        assert_allclose(w, sorted([-lam, -abs(j), abs(j), lam]), atol=1e-12)


class TestGibbsState:
    def test_infinite_temperature_limit(self):
        h = build_hamiltonian(EffectiveParams.symmetric(1.0, 2.0))
        t = 1e12 * np.linalg.norm(h)
        rho = gibbs_state(h, ThermalSpec(t))
        assert np.abs(rho - np.eye(4) / 4).max() <= 1e-9

    def test_zero_temperature_nondegenerate_is_pure(self):
        h = build_hamiltonian(EffectiveParams.symmetric(1.0, 2.0))
        rho = gibbs_state(h, ThermalSpec(0.0))
        assert_allclose(np.trace(rho @ rho).real, 1.0, atol=1e-12)

    def test_zero_temperature_degenerate_is_uniform_mixture(self):
        # eps = 0 leaves a twofold-degenerate ground space
        h = build_hamiltonian(EffectiveParams.symmetric(0.0, 2.0))
        rho = gibbs_state(h, ThermalSpec(0.0))
        assert_allclose(np.trace(rho @ rho).real, 0.5, atol=1e-10)
        w = np.linalg.eigvalsh(rho)
        assert_allclose(w, [0.0, 0.0, 0.5, 0.5], atol=1e-12)

    def test_negative_temperature_rejected(self):
        with pytest.raises(InvalidParameterError):
            ThermalSpec(-0.1)

    def test_unit_trace_psd_and_commutes(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            eff = EffectiveParams(*rng.uniform(-3, 3, size=5))
            h = build_hamiltonian(eff)
            rho = gibbs_state(h, ThermalSpec(rng.uniform(0.05, 5.0)))
            assert abs(np.trace(rho).real - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-13
            comm = rho @ h - h @ rho
            assert np.linalg.norm(comm) <= 1e-10 * max(1.0, np.linalg.norm(h))

    @pytest.mark.parametrize("t", [0.0, 0.3])
    def test_zero_hamiltonian_is_maximally_mixed(self, t):
        rho = gibbs_state(np.zeros((4, 4), dtype=complex), ThermalSpec(t))
        assert_allclose(rho, np.eye(4) / 4, atol=1e-15)

    def test_diagonal_hamiltonian_gives_boltzmann_weights(self):
        energies = np.array([-2.0, 0.0, 0.0, 2.0])
        rho = gibbs_state(np.diag(energies).astype(complex), ThermalSpec(0.5))
        weights = np.exp(-energies / 0.5)
        assert_allclose(rho, np.diag(weights / weights.sum()), atol=1e-15)

    def test_eigenvectors_carry_boltzmann_factors(self):
        rng = np.random.default_rng(2)
        h = random_hermitian(rng)
        beta = 0.7
        rho = gibbs_state(h, ThermalSpec(1.0 / beta))
        w, v = np.linalg.eigh(h)
        z = np.exp(-beta * w).sum()
        for k in range(4):
            assert_allclose(
                rho @ v[:, k], np.exp(-beta * w[k]) / z * v[:, k], atol=1e-12
            )

    def test_deterministic(self):
        h = random_hermitian(np.random.default_rng(11))
        first = gibbs_state(h, ThermalSpec(0.8))
        second = gibbs_state(h, ThermalSpec(0.8))
        assert np.array_equal(first, second)

    def test_rejects_non_hermitian_hamiltonian(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 1] = 1.0
        with pytest.raises(NotHermitianError):
            gibbs_state(h, ThermalSpec(1.0))

    def test_matches_closed_form_at_reference_point(self):
        eff = EffectiveParams.symmetric(1.0, 2.0)
        rho = gibbs_state(build_hamiltonian(eff), ThermalSpec(0.5))
        assert np.abs(rho - closed_form_thermal(eff, 0.5)).max() <= 1e-10


class TestThermalStates:
    """The stacked builder gives each state exactly what it gets alone."""

    def test_each_state_equals_gibbs_state(self):
        rng = np.random.default_rng(12)
        params = [
            EffectiveParams(0.0, 0.0),              # H = 0: all four levels are ground
            EffectiveParams(0.0, 0.0, j12=1.0),     # sx x sx: a twofold ground space
            EffectiveParams.symmetric(1.0, 2.0),
            DeviceParams(),
            DeviceParams(v_x1=3e-5, v_x2=7e-5, phi_e=0.3, phi_x1=0.2),
            *(EffectiveParams(*rng.uniform(-3.0, 3.0, size=5)) for _ in range(11)),
        ]
        effs = [p if isinstance(p, EffectiveParams) else effective_params(p) for p in params]
        table = [device._row(eff) for eff in effs]
        # The stack is built exactly real symmetric, so _thermal_stack does not
        # check it, and diagonalizes it in real arithmetic.
        h = device._hamiltonians(table)
        assert h.dtype == float
        assert np.array_equal(h, h.swapaxes(1, 2))
        for temperature in (0.0, 5e-324, 1e-3, 0.5, 40.0):
            temperatures = [temperature] * len(params)
            # A temperature sweep mixes T = 0 and T > 0 in one stack.
            temperatures[::3] = [0.0] * len(temperatures[::3])
            stack, spectra, vectors = device._thermal_stack(table, temperatures)
            assert stack.shape == (len(params), 4, 4) and stack.dtype == float
            assert spectra.shape == (len(params), 4)
            assert vectors.shape == (len(params), 4, 4) and vectors.dtype == float
            for p, eff, row, t, rho, w, v in zip(params, effs, table, temperatures, stack,
                                                 spectra, vectors):
                alone, w_alone, v_alone = device._thermal_stack([row], [t])
                assert np.array_equal(rho, alone[0]) and np.array_equal(w, w_alone[0])
                assert np.array_equal(v, v_alone[0])
                # The state is V P V^T, P the diagonal of its spectrum.
                assert np.abs((v * w) @ v.T - rho).max() <= 1e-15
                assert np.array_equal(rho, thermal_state(p, t))
                # The complex definitional state, to round-off, and its spectrum
                # (w is in the order of the energy levels).
                direct = gibbs_state(build_hamiltonian(eff), ThermalSpec(t))
                assert np.abs(rho - direct).max() <= 1e-15
                assert np.abs(np.sort(w) - np.linalg.eigvalsh(direct)).max() <= 4e-15
                assert w.sum() == pytest.approx(1.0, abs=1e-15)

    def test_empty_stack(self):
        states, spectra, vectors = device._thermal_stack([], [])
        assert (states.shape, spectra.shape, vectors.shape) == ((0, 4, 4), (0, 4), (0, 4, 4))

    def test_random_hamiltonians_equal_gibbs_state(self):
        rng = np.random.default_rng(13)
        h = np.array([random_hermitian(rng) for _ in range(9)])
        temperatures = np.array([0.0, 0.2, 1.0] * 3)
        stack = device._gibbs_states(*np.linalg.eigh(h), temperatures[:, None])[0]
        for one, t, rho in zip(h, temperatures, stack):
            assert np.array_equal(rho, gibbs_state(one, ThermalSpec(t)))

    def test_gibbs_family_is_gibbs_state_at_each_temperature(self):
        # The Gibbs family of one Hamiltonian, as an ESD search builds it: one
        # (1, 4) spectrum, many temperatures in one call.
        h = random_hermitian(np.random.default_rng(14))
        temperatures = [0.0, 5e-324, 0.3, 7.0, 0.0]
        stack, spectra, _ = device._gibbs_states(*np.linalg.eigh(h[None]),
                                                 np.array(temperatures)[:, None])
        assert stack.shape == (len(temperatures), 4, 4)
        assert spectra.shape == (len(temperatures), 4)
        for t, rho, w in zip(temperatures, stack, spectra):
            assert np.array_equal(rho, gibbs_state(h, ThermalSpec(t)))
            assert np.abs(np.sort(w) - np.linalg.eigvalsh(rho)).max() <= 4e-15

    def test_gibbs_family_of_no_specs_is_an_empty_stack(self):
        h = random_hermitian(np.random.default_rng(16))
        w, v = np.linalg.eigh(h[None])
        states, spectra, _ = device._gibbs_states(w, v, np.empty((0, 1)))
        assert (states.shape, spectra.shape) == ((0, 4, 4), (0, 4))

    def test_one_spectrum_serves_a_zero_and_a_positive_temperature(self):
        # A (1, 4) spectrum broadcast over temperatures: the T = 0 row is the
        # ground-space projector, not the NaN of 0/0 weights.
        h = random_hermitian(np.random.default_rng(15))
        w, v = np.linalg.eigh(h[None])
        stack = device._gibbs_states(w, v, np.array([[0.0], [0.3]]))[0]
        for t, rho in zip((0.0, 0.3), stack):
            assert np.array_equal(rho, gibbs_state(h, ThermalSpec(t)))

    @pytest.mark.parametrize("shape", [(2, 4, 4), (4,), (3, 3)])
    def test_gibbs_state_keeps_its_single_matrix_contract(self, shape):
        with pytest.raises(DimensionError):
            gibbs_state(np.zeros(shape), ThermalSpec(1.0))


class TestClosedFormThermal:
    def test_hand_computed_symmetric_point(self):
        # eps = 0, j = 1, T = 0.5: block exponentials reduce to cosh/sinh(2)
        rho = closed_form_thermal(EffectiveParams.symmetric(0.0, 1.0), 0.5)
        z = 4 * np.cosh(2.0)
        for i in range(4):
            assert_allclose(rho[i, i].real, np.cosh(2.0) / z, rtol=1e-14)
        assert_allclose(rho[0, 3].real, -np.sinh(2.0) / z, rtol=1e-14)
        assert_allclose(rho[1, 2].real, -np.sinh(2.0) / z, rtol=1e-14)

    def test_infinite_temperature_limit(self):
        rho = closed_form_thermal(EffectiveParams.symmetric(1.0, 2.0), 1e9)
        assert np.abs(rho - np.eye(4) / 4).max() <= 1e-8

    def test_x_shape_and_unit_trace(self):
        rho = closed_form_thermal(EffectiveParams.symmetric(0.7, -1.3), 0.3)
        assert abs(np.trace(rho).real - 1.0) <= 1e-14
        zero_positions = [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
        for i, j in zero_positions:
            assert rho[i, j] == 0.0

    @pytest.mark.parametrize(
        "eff,t",
        [
            (EffectiveParams(eps1=1.0, eps2=1.0, ej1=0.1, j12=1.0), 0.5),
            (EffectiveParams(eps1=1.0, eps2=2.0, j12=1.0), 0.5),
            (EffectiveParams.symmetric(1.0, 0.0), 0.5),
            (EffectiveParams.symmetric(1.0, 1.0), 0.0),
        ],
    )
    def test_unsupported_regimes_raise(self, eff, t):
        with pytest.raises(UnsupportedRegimeError):
            closed_form_thermal(eff, t)

    @given(
        eps=st.floats(-5.0, 5.0),
        jmag=st.floats(1e-3, 5.0),
        jneg=st.booleans(),
        t=st.floats(1e-3, 10.0),
    )
    @settings(max_examples=200)
    def test_equivalent_to_direct_exponentiation(self, eps, jmag, jneg, t):
        j = -jmag if jneg else jmag
        eff = EffectiveParams.symmetric(eps, j)
        direct = gibbs_state(build_hamiltonian(eff), ThermalSpec(t))
        assert np.abs(closed_form_thermal(eff, t) - direct).max() <= 1e-10


class TestEffectiveParams:
    def test_symmetric_constructor(self):
        eff = EffectiveParams.symmetric(0.5, -2.0)
        assert eff.eps1 == eff.eps2 == 0.5
        assert eff.ej1 == eff.ej2 == 0.0
        assert eff.j12 == -2.0

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidParameterError):
            EffectiveParams(eps1=np.nan, eps2=0.0)

    def test_from_device_composes_the_maps(self):
        p = DeviceParams()
        eff = effective_params(p)
        assert eff.eps1 == epsilon_from_voltage(p, 1)
        assert eff.eps2 == epsilon_from_voltage(p, 2)
        assert eff.ej1 == intrabit_coupling(p, 1) == 0.0
        assert eff.j12 == interbit_coupling(p)
        assert {type(v) for v in vars(effective_params(DeviceParams(phi_e=0.3))).values()} == {float}

    def test_thermal_state_accepts_both_kinds(self):
        rho_dev = thermal_state(DeviceParams(), 0.01)
        rho_eff = thermal_state(effective_params(DeviceParams()), 0.01)
        assert np.abs(rho_dev - rho_eff).max() == 0.0


class TestFluxTrig:
    def test_cos_pi_special_points(self):
        assert device._cos_pi(0.5) == 0.0
        assert device._cos_pi(1.5) == 0.0
        assert device._cos_pi(0.0) == 1.0
        assert device._cos_pi(1.0) == -1.0

    def test_sin_pi_special_points(self):
        assert device._sin_pi(0.0) == 0.0
        assert device._sin_pi(1.0) == 0.0
        assert device._sin_pi(2.0) == 0.0
        assert device._sin_pi(0.5) == 1.0

    @given(x=st.floats(-4.0, 4.0))
    def test_matches_library_trig(self, x):
        assert device._cos_pi(x) == pytest.approx(math.cos(math.pi * x), abs=1e-12)
        assert device._sin_pi(x) == pytest.approx(math.sin(math.pi * x), abs=1e-12)

    @staticmethod
    def flux_values():
        """1,050,000 seeded values: uniform on +-10 and +-1e6, multiples of 1/4
        on both ranges and their float neighbours, subnormals, then +-0, the
        smallest subnormal and the smallest normal of each sign."""
        rng = np.random.default_rng(24)
        quarters = np.concatenate([rng.integers(-40, 41, 50_000),
                                   rng.integers(-4 * 10**6, 4 * 10**6 + 1, 50_000)]) / 4.0
        subnormals = rng.integers(1, 2**52, 24_997).view(float)
        return np.concatenate([
            rng.uniform(-10.0, 10.0, 350_000), rng.uniform(-1e6, 1e6, 350_000),
            quarters, np.nextafter(quarters, math.inf), np.nextafter(quarters, -math.inf),
            subnormals, -subnormals, [0.0, -0.0, 5e-324, -5e-324],
            [2.2250738585072014e-308, -2.2250738585072014e-308]])

    @pytest.mark.parametrize("name, reference", [("_cos_pi", scalar_cos_pi),
                                                 ("_sin_pi", scalar_sin_pi)])
    def test_maps_equal_the_scalar_references_bit_for_bit(self, name, reference):
        f, x = getattr(device, name), self.flux_values()
        mapped = f(x)
        expected = np.array([reference(v) for v in x.tolist()])
        assert mapped.dtype == np.float64 and mapped.shape == x.shape
        assert np.array_equal(mapped.view(np.int64), expected.view(np.int64))
        # A value alone (a Python float, as DeviceParams holds it) gets the
        # bits it gets in an array: every 25th value of each kind, and the
        # six special values at the end.
        sample = np.r_[0 : len(x) : 25, len(x) - 6 : len(x)]
        alone = np.array([f(v) for v in x[sample].tolist()])
        assert np.array_equal(alone.view(np.int64), mapped[sample].view(np.int64))


class TestGibbsStateInput:
    @pytest.mark.parametrize("h, t", [
        (np.diag([math.inf, 0.0, 0.0, 0.0]), 1.0),
        (np.diag([math.inf, 0.0, 0.0, 0.0]), 0.0),
        (np.diag([math.nan, 0.0, 0.0, 0.0]), 0.0),
        (np.diag([math.nan, 0.0, 0.0, 0.0]), 1.0),
        (np.diag([1e308, -1e308, 0.0, 0.0]), 1.0),
        (np.full((4, 4), 1e200), 1.0),
    ])
    def test_entries_that_are_not_finite_or_too_large_are_rejected(self, h, t):
        # Rejected before any arithmetic on h: no numpy RuntimeWarning, which
        # the test settings turn into an error, comes first.
        with pytest.raises(InvalidParameterError, match="hamiltonian entries must be finite"):
            gibbs_state(h, ThermalSpec(t))

    def test_entries_at_the_bound_are_accepted(self):
        rho = gibbs_state(np.diag([MAX_ENERGY_K, -MAX_ENERGY_K, 0.0, 0.0]), ThermalSpec(1.0))
        assert np.array_equal(rho, np.diag([0.0, 1.0, 0.0, 0.0]).astype(complex))


class TestEnergyBoundsAgree:
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_gibbs_state_accepts_every_effective_hamiltonian(self, sign, t):
        # Coefficients at the bound sum to 2 * MAX_ENERGY_K on the diagonal:
        # gibbs_state takes the Hamiltonian thermal_state builds its state from.
        eff = EffectiveParams(*[sign * MAX_ENERGY_K] * 5)
        rho = gibbs_state(build_hamiltonian(eff), ThermalSpec(t))
        assert_allclose(rho, thermal_state(eff, t), rtol=0, atol=1e-15)

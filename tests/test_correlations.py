import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from jcqsim import correlations, qmath
from jcqsim.correlations import (
    Measurement,
    binary_entropy,
    classical_correlation,
    concurrence,
    conditional_entropy,
    discord_grid_oracle,
    eof,
    eof_from_concurrence,
    ground_state_discord_analytic,
    measure_states,
    measurement_projector,
    mutual_information,
    quantum_discord,
    von_neumann_entropy,
)
from jcqsim.device import EffectiveParams, thermal_state
from jcqsim.errors import (
    DimensionError,
    InvalidParameterError,
    NotAStateError,
    UnsupportedRegimeError,
)

from helpers import (
    bell_phi_plus,
    entropy_bits,
    pure_state,
    random_density_matrix,
    random_unitary_2,
    random_x_state,
)


def reference_conditional_entropy(rho, theta, phi, side="first"):
    """Independent projector-sandwich evaluation used as the test oracle."""
    m = np.array([np.cos(theta / 2), np.exp(1j * phi) * np.sin(theta / 2)])
    m_perp = np.array([np.sin(theta / 2), -np.exp(1j * phi) * np.cos(theta / 2)])
    total = 0.0
    for vec in (m, m_perp):
        proj = np.outer(vec, vec.conj())
        k = np.kron(proj, np.eye(2)) if side == "first" else np.kron(np.eye(2), proj)
        post = k @ rho @ k
        p = np.trace(post).real
        if p <= 1e-14:
            continue
        r4 = (post / p).reshape(2, 2, 2, 2)
        reduced = (
            np.einsum("abad->bd", r4) if side == "first" else np.einsum("abcb->ac", r4)
        )
        w = np.linalg.eigvalsh(reduced)
        total += p * entropy_bits(w[w > 1e-15])
    return total


class TestVonNeumannEntropy:
    def test_pure_state(self):
        assert von_neumann_entropy(bell_phi_plus()) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann_entropy(np.eye(4) / 4) == pytest.approx(2.0, abs=1e-12)

    def test_two_uniform_outcomes(self):
        rho = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        assert von_neumann_entropy(rho) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_negative_eigenvalue(self):
        rho = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
        with pytest.raises(NotAStateError):
            von_neumann_entropy(rho)

    def test_roundoff_negative_eigenvalue_is_clamped(self):
        rho = np.diag([-5e-13, 1.0 + 5e-13]).astype(complex)
        assert von_neumann_entropy(rho) == 0.0

    def test_rejects_unnormalized_input(self):
        with pytest.raises(NotAStateError):
            von_neumann_entropy(np.eye(2))
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0, abs=1e-12)


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert mutual_information(rho) == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        assert mutual_information(bell_phi_plus()) == pytest.approx(2.0, abs=1e-12)

    def test_thermal_state_against_spectrum_oracle(self):
        # thermal spectrum is known in closed form: weights exp(-E/T)/Z for
        # E in {-lam, -j, j, lam}; reduced states are diagonal in this regime
        eps, j, t = 1.0, 2.0, 0.5
        rho = thermal_state(EffectiveParams.symmetric(eps, j), t)
        lam = math.hypot(2 * eps, j)
        energies = np.array([-lam, -j, j, lam])
        weights = np.exp(-energies / t)
        s_total = entropy_bits(weights / weights.sum())
        pa = np.array([rho[0, 0] + rho[1, 1], rho[2, 2] + rho[3, 3]]).real
        pb = np.array([rho[0, 0] + rho[2, 2], rho[1, 1] + rho[3, 3]]).real
        expected = entropy_bits(pa) + entropy_bits(pb) - s_total
        assert mutual_information(rho) == pytest.approx(expected, abs=1e-10)

    def test_rejects_single_qubit_input(self):
        with pytest.raises(DimensionError):
            mutual_information(np.eye(2) / 2)


PUBLIC_MEASURES = [
    von_neumann_entropy,
    mutual_information,
    quantum_discord,
    classical_correlation,
    concurrence,
    eof,
    discord_grid_oracle,
    lambda rho: conditional_entropy(rho, Measurement(0.5, 0.0)),
]


def _spoiled(bad, where):
    rho = np.eye(4, dtype=complex) / 4
    rho[where] = bad
    return rho


class TestNonFiniteStates:
    """NaN compares false, so a non-finite state once slipped past every check."""

    @pytest.mark.parametrize("measure", PUBLIC_MEASURES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 2), (slice(None), slice(None))])
    def test_public_measures_reject_them(self, measure, bad, where):
        with pytest.raises(NotAStateError):
            measure(_spoiled(bad, where))

    @pytest.mark.parametrize("measures", [("discord",), ("mutual_information", "concurrence")])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_one_bad_state_in_a_stack_is_rejected(self, measures, bad):
        states = [thermal_state(EffectiveParams.symmetric(1.0, j), 0.1) for j in (0.5, 1.0, 2.0)]
        states[1] = _spoiled(bad, (0, 3))
        with pytest.raises(NotAStateError):
            measure_states(np.array(states), measures)


class TestMeasureStates:
    def test_mixed_stack_equals_each_state_alone(self):
        rng = np.random.default_rng(22)
        states = [random_x_state(rng) if k % 2 else random_density_matrix(rng, 4)
                  for k in range(10)]
        states += [thermal_state(EffectiveParams.symmetric(1.0, j), t)
                   for j in (0.3, 4.0) for t in (0.0, 0.6)]
        states = np.array(states)
        assert 0 < correlations._x_entries(states)[0].sum() < len(states)
        full = measure_states(states, ("mutual_information", "discord", "concurrence", "eof"))
        cheap = measure_states(states, ("mutual_information", "concurrence", "eof"))
        for rho, values, values_cheap in zip(states, full, cheap):
            report = quantum_discord(rho)
            assert values["discord"] == report.discord
            assert values["mutual_information"] == report.mutual_information
            assert values["concurrence"] == values_cheap["concurrence"] == concurrence(rho)
            assert values["eof"] == values_cheap["eof"] == eof(rho)
            assert values_cheap["mutual_information"] == mutual_information(rho)

    def test_empty_stack_gives_no_rows(self):
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert correlations.correlation_reports(empty) == []
        assert measure_states(empty, ("discord",)) == measure_states(empty, ("eof",)) == []


class TestConditionalEntropy:
    def test_measurement_validation(self):
        with pytest.raises(InvalidParameterError):
            Measurement(theta=-0.1, phi=0.0)
        with pytest.raises(InvalidParameterError):
            Measurement(theta=0.1, phi=7.0)
        with pytest.raises(InvalidParameterError):
            Measurement(theta=0.1, phi=0.0, side="third")

    def test_projector_is_rank_one(self):
        p = measurement_projector(1.0, 2.0)
        assert_allclose(p @ p, p, atol=1e-14)
        assert np.trace(p).real == pytest.approx(1.0, abs=1e-14)

    def test_product_state_gives_unmeasured_entropy(self):
        rng = np.random.default_rng(1)
        sigma_b = random_density_matrix(rng, 2)
        rho = np.kron(random_density_matrix(rng, 2), sigma_b)
        expected = von_neumann_entropy(sigma_b)
        for theta, phi in [(0.0, 0.0), (np.pi / 2, 0.3), (2.0, 4.0)]:
            got = conditional_entropy(rho, Measurement(theta, phi, "first"))
            assert got == pytest.approx(expected, abs=1e-10)

    def test_bell_state_computational_basis(self):
        got = conditional_entropy(bell_phi_plus(), Measurement(0.0, 0.0, "first"))
        assert got == pytest.approx(0.0, abs=1e-12)

    def test_x_state_against_projector_oracle(self):
        rho = thermal_state(EffectiveParams.symmetric(0.0, 1.0), 0.5)
        theta, phi = np.pi / 2, 0.0
        expected = reference_conditional_entropy(rho, theta, phi)
        got = conditional_entropy(rho, Measurement(theta, phi, "first"))
        assert got == pytest.approx(expected, abs=1e-12)

    def test_second_side_placement(self):
        rng = np.random.default_rng(2)
        rho = random_density_matrix(rng, 4)
        for theta, phi in [(0.7, 1.1), (2.3, 5.0)]:
            expected = reference_conditional_entropy(rho, theta, phi, side="second")
            got = conditional_entropy(rho, Measurement(theta, phi, "second"))
            assert got == pytest.approx(expected, abs=1e-12)

    def test_fast_path_matches_definitional_path(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            rho = random_density_matrix(rng, 4)
            theta = rng.uniform(0, np.pi)
            phi = rng.uniform(0, 2 * np.pi)
            for side in ("first", "second"):
                n = correlations._grid_directions([theta], [phi])
                fast = float(correlations._cond_entropy(correlations._bloch(rho, side), n)[0])
                slow = conditional_entropy(rho, Measurement(theta, phi, side))
                assert fast == pytest.approx(slow, abs=1e-12)


class TestClassicalCorrelation:
    def test_product_state(self):
        rng = np.random.default_rng(4)
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        value, _ = classical_correlation(rho)
        assert value == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        value, m = classical_correlation(bell_phi_plus())
        assert value == pytest.approx(1.0, abs=1e-9)
        assert m.side == "first"

    def test_matches_grid_oracle_on_random_x_states(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            rho = random_x_state(rng)
            mi = mutual_information(rho)
            value, _ = classical_correlation(rho)
            oracle_discord = discord_grid_oracle(rho, "first", 181, 360)
            assert (mi - value) == pytest.approx(oracle_discord, abs=5e-5)


def random_general_states(rng, count):
    """Alternating full-rank and rank-2 states from complex Ginibre matrices."""
    out = []
    for i in range(count):
        rank = 4 if i % 2 == 0 else 2
        g = rng.normal(size=(4, rank)) + 1j * rng.normal(size=(4, rank))
        rho = g @ g.conj().T
        out.append(rho / np.trace(rho).real)
    return out


def unit_vector(theta, phi):
    return np.array([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)])


def rotation_taking(n_from, n_to):
    """SU(2) matrix whose Bloch rotation takes unit vector n_from to n_to."""
    axis = np.cross(n_from, n_to)
    sin_a = np.linalg.norm(axis)
    half = 0.5 * np.arctan2(sin_a, np.dot(n_from, n_to))
    k = axis / sin_a
    k_sigma = k[0] * qmath.SIGMA_X + k[1] * qmath.SIGMA_Y + k[2] * qmath.SIGMA_Z
    return np.cos(half) * qmath.IDENTITY_2 - 1j * np.sin(half) * k_sigma


class TestOptimizerOnGeneralStates:
    def test_matches_grid_oracle(self):
        # A 1-degree grid (181 x 360) sits up to 5.3e-5 above the optimum on
        # these states; half a degree keeps the gap inside 5e-5.
        rng = np.random.default_rng(13)
        for rho in random_general_states(rng, 40):
            for side in ("first", "second"):
                optimized = quantum_discord(rho, side).discord
                oracle = discord_grid_oracle(rho, side, 361, 720)
                assert optimized <= oracle + 1e-12
                assert abs(optimized - oracle) <= 5e-5

    def test_optimum_moved_near_the_pole(self):
        # A local unitary on the measured qubit leaves discord unchanged and
        # carries the optimal direction with it; place it at theta in
        # [0.01, 0.1], where the seed grid is densest in phi.
        rng = np.random.default_rng(14)
        for rho in random_general_states(rng, 40):
            for side in ("first", "second"):
                report = quantum_discord(rho, side)
                m = report.optimal_measurement
                target = unit_vector(rng.uniform(0.01, 0.1), rng.uniform(0.0, 2 * np.pi))
                u = rotation_taking(unit_vector(m.theta, m.phi), target)
                local = np.kron(u, np.eye(2)) if side == "first" else np.kron(np.eye(2), u)
                rotated = local @ rho @ local.conj().T
                moved = quantum_discord(rotated, side)
                assert moved.discord == pytest.approx(report.discord, abs=1e-10)
                theta_moved = moved.optimal_measurement.theta
                assert min(theta_moved, np.pi - theta_moved) < 0.2

    def test_reported_phi_is_folded_below_two_pi(self):
        for n in ([1.0, -1e-17, 0.0], [0.6, -1e-300, -0.8], [1e-12, -1e-17, 1.0]):
            theta, phi = correlations._angles(np.array(n))
            assert 0.0 <= theta <= np.pi
            assert 0.0 <= phi < 2 * np.pi
        assert correlations._angles(np.array([1.0, -1e-17, 0.0]))[1] == 0.0


def x_state(populations, c14, c23):
    rho = np.diag(populations).astype(complex)
    rho[0, 3], rho[3, 0] = c14, np.conj(c14)
    rho[1, 2], rho[2, 1] = c23, np.conj(c23)
    return rho


def x_states_of_every_kind(rng, per_kind):
    """Seeded X states: full rank, zero coherences, one zero population,
    rho_11 = rho_44 = 0, maximal coherence and pure, in turn."""
    out = []
    for k in range(6 * per_kind):
        p = rng.dirichlet(np.ones(4))
        u = rng.uniform(0.0, 1.0, 2) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
        kind = k % 6
        if kind == 1:
            u[:] = 0.0
        elif kind == 2:
            p[rng.integers(4)] = 0.0
        elif kind == 3:
            p[0] = p[3] = 0.0
        elif kind >= 4:
            u /= np.abs(u)
        if kind == 5:
            q = rng.uniform()
            p = np.array([q, 0.0, 0.0, 1.0 - q] if k % 12 < 6 else [0.0, q, 1.0 - q, 0.0])
        p /= p.sum()
        out.append(x_state(p, u[0] * np.sqrt(p[0] * p[3]), u[1] * np.sqrt(p[1] * p[2])))
    return out


def general_path(rho, side):
    """(classical correlation, Measurement, evaluations) of one state from the
    general-state maximizer, whether or not the state is X-shaped."""
    states, w = correlations._require_state([rho], 4)
    kept = correlations._mutual_information(states, w)[1][:, correlations._KEPT[side]]
    return correlations._maximize_general(states, side, kept)[0]


class TestXStateEngine:
    def states(self):
        thermal = [thermal_state(EffectiveParams.symmetric(1.0, j), t)
                   for j in (0.3, 2.0, -7.0, 500.0) for t in (0.0, 0.7)]
        return x_states_of_every_kind(np.random.default_rng(20), 16) + thermal

    def test_matches_general_path_and_grid_oracle(self):
        for rho in self.states():
            mi = mutual_information(rho)
            for side in ("first", "second"):
                report = quantum_discord(rho, side)
                assert report.optimizer_evaluations == 33 + 6 * 17  # the X path ran
                general, _ = correlations._clamp_classical(mi, general_path(rho, side)[0])
                oracle = discord_grid_oracle(rho, side, 91, 180)
                assert report.discord <= oracle + 1e-12
                assert abs(report.discord - general) <= 1e-12
                # The reported direction attains the optimum by the definitional path.
                cc, m = classical_correlation(rho, side)
                keep = "second" if side == "first" else "first"
                optimum = von_neumann_entropy(qmath.partial_trace(rho, keep)) - cc
                assert abs(conditional_entropy(rho, m) - optimum) <= 1e-12

    def test_batch_gives_each_state_its_own_result(self):
        rng = np.random.default_rng(21)
        states = [random_x_state(rng) if k % 3 else random_density_matrix(rng, 4)
                  for k in range(12)]
        for side in ("first", "second"):
            batch = correlations.correlation_reports(states, side)
            for rho, in_batch in zip(states, batch):
                alone = quantum_discord(rho, side)
                assert abs(in_batch.discord - alone.discord) <= 1e-15
                assert abs(in_batch.classical_correlation - alone.classical_correlation) <= 1e-15
                assert in_batch.optimizer_evaluations == alone.optimizer_evaluations


SWAP = np.eye(4)[[0, 2, 1, 3]]


class TestGeneralMaximizer:
    def test_seed_is_the_grid_halved_up_to_sign(self):
        seed = correlations._SEED
        assert seed.shape == (3, 993)
        grid = correlations._grid_directions(
            np.linspace(0.0, np.pi, 33), 2 * np.pi * np.arange(64) / 64)
        # Every grid direction is +-1 times a seed direction ...
        overlap = np.abs(grid.T @ seed)
        assert np.all(overlap.max(1) >= 1.0 - 1e-15)
        # ... and no two seed directions are.
        np.fill_diagonal(overlap := np.abs(seed.T @ seed), 0.0)
        assert overlap.max() < 1.0 - 1e-6

    def test_curved_valley_is_followed(self):
        # The tenth-stencil schedule alone stops at theta = 1.3173 on this
        # state, 1.37e-8 short in classical correlation; one re-centred
        # stencil reaches the X path's theta = 1.3118.
        rng = np.random.default_rng(0)
        rho = [random_x_state(rng) for _ in range(2264)][2263]
        cc, m, evaluations = general_path(rho, "first")
        x_cc, x_m = classical_correlation(rho, "first")
        assert abs(cc - x_cc) <= 1e-12
        assert abs(m.theta - x_m.theta) < 1e-6
        assert evaluations == 993 + 11 * 81

    def test_invariants_on_general_states(self):
        rng = np.random.default_rng(31)
        states = np.array(random_general_states(rng, 200))
        swapped = SWAP @ states @ SWAP
        for side, other in (("first", "second"), ("second", "first")):
            reports = correlations.correlation_reports(states, side)
            for rho, r in zip(states, reports):
                measured = von_neumann_entropy(qmath.partial_trace(rho, side))
                assert 0.0 <= r.discord <= min(r.mutual_information, measured) + 1e-12
            mirrored = correlations.correlation_reports(swapped, other)
            for r, s in zip(reports, mirrored):
                assert abs(r.discord - s.discord) <= 1e-12

    def test_product_states_have_no_discord(self):
        rng = np.random.default_rng(32)
        qubit = [random_density_matrix(rng, 2) for _ in range(400)]
        states = np.array([np.kron(a, b) for a, b in zip(qubit[::2], qubit[1::2])])
        assert not correlations._x_entries(states)[0].any()
        for side in ("first", "second"):
            for r in correlations.correlation_reports(states, side):
                assert 0.0 <= r.discord <= 1e-12

    def test_stack_across_blocks_gives_each_state_its_own_result(self):
        rng = np.random.default_rng(33)
        states = random_general_states(rng, 37)
        assert 37 > correlations.POLISH_BLOCK > correlations.SEED_BLOCK
        for side in ("first", "second"):
            for rho, in_stack in zip(states, correlations.correlation_reports(states, side)):
                alone = quantum_discord(rho, side)
                assert abs(in_stack.discord - alone.discord) <= 1e-15
                assert in_stack.optimal_measurement == alone.optimal_measurement
                assert in_stack.optimizer_evaluations == alone.optimizer_evaluations


class TestQuantumDiscord:
    def test_bell_state(self):
        report = quantum_discord(bell_phi_plus())
        assert report.discord == pytest.approx(1.0, abs=1e-9)
        assert report.concurrence == pytest.approx(1.0, abs=1e-12)
        assert report.eof == pytest.approx(1.0, abs=1e-12)

    def test_classical_classical_state(self):
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        assert quantum_discord(rho).discord == pytest.approx(0.0, abs=1e-9)

    def test_strong_coupling_ground_state(self):
        rho = thermal_state(EffectiveParams.symmetric(1.0, 50.0), 0.0)
        assert quantum_discord(rho).discord == pytest.approx(0.9988, abs=5e-4)

    def test_report_identity_and_ranges(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            report = quantum_discord(random_x_state(rng))
            assert report.discord == pytest.approx(
                report.mutual_information - report.classical_correlation, abs=1e-12
            )
            assert report.discord >= 0.0
            assert report.classical_correlation >= 0.0
            assert 0.0 <= report.concurrence <= 1.0
            assert 0.0 <= report.eof <= 1.0
            assert report.optimizer_evaluations == 33 + 6 * 17
        general = quantum_discord(random_density_matrix(rng, 4))
        # The 993 seed directions distinct up to sign, ten 9x9 stencils, no re-centring.
        assert general.optimizer_evaluations == 993 + 10 * 81

    def test_sides_agree_for_symmetric_state(self):
        rho = thermal_state(EffectiveParams.symmetric(1.0, 2.0), 0.5)
        d_first = quantum_discord(rho, "first").discord
        d_second = quantum_discord(rho, "second").discord
        assert d_first == pytest.approx(d_second, abs=5e-5)

    def test_coupling_sign_invariance(self):
        for ratio in (0.5, 2.0, 10.0):
            plus = thermal_state(EffectiveParams.symmetric(1.0, ratio), 0.4)
            minus = thermal_state(EffectiveParams.symmetric(1.0, -ratio), 0.4)
            assert quantum_discord(plus).discord == pytest.approx(
                quantum_discord(minus).discord, abs=5e-5
            )
            assert eof(plus) == pytest.approx(eof(minus), abs=1e-10)

    def test_basis_convention_sign_invariance(self):
        # flipping sigma_z|0> = +|0> to -|0> negates eps; both conventions
        # must report the same discord and entanglement
        for eps, j, t in [(1.0, 2.0, 0.4), (0.5, -1.0, 0.1), (2.0, 0.7, 1.0)]:
            plus = thermal_state(EffectiveParams.symmetric(eps, j), t)
            minus = thermal_state(EffectiveParams.symmetric(-eps, j), t)
            assert quantum_discord(plus).discord == pytest.approx(
                quantum_discord(minus).discord, abs=5e-5
            )
            assert eof(plus) == pytest.approx(eof(minus), abs=1e-10)

    def test_pure_states_discord_equals_entanglement_entropy(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            psi = rng.normal(size=4) + 1j * rng.normal(size=4)
            rho = pure_state(psi)
            expected = von_neumann_entropy(qmath.partial_trace(rho, "first"))
            report = quantum_discord(rho)
            assert report.discord == pytest.approx(expected, abs=5e-5)
            assert report.eof == pytest.approx(expected, abs=5e-5)

    def test_local_unitary_invariance_sample(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            rho = random_density_matrix(rng, 4)
            u = np.kron(random_unitary_2(rng), random_unitary_2(rng))
            rotated = u @ rho @ u.conj().T
            assert quantum_discord(rotated).discord == pytest.approx(
                quantum_discord(rho).discord, abs=5e-5
            )
            assert concurrence(rotated) == pytest.approx(concurrence(rho), abs=1e-10)
            assert eof(rotated) == pytest.approx(eof(rho), abs=1e-10)


class TestDiscordGridOracle:
    def test_bell_state(self):
        assert discord_grid_oracle(bell_phi_plus(), "first", 181, 360) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_product_state(self):
        rng = np.random.default_rng(9)
        rho = np.kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert discord_grid_oracle(rho, "first", 61, 60) == pytest.approx(0.0, abs=1e-9)

    def test_upper_bounds_the_optimizer(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            rho = random_x_state(rng)
            assert quantum_discord(rho).discord <= discord_grid_oracle(
                rho, "first", 181, 360
            ) + 5e-5

    def test_rejects_degenerate_grid(self):
        with pytest.raises(InvalidParameterError):
            discord_grid_oracle(bell_phi_plus(), "first", 1, 10)


class TestConcurrence:
    def test_bell_state(self):
        assert concurrence(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(np.eye(4) / 4) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_states_both_paths(self, p):
        rho = p * bell_phi_plus() + (1 - p) * np.eye(4) / 4
        expected = max(0.0, (3 * p - 1) / 2)
        assert concurrence(rho, method="xstate") == pytest.approx(expected, abs=1e-10)
        assert concurrence(rho, method="general") == pytest.approx(expected, abs=1e-10)

    def test_paths_agree_on_random_x_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_x_state(rng)
            assert concurrence(rho, method="xstate") == pytest.approx(
                concurrence(rho, method="general"), abs=1e-10
            )

    def test_xstate_method_rejects_generic_state(self):
        rng = np.random.default_rng(12)
        rho = random_density_matrix(rng, 4)
        with pytest.raises(UnsupportedRegimeError):
            concurrence(rho, method="xstate")

    def test_rejects_invalid_state(self):
        with pytest.raises(NotAStateError):
            concurrence(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))

    def test_rejects_unknown_method(self):
        with pytest.raises(InvalidParameterError):
            concurrence(bell_phi_plus(), method="fancy")


class TestEof:
    def test_zero_concurrence(self):
        assert eof(np.eye(4) / 4) == 0.0

    def test_bell_state(self):
        assert eof(bell_phi_plus()) == pytest.approx(1.0, abs=1e-12)

    def test_intermediate_concurrence(self):
        # sqrt(0.9)|00> + sqrt(0.1)|11> has C = 0.6, so E = H(0.9)
        rho = pure_state([np.sqrt(0.9), 0, 0, np.sqrt(0.1)])
        expected = -0.9 * np.log2(0.9) - 0.1 * np.log2(0.1)
        assert concurrence(rho) == pytest.approx(0.6, abs=1e-12)
        assert eof(rho) == pytest.approx(expected, abs=1e-12)

    def test_eof_from_concurrence_bounds(self):
        assert eof_from_concurrence(0.0) == 0.0
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-15)
        with pytest.raises(InvalidParameterError):
            eof_from_concurrence(1.5)

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)


class TestGroundStateDiscordAnalytic:
    def test_symmetric_superposition(self):
        assert ground_state_discord_analytic(0.0, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_product_ground_state(self):
        assert ground_state_discord_analytic(1.0, 0.0) == 0.0

    def test_strong_coupling_value(self):
        assert ground_state_discord_analytic(1.0, 50.0) == pytest.approx(0.9988, abs=5e-4)

    def test_rejects_double_zero(self):
        with pytest.raises(InvalidParameterError):
            ground_state_discord_analytic(0.0, 0.0)

    def test_sign_symmetry_in_eps(self):
        for j in (0.5, 2.0, 10.0):
            assert ground_state_discord_analytic(1.0, j) == pytest.approx(
                ground_state_discord_analytic(-1.0, j), abs=1e-12
            )

    @pytest.mark.parametrize("ratio", [0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0])
    def test_matches_numerical_ground_state_entropy(self, ratio):
        # oracle: entanglement entropy of the numerically diagonalized
        # nondegenerate ground state
        rho = thermal_state(EffectiveParams.symmetric(1.0, ratio), 0.0)
        expected = von_neumann_entropy(qmath.partial_trace(rho, "first"))
        assert ground_state_discord_analytic(1.0, ratio) == pytest.approx(
            expected, abs=1e-10
        )

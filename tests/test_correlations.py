import functools
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from jcqsim import correlations, device, qmath, sweep
from jcqsim.correlations import (
    Measurement,
    binary_entropy,
    classical_correlation,
    concurrence,
    eof,
    eof_from_concurrence,
    measure_states,
    mutual_information,
    quantum_discord,
)
from jcqsim.device import DeviceParams, EffectiveParams, ThermalSpec, thermal_state
from jcqsim.errors import (
    DimensionError,
    InvalidParameterError,
    NotAStateError,
)

from helpers import (
    bell_phi_plus,
    built_measures,
    entropy_bits,
    pure_state,
    random_density_matrix,
    random_unitary_2,
    random_x_state,
    random_x_states,
)
from oracles import (
    concurrences_50_digits,
    conditional_entropy,
    discord_grid_oracle,
    eof_50_digits,
    ground_state_discord_analytic,
    measurement_projector,
    mutual_information_50_digits,
    spectral_concurrence,
    von_neumann_entropy,
    x_conditional_entropy_50_digits,
    x_stencil_search,
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


def _mixed_pool():
    """X and general states, each kind at and away from T = 0."""
    rng = np.random.default_rng(27)
    states = [random_x_state(rng) if k % 2 else random_density_matrix(rng, 4) for k in range(6)]
    states += [thermal_state(EffectiveParams(1.0, 0.7, 0.3, 0.2, j), t)
               for j in (0.5, 3.0) for t in (0.0, 0.4)]
    return np.array(states)


_POOL = _mixed_pool()


@functools.cache
def _alone(k: int) -> dict:
    return measure_states(_POOL[k : k + 1], correlations.MEASURES)


class TestMeasureStates:
    @settings(max_examples=25, deadline=None)
    @given(order=st.lists(st.integers(0, len(_POOL) - 1), min_size=1, max_size=12))
    def test_any_stack_gives_each_state_its_bits_alone(self, order):
        is_x = correlations._x_entries(_POOL)[0]
        assert 0 < is_x.sum() < len(_POOL)
        # General states that take the halved seed and the full one.
        assert (~is_x & exactly_real(_POOL)).any() and (~is_x & ~exactly_real(_POOL)).any()
        columns = measure_states(_POOL[order], correlations.MEASURES)
        for m in correlations.MEASURES:
            alone = np.concatenate([_alone(k)[m] for k in order])
            assert columns[m].tobytes() == alone.tobytes(), m

    @pytest.mark.parametrize("measures", [
        ("discord",), ("classical_correlation",), ("mutual_information",), ("concurrence",),
        ("eof",), correlations.MEASURES,
    ], ids=lambda m: m[0] if len(m) == 1 else "all")
    def test_mixed_stack_equals_each_state_alone(self, measures):
        rng = np.random.default_rng(22)
        states = [random_x_state(rng) if k % 2 else random_density_matrix(rng, 4)
                  for k in range(10)]
        states += [thermal_state(EffectiveParams.symmetric(1.0, j), t)
                   for j in (0.3, 4.0) for t in (0.0, 0.6)]
        states = np.array(states)
        assert 0 < correlations._x_entries(states)[0].sum() < len(states)
        columns = measure_states(states, measures)
        assert list(columns) == list(measures)
        for k, rho in enumerate(states):
            report = quantum_discord(rho)
            alone = {
                "mutual_information": mutual_information(rho),
                "classical_correlation": classical_correlation(rho)[0],
                "discord": report.discord,
                "concurrence": concurrence(rho),
                "eof": eof(rho),
            }
            for m in measures:
                assert columns[m][k] == alone[m] == getattr(report, m)

    def test_classical_correlation_is_the_reports(self):
        rng = np.random.default_rng(23)
        for rho in (random_x_state(rng), random_density_matrix(rng, 4), bell_phi_plus()):
            for side in ("first", "second"):
                report = quantum_discord(rho, side)
                cc, m = classical_correlation(rho, side)
                assert cc == report.classical_correlation
                assert m == report.optimal_measurement

    def test_x_stack_memory_is_bounded(self):
        rng = np.random.default_rng(24)
        states = np.array([random_x_state(rng) for _ in range(2000)])
        tracemalloc.start()
        try:
            correlations.correlation_reports(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6

    def test_validation_memory_is_bounded(self):
        # Hermiticity is tested in blocks: 2,000 states are 0.51 MB of input.
        rng = np.random.default_rng(25)
        states = np.array([random_density_matrix(rng, 4) for _ in range(2000)])
        tracemalloc.start()
        try:
            correlations._require_state(states)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.25e6

    @pytest.mark.parametrize("at", [0, 63, 64, 1999])
    def test_a_skew_state_in_any_block_is_rejected(self, at):
        rng = np.random.default_rng(26)
        states = np.array([random_density_matrix(rng, 4) for _ in range(2000)])
        states[at, 0, 1] += 2e-10
        with pytest.raises(NotAStateError, match="not Hermitian"):
            correlations._require_state(states)

    @pytest.mark.parametrize("measures, calls", [
        (("concurrence",), 0), (("mutual_information", "concurrence"), 0),
        (("eof",), 5), (("concurrence", "eof"), 5),
    ])
    def test_eof_only_when_asked_for(self, monkeypatch, measures, calls):
        counted, column = [], correlations._eof_column
        monkeypatch.setattr(correlations, "_eof_column",
                            lambda c: counted.extend(c.tolist()) or column(c))
        states = np.array([thermal_state(EffectiveParams.symmetric(1.0, j), 0.1)
                           for j in (0.5, 1.0, 2.0, 4.0, 8.0)])
        columns = measure_states(states, measures)
        assert len(counted) == calls
        assert list(columns) == list(measures)
        assert [len(column) for column in columns.values()] == [len(states)] * len(measures)

    @pytest.mark.parametrize("measures", [["foo"], ("discord", "Discord"), "discord", "eof"],
                             ids=["unknown", "miscased", "bare-discord", "bare-eof"])
    def test_names_outside_measures_are_rejected(self, measures):
        # A bare string is not a sequence of names: iterating it once gave
        # KeyError: 'd'.
        states = np.array([thermal_state(EffectiveParams.symmetric(1.0, 0.5), 0.1)])
        with pytest.raises(InvalidParameterError, match=re.escape(str(correlations.MEASURES))):
            measure_states(states, measures)

    def test_empty_stack_gives_no_rows(self):
        empty = np.zeros((0, 4, 4), dtype=complex)
        assert correlations.correlation_reports(empty) == []
        for measure in ("discord", "eof"):
            (column,) = measure_states(empty, (measure,)).values()
            assert column.shape == (0,)


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
                bloch = correlations._bloch(measured_first(rho, side))
                fast = float(correlations._cond_entropy(bloch, n)[0])
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


def random_real_states(rng, count):
    """Alternating full-rank and rank-2 states from real Ginibre matrices."""
    out = []
    for i in range(count):
        g = rng.normal(size=(4, 4 if i % 2 == 0 else 2))
        rho = g @ g.T
        out.append((rho / np.trace(rho)).astype(complex))
    return out


def device_gibbs_states():
    """Gibbs states of the default device away from phi_e = 1/2, at and above T = 0."""
    return [thermal_state(DeviceParams(phi_e=phi_e), t) for phi_e in (0.3, 0.41) for t in (0.0, 0.01)]


def exactly_real(states) -> np.ndarray:
    states = np.asarray(states)
    return np.count_nonzero(states.imag.reshape(len(states), -1), axis=1) == 0


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

    def test_matches_grid_oracle_on_real_states(self):
        # Exactly real states seed on the n_y >= 0 half of the seed grid.
        states = random_real_states(np.random.default_rng(15), 20) + device_gibbs_states()
        assert exactly_real(states).all()
        assert not correlations._x_entries(np.array(states))[0].any()
        for rho in states:
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


def ran_x_path(evaluations):
    """Whether an evaluation count is the X path's: 1 for a certified end,
    else the 33-point seed, the 17-point stencil and k 3x3 Newton stencils,
    k at most the cap."""
    k, rest = divmod(evaluations - (33 + 17), 9)
    return evaluations == 1 or (rest == 0 and 0 <= k <= correlations.POLISH_STENCILS)


def measured_first(states, side):
    """A state or a stack with the qubit ``side`` first, as
    ``correlations._measure`` hands it to the discord searches."""
    return states if side == "first" else states[..., [0, 2, 1, 3], :][..., [0, 2, 1, 3]]


def x_first(states, side):
    """The X entries of a stack of X states with the qubit ``side`` first, as
    ``correlations._measure`` hands them to ``correlations._maximize_x``."""
    return correlations._x_entries(measured_first(states, side))[1]


def x_reads(states, side):
    """(populations, |rho_14| + |rho_23|) of a stack of X states with the
    qubit ``side`` first, as ``correlations._maximize_x`` reads them."""
    first = measured_first(states, side)
    return first[:, range(4), range(4)].real, np.abs(first[:, 0, 3]) + np.abs(first[:, 1, 2])


def general_path(rho, side):
    """(classical correlation, theta, evaluations) of one state from the
    general-state maximizer, whether or not the state is X-shaped."""
    states, w = correlations._require_state([rho])
    kept = correlations._mutual_information(states, w)[1][0, correlations._KEPT[side]]
    best, theta, _, evaluations = correlations._maximize_general(measured_first(states, side))
    return max(0.0, kept - best[0]), theta[0], evaluations[0]


@functools.cache
def x_states_that_polish() -> dict:
    """Side -> a stack of at least 100 seeded random X states whose theta
    search, measuring that side, leaves the 17-point stencil for the
    polish (more than 50 evaluations).  About 0.07% of draws do."""
    rng = np.random.default_rng(46)
    found = {"first": [], "second": []}
    while min(len(kept) for kept in found.values()) < 100:
        states = random_x_states(rng, 4096)
        for side, kept in found.items():
            kept.extend(states[correlations._maximize_x(x_first(states, side))[3] > 50])
    return {side: np.array(kept) for side, kept in found.items()}


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
                assert ran_x_path(report.optimizer_evaluations)
                general, _ = correlations._clamp_classical(mi, general_path(rho, side)[0])
                oracle = discord_grid_oracle(rho, side, 91, 180)
                assert report.discord <= oracle + 1e-12
                assert abs(report.discord - general) <= 1e-12
                # The reported direction attains the optimum by the definitional path.
                cc, m = classical_correlation(rho, side)
                keep = "second" if side == "first" else "first"
                optimum = von_neumann_entropy(qmath.partial_trace(rho, keep)) - cc
                assert abs(conditional_entropy(rho, m) - optimum) <= 1e-12

    def test_never_above_the_fixed_schedule_search(self):
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(45)
        states = np.array(x_states_of_every_kind(rng, 16)
                          + [random_x_state(rng) for _ in range(4000)])
        ends = np.tile([0.0, 0.5 * math.pi], (len(states), 1))
        for side in ("first", "second"):
            best, _, _, evaluations = correlations._maximize_x(x_first(states, side))
            reference, _ = x_stencil_search(states, side)
            assert all(ran_x_path(k) for k in evaluations.tolist())
            # A state certified at theta = 0 is held to its 50-digit value
            # there, the optimum: on 2 of them the reference's kernel values
            # lie 1.3e-15 below it.  Every other state is held to the
            # reference.
            zero = correlations._x_certificates(*x_reads(states, side))[0]
            assert (best[~zero] - reference[~zero]).max() <= 1e-15
            exact = [x_conditional_entropy_50_digits(states[k], side, [0.0])[0]
                     for k in np.flatnonzero(zero)]
            assert np.abs(best[zero] - np.array(exact, dtype=float)).max() <= 3e-16
            bloch = correlations._x_bloch(*x_reads(states, side))
            # Some optima lie inside (0, pi/2), below both ends.
            assert (best < correlations._x_values(bloch, ends)[0].min(1) - 1e-9).any()

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_the_theta_polish_is_never_above_either_reference(self, side):
        # Few states leave the 17-point stencil; these all do.  On a few of
        # them the general path's coarser seed picks the pole's basin and
        # stops up to 1e-4 bits above the interior optimum the grid oracle
        # finds, so it bounds the X path from one side only.
        states = x_states_that_polish()[side]
        assert len(states) >= 100
        reports = correlations.correlation_reports(states, side)
        for r in reports:
            assert ran_x_path(r.optimizer_evaluations) and r.optimizer_evaluations > 50
        best = correlations._maximize_x(x_first(states, side))[0]
        assert (best - x_stencil_search(states, side)[0]).max() <= 1e-15
        checked, w = correlations._require_state(states)
        mi, marginals = correlations._mutual_information(checked, w)
        general = correlations._maximize_general(measured_first(checked, side))[0]
        general_cc = np.maximum(0.0, marginals[:, correlations._KEPT[side]] - general)
        general_discord = correlations._clamp_classical(mi, general_cc)[0]
        assert (np.array([r.discord for r in reports]) - general_discord).max() <= 1e-12

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_a_polished_state_reports_its_x_frame_measurement(self, side):
        # The polish may leave the xz plane of the X frame; the direction it
        # finds folds back to theta in [0, pi/2] at the frame's own azimuth,
        # and the reported measurement attains the value the polish found.
        states = x_states_that_polish()[side]
        first = measured_first(states, side)
        best, theta, phi, _ = correlations._maximize_x(correlations._x_entries(first)[1])
        azimuth = -0.5 * (np.angle(first[:, 0, 3]) + np.angle(first[:, 1, 2])) % math.pi
        assert phi.tobytes() == azimuth.tobytes()
        assert ((0.0 <= theta) & (theta <= 0.5 * math.pi)).all()
        for rho, value, t, f in zip(states, best, theta, phi):
            assert abs(conditional_entropy(rho, Measurement(t, f, side)) - value) <= 1e-14

    def test_every_published_state_stops_after_the_seed_and_stencil(self, monkeypatch):
        # Every Gibbs state of the five published grids is an X state that
        # takes a certified end (1 evaluation) or whose search ends after the
        # 33-point seed and the 17-point stencil; 99.9% are certified.
        search, evaluations = correlations._maximize_x, []

        def counted_search(states):
            found = search(states)
            evaluations.append(found[3])
            return found

        monkeypatch.setattr(correlations, "_maximize_x", counted_search)
        points = 0
        for name in ("fig2a", "fig2b", "fig3", "fig4"):
            for spec in sweep.figure_preset(name):
                points += len(sweep.sweep_1d(spec))
        for spec_x, spec_y in sweep.figure_preset("fig5"):
            points += len(sweep.sweep_2d(spec_x, spec_y))
        counts = np.concatenate(evaluations)
        assert len(counts) == points > 26_000
        assert np.isin(counts, (1, 33 + 17)).all()
        assert np.count_nonzero(counts == 1) > 0.99 * points

    def test_a_wide_stencil_is_not_taken_as_converged(self):
        # A stencil half a 17-point cell wide, 5e-6 rad from this state's
        # optimum, has values even to 1.3e-15 about its centre: its cubic
        # term hides the slope.  Stopping there would leave 3e-14 bits.
        rho = x_state([0.7622856969220183, 0.039378089205097756,
                       0.11496312477310694, 0.08337308909977698],
                      0.06537054452093127 - 0.1555430620926596j,
                      0.0023874772393309464 - 0.0025106742292512665j)[None]
        best = correlations._maximize_x(correlations._x_entries(rho)[1])[0]
        assert best[0] <= x_stencil_search(rho, "first")[0][0] + 1e-15

    def test_gibbs_stacks_take_at_most_three_kernel_calls(self, monkeypatch):
        kernel, search, calls = correlations._cond_entropy, correlations._maximize_x, []

        def counted_search(states):
            calls.append([len(states), 0])
            return search(states)

        def counted_kernel(bloch, n):
            calls[-1][1] += 1
            return kernel(bloch, n)

        monkeypatch.setattr(correlations, "_maximize_x", counted_search)
        monkeypatch.setattr(correlations, "_cond_entropy", counted_kernel)
        sweep.optimal_ratio(0.5, (0.1, 50.0))
        assert len(calls) > 1
        # A 64-state chunk of fig5's T = 0 surface.
        spec_x, spec_y = (replace(spec, steps=8) for spec in sweep.figure_preset("fig5")[0])
        assert len(sweep.sweep_2d(spec_x, spec_y)) == 64 == calls[-1][0]
        assert max(count for _, count in calls) <= 3

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


class TestPolishCap:
    # The cap counts the 3x3 stencils the polish measures, the first one
    # included; the X path's 17-point stencil, measured before the polish, is
    # not one of them.
    CAP = 2

    @pytest.mark.parametrize("side", ["first", "second"])
    @pytest.mark.parametrize("real", [False, True])
    def test_general_states_stop_at_the_cap(self, monkeypatch, real, side):
        rng = np.random.default_rng(47)
        states = np.array(random_real_states(rng, 40) if real else random_general_states(rng, 40))
        seed = 528 if real else 993
        assert (correlations._maximize_general(measured_first(states, side))[3]
                >= seed + 9 * self.CAP).all()
        monkeypatch.setattr(correlations, "POLISH_STENCILS", self.CAP)
        assert (correlations._maximize_general(measured_first(states, side))[3]
                == seed + 9 * self.CAP).all()

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_x_states_stop_at_the_cap(self, monkeypatch, side):
        states = x_states_that_polish()[side]
        stencils = (correlations._maximize_x(x_first(states, side))[3] - 50) // 9
        assert (stencils >= 1).all() and (stencils >= self.CAP).any()
        monkeypatch.setattr(correlations, "POLISH_STENCILS", self.CAP)
        capped = correlations._maximize_x(x_first(states, side))[3]
        assert (capped == 50 + 9 * np.minimum(stencils, self.CAP)).all()


def _on_boundary(rng, count, side, which):
    """Seeded X states with c = |rho_14| + |rho_23| on the boundary of one
    certificate of ``side``: c^2 = (rho_11 - rho_22)(rho_44 - rho_33) (the
    first qubit measured; rho_22 and rho_33 trade places for the second) for
    ``which`` "zero", c = |sqrt(rho_11 rho_44) - sqrt(rho_22 rho_33)| for
    "half"; c is split so that the state is positive."""
    out = []
    k = 1 if side == "first" else 2
    while len(out) < count:
        p = rng.dirichlet(np.ones(4))
        product = (p[0] - p[k]) * (p[3] - p[3 - k])
        if which == "zero":
            if product < 0.0:
                continue
            c = math.sqrt(product)
        else:
            c = abs(math.sqrt(p[0] * p[3]) - math.sqrt(p[1] * p[2]))
        top14, top23 = math.sqrt(p[0] * p[3]), math.sqrt(p[1] * p[2])
        if c > top14 + top23:
            continue
        c14 = rng.uniform(max(0.0, c - top23), min(c, top14))
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, 2))
        out.append(x_state(p, c14 * phases[0], (c - c14) * phases[1]))
    return out


class TestXCertificates:
    """theta = 0 or pi/2 is an X state's optimal measurement where Chen,
    Zhang, Yu, Yi and Oh's conditions (PRA 84, 042313, 2011) hold; such a
    state takes that end at 1 evaluation."""

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_certified_ends_are_optimal_at_50_digits(self, side):
        # At 50 digits, from each state's exact float entries, a certified
        # end leaves no more conditional entropy than any angle of a fine
        # grid: on seeded states, on each boundary, on the product state of
        # `report --eps 1 --j 0 --temp 0`, on states with zero coherences and
        # on pure states with rho_22 = rho_33 = 0.  A state certified in
        # floats can lie outside its boundary by round-off, which moves the
        # optimum off the end by about 1e-8 rad and lowers it by about 1e-32
        # bits.  A pure state lies on both boundaries, and its float entries
        # are a mixed state with eigenvalues of about 1e-17: its values at
        # all angles are within a few 1e-16 of 0, and either end can be the
        # lower one.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(70)
        product = thermal_state(EffectiveParams.symmetric(1.0, 0.0), 0.0)
        diagonal = [x_state(p, 0.0, 0.0) for p in rng.dirichlet(np.ones(4), 6)]
        diagonal += [x_state([0.1, 0.1, 0.3, 0.5], 0.0, 0.0), x_state([0.25] * 4, 0.0, 0.0)]
        states = np.array([product, *random_x_states(rng, 24), *diagonal,
                           *_on_boundary(rng, 8, side, "zero"),
                           *_on_boundary(rng, 8, side, "half"),
                           *(pure_state([a, 0.0, 0.0, b]) for a, b in
                             rng.normal(size=(4, 2)) + 1j * rng.normal(size=(4, 2)))])
        pure = np.arange(len(states)) >= len(states) - 4
        best, theta, _, evaluations = correlations._maximize_x(x_first(states, side))
        zero, half = correlations._x_certificates(*x_reads(states, side))
        certified = zero | half
        assert ((evaluations == 1) == certified).all()
        assert (theta[zero] == 0.0).all() and (theta[half & ~zero] == 0.5 * math.pi).all()
        # The product state is certified at both ends and takes theta = 0.
        assert zero[0] and half[0] and theta[0] == 0.0
        assert zero.sum() >= 8 and (half & ~zero).sum() >= 8
        # Each end's closed form keeps its digits.
        grid = np.linspace(0.0, 0.5 * math.pi, 181).tolist()
        for k in np.flatnonzero(certified):
            end, *others = x_conditional_entropy_50_digits(states[k], side, [theta[k], *grid])
            assert end - min(others) <= (1e-15 if pure[k] else 1e-30)
            assert abs(best[k] - end) <= 3e-16

    def test_certified_ends_are_never_above_the_search(self):
        # 106,496 seeded state-sides, plain and mixed with 0.1% and 50% of
        # I/4.  No state that the search would polish is certified; no
        # certified state's value is more than 1e-15 above the fixed-schedule
        # search's; the states left to the search get its bits, stack or
        # no stack.
        rng = np.random.default_rng(101)
        certified = total = 0
        for draw in range(13):
            mix = (0.0, 1e-3, 0.5)[draw % 3]
            states = (1.0 - mix) * random_x_states(rng, 4096) + 0.25 * mix * np.eye(4)
            for side in ("first", "second"):
                best, _, _, evaluations = correlations._maximize_x(x_first(states, side))
                bloch = correlations._x_bloch(*x_reads(states, side))
                search_best, _, searched = correlations._search_x(bloch)
                ends = evaluations == 1
                assert not (ends & (searched > 33 + 17)).any()
                assert (evaluations[~ends] == searched[~ends]).all()
                assert best[~ends].tobytes() == search_best[~ends].tobytes()
                assert (best[ends] - x_stencil_search(states[ends], side)[0]).max() <= 1e-15
                certified += np.count_nonzero(ends)
                total += len(states)
        assert total == 106_496 and certified > 0.8 * total


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

    def test_real_seed_is_the_seed_half_with_n_y_at_least_zero(self):
        seed, real = correlations._SEED, correlations._REAL_SEED
        assert real.shape == (3, 528)
        assert np.all(real[1] >= 0.0)
        # Each seed direction is a real-seed direction or the mirror
        # n_y -> -n_y of one, and the real seed keeps the seed's order.
        mirrored = np.array([seed[0], np.abs(seed[1]), seed[2]])
        assert np.all((real.T @ mirrored).max(0) >= 1.0 - 1e-15)
        kept = (seed.T[:, None, :] == real.T).all(2).argmax(0)
        assert np.all(np.diff(kept) > 0)

    def test_real_states_are_even_in_n_y_bit_for_bit(self):
        states = np.array(random_real_states(np.random.default_rng(36), 10) + device_gibbs_states())
        mirrored = correlations._SEED * np.array([[1.0], [-1.0], [1.0]])
        for side in ("first", "second"):
            bloch = correlations._bloch(measured_first(states, side))
            values = correlations._cond_entropy(bloch, correlations._SEED)
            assert values.tobytes() == correlations._cond_entropy(bloch, mirrored).tobytes()

    @pytest.mark.parametrize("temperature", [0.0, 0.004, 0.05])
    def test_built_gibbs_states_are_exactly_real(self, temperature):
        rng = np.random.default_rng(37)
        count = 200
        changes = {
            "phi_e": 0.5 + rng.choice([-1.0, 1.0], count) * rng.uniform(0.02, 0.45, count),
            "v_x1": rng.uniform(5e-6, 1.2e-4, count), "v_x2": rng.uniform(5e-6, 1.2e-4, count),
            "phi_x1": rng.uniform(0.0, 1.0, count), "phi_x2": rng.uniform(0.0, 1.0, count)}
        table = device._coefficient_table(DeviceParams(), changes, np.full(count, temperature))
        x, _, states, _, vectors = device._thermal_rows(*table)
        assert not x.any() and not correlations._x_entries(states)[0].any()
        assert states.dtype == float and vectors.dtype == float
        assert exactly_real(states).all()

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_a_local_phase_takes_the_full_seed_to_the_same_optimum(self, monkeypatch, side):
        # diag(1, e^{i alpha}) on the measured qubit turns its Bloch vectors
        # about z: the state is no longer real, but discord and theta stay.
        phase = np.diag([1.0, np.exp(0.7j)])
        local = np.kron(phase, np.eye(2)) if side == "first" else np.kron(np.eye(2), phase)
        kernel, seeds = correlations._cond_entropy, []
        monkeypatch.setattr(correlations, "_cond_entropy",
                            lambda bloch, n: seeds.append(n) or kernel(bloch, n))
        for rho in random_real_states(np.random.default_rng(38), 8):
            turned = local @ rho @ local.conj().T
            assert not exactly_real([turned])[0]
            seeds.clear()
            real = quantum_discord(rho, side)
            assert seeds[0] is correlations._REAL_SEED
            seeds.clear()
            full = quantum_discord(turned, side)
            assert seeds[0] is correlations._SEED
            assert abs(real.discord - full.discord) <= 1e-12
            assert abs(real.optimal_measurement.theta - full.optimal_measurement.theta) <= 1e-6

    def test_kernel_calls_stay_within_the_column_bound(self, monkeypatch):
        kernel, columns = correlations._cond_entropy, []
        monkeypatch.setattr(correlations, "_cond_entropy", lambda bloch, n: columns.append(
            2 * len(bloch) * n.shape[-1]) or kernel(bloch, n))
        rng = np.random.default_rng(39)
        states = random_general_states(rng, 9) + random_real_states(rng, 9)
        correlations.correlation_reports(states)
        assert max(columns) <= 3972 == correlations.SEED_COLUMNS

    def test_curved_valley_is_followed(self):
        # Shrinking grid stencils alone stop at theta = 1.3173 on this state,
        # 1.37e-8 short in classical correlation.  The Newton steps follow the
        # valley to the X path's theta = 1.3118 in ten 3x3 stencils, two of
        # them after a step that came out above the best point was undone.
        rng = np.random.default_rng(0)
        rho = [random_x_state(rng) for _ in range(2264)][2263]
        cc, theta, evaluations = general_path(rho, "first")
        x_cc, x_m = classical_correlation(rho, "first")
        assert abs(cc - x_cc) <= 1e-12
        assert abs(theta - x_m.theta) < 1e-6
        assert evaluations == 993 + 10 * 9

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

    @pytest.mark.parametrize("kind", ["x", "complex", "real"])
    def test_the_second_qubit_is_the_first_of_the_swapped_state(self, kind):
        # Measuring the second qubit is measuring the first of SWAP rho SWAP
        # at the same angles, bit for bit.  Discord is not compared: the
        # swapped stack's own spectrum gives its mutual information.  SWAP
        # moves entries: a product with it could flip the sign of a zero
        # coherence, and with it the azimuth atan2 gives.
        rng = np.random.default_rng(35)
        states = np.array({
            "x": lambda: [*x_states_of_every_kind(rng, 16), *random_x_states(rng, 1000),
                          *x_states_that_polish()["second"]],
            "complex": lambda: random_general_states(rng, 100),
            "real": lambda: random_real_states(rng, 100),
        }[kind]())
        second = correlations.correlation_reports(states, "second")
        first = correlations.correlation_reports(measured_first(states, "second"), "first")
        for name, field in (("classical_correlation", lambda r: r.classical_correlation),
                            ("theta", lambda r: r.optimal_measurement.theta),
                            ("phi", lambda r: r.optimal_measurement.phi),
                            ("optimizer_evaluations", lambda r: r.optimizer_evaluations)):
            got, want = (np.array([field(r) for r in reports]) for reports in (second, first))
            assert got.tobytes() == want.tobytes(), name

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
        states = random_general_states(rng, 70)
        # Every third state made exactly real, so both seeds run in blocks.
        states[::3] = [0.5 * (rho + rho.conj()) for rho in states[::3]]
        assert len(states) > correlations.STATE_BLOCK
        per_seed_call = correlations.SEED_COLUMNS // (2 * correlations._REAL_SEED.shape[1])
        assert exactly_real(states).sum() > per_seed_call > 1
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
            assert ran_x_path(report.optimizer_evaluations)
        rho = random_density_matrix(rng, 4)
        general = quantum_discord(rho)
        # The 993 seed directions distinct up to sign, then eight 3x3 stencils.
        assert general.optimizer_evaluations == 993 + 8 * 9
        # Its real part is a real state: the 528 seed directions with
        # n_y >= 0, then eight 3x3 stencils.
        real = quantum_discord(0.5 * (rho + rho.conj()))
        assert real.optimizer_evaluations == 528 + 8 * 9

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
        assert concurrence(rho) == pytest.approx(expected, abs=1e-10)
        assert spectral_concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_paths_agree_on_random_x_states(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            rho = random_x_state(rng)
            assert concurrence(rho) == pytest.approx(spectral_concurrence(rho), abs=1e-10)

    def test_rejects_invalid_state(self):
        with pytest.raises(NotAStateError):
            concurrence(np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex))


def _seeded_devices(seed: int, count: int) -> list:
    """Seeded devices, X-shaped (phi_e = 1/2) and general in turn."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        v1, v2 = rng.uniform(5e-6, 100e-6, 2)
        phi1, phi2 = rng.uniform(0.05, 0.45, 2)
        phi_e = 0.5 if k % 2 else 0.5 + rng.choice((-1.0, 1.0)) * rng.uniform(0.05, 0.45)
        out.append(DeviceParams(v_x1=float(v1), v_x2=float(v2), phi_x1=float(phi1),
                                phi_x2=float(phi2), phi_e=float(phi_e)))
    return out


def _gibbs_family(fixed):
    """(levels, spin-flip matrix) of the one Hamiltonian of ``fixed``, as an
    ESD search forms them."""
    table = device._coefficient_table(fixed, {}, np.zeros(1))[0]
    w, v = np.linalg.eigh(device._hamiltonians(table).real)
    return w, correlations._spin_flip(v)


def _gibbs_concurrences(w, m, temperatures):
    """Concurrences of the Gibbs states of levels w at temperatures T (N x 1),
    as an ESD search takes them: Wootters' kernel on their checked Boltzmann
    spectra and the spin-flip matrix m."""
    return correlations._wootters(device._boltzmann_spectra(w, temperatures)[0], m)


_GIBBS_TEMPERATURES = np.array([0.0, *np.geomspace(1e-4, 1.0, 8)])


@functools.cache
def _wootters_50_digits():
    """(device, 50-digit concurrences at _GIBBS_TEMPERATURES) of 40 seeded
    devices: 360 Gibbs states, X-shaped and general."""
    pytest.importorskip("mpmath")
    return [(fixed, np.array(concurrences_50_digits(device.effective_params(fixed),
                                                    _GIBBS_TEMPERATURES.tolist())))
            for fixed in _seeded_devices(52, 40)]


class TestGibbsConcurrences:
    """The ESD search's concurrence, read from the Boltzmann weights."""

    def test_matches_the_concurrence_of_each_built_state(self):
        entangled = 0
        for fixed in _seeded_devices(51, 24):
            values = _gibbs_concurrences(*_gibbs_family(fixed), _GIBBS_TEMPERATURES[:, None])
            expected = [concurrence(thermal_state(fixed, t)) for t in _GIBBS_TEMPERATURES.tolist()]
            assert np.abs(values - expected).max() <= 2e-12
            entangled += np.count_nonzero(values > 0.0)
        assert entangled >= 24

    def test_matches_wootters_at_50_digits(self):
        worst = 0.0
        for fixed, exact in _wootters_50_digits():
            values = _gibbs_concurrences(*_gibbs_family(fixed), _GIBBS_TEMPERATURES[:, None])
            worst = max(worst, np.abs(values - exact).max())
        assert worst <= 2e-15

    def test_each_state_built_as_a_sweep_chunk_matches_wootters_at_50_digits(self):
        # A chunk's general states take Wootters' kernel on the eigenvectors
        # and Boltzmann spectra they are built from, which no eigh of rho
        # rounds off.
        worst = 0.0
        for fixed, exact in _wootters_50_digits():
            values = built_measures(fixed, ThermalSpec(0.0), [("temperature", _GIBBS_TEMPERATURES)],
                                    ("concurrence",))["concurrence"]
            worst = max(worst, np.abs(values - exact).max())
        assert worst <= 2e-15

    def test_each_built_state_matches_wootters_at_50_digits(self):
        # Passed in from outside, a state takes its eigenvectors and spectrum
        # from an eigh of rho, whose near-zero eigenvalues carry round-off of
        # about 1e-17.  Square roots of the eigenvalues of Wootters' matrix
        # lost more digits on near-pure states, up to 2.2e-10 here.
        worst = 0.0
        for fixed, exact in _wootters_50_digits():
            values = [concurrence(thermal_state(fixed, t)) for t in _GIBBS_TEMPERATURES.tolist()]
            worst = max(worst, np.abs(values - exact).max())
        assert worst <= 5e-12

    def test_ground_space_mixture_of_a_degenerate_hamiltonian(self):
        # H = 0: every level is ground, so T = 0 gives I/4, which is separable.
        values = _gibbs_concurrences(
            *_gibbs_family(EffectiveParams.symmetric(0.0, 0.0)), np.array([[0.0], [0.5]]))
        assert values.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("bad, message", [(-1e-3, "negative eigenvalue"),
                                              (math.nan, "non-finite")])
    def test_weights_are_checked_as_a_state_spectrum(self, monkeypatch, bad, message):
        boltzmann_weights = device._boltzmann_weights

        def spoiled(w, temperatures):
            weights, cold = boltzmann_weights(w, temperatures)
            weights[:, -1] = bad
            return weights, cold

        monkeypatch.setattr(device, "_boltzmann_weights", spoiled)
        with pytest.raises(NotAStateError, match=message):
            _gibbs_concurrences(*_gibbs_family(EffectiveParams.symmetric(1.0, 2.0)),
                                np.array([[0.5]]))


def _built_path(fixed, changes: dict, temperatures) -> dict:
    """Every measure column of the states of ``fixed`` with ``changes`` at
    ``temperatures``, as a sweep chunk measures them (routed by
    device._thermal_rows: X rows in closed form, the others built real by
    eigh, measured on their checked Boltzmann spectra), with their
    coefficient table and which rows are X rows."""
    table = device._coefficient_table(fixed, changes, np.asarray(temperatures, dtype=float))
    rows = device._thermal_rows(*table)
    return {**correlations._measure(*rows, correlations.MEASURES),
            "table": table[0], "x": rows[0]}


class TestBuiltStatePath:
    """Built states measured on their Boltzmann spectra give what the complex
    definitional path gives: gibbs_state of build_hamiltonian, validated and
    measured by correlation_reports."""

    def test_matches_the_definitional_path(self):
        rng = np.random.default_rng(61)
        count = 60
        temperatures = rng.choice([0.0, 1e-5, 1e-4, 1e-3, 5e-3, 0.02, 0.1], count)
        changes = {
            # phi_e away from 1/2 for most points (general states), at 1/2
            # for the rest (X states).
            "phi_e": np.where(np.arange(count) % 4 == 0, 0.5,
                              0.5 + rng.choice([-1.0, 1.0], count) * rng.uniform(0.05, 0.45, count)),
            "v_x1": rng.uniform(5e-6, 1.2e-4, count), "v_x2": rng.uniform(5e-6, 1.2e-4, count),
            "phi_x1": rng.uniform(0.0, 1.0, count), "phi_x2": rng.uniform(0.0, 1.0, count)}
        built = _built_path(DeviceParams(), changes, temperatures)
        reports = correlations.correlation_reports([
            device.gibbs_state(device.build_hamiltonian(EffectiveParams(*row)), ThermalSpec(t))
            for row, t in zip(built["table"].tolist(), temperatures.tolist())])
        # Near-pure states at the lowest temperatures are among them.
        assert min(r.mutual_information for r in reports) < 1e-6 < max(r.concurrence for r in reports)
        is_x = built["x"]
        assert 0 < np.count_nonzero(is_x) < count
        for measure in ("mutual_information", "discord", "concurrence", "eof"):
            definitional = np.array([getattr(r, measure) for r in reports])
            error = np.abs(built[measure] - definitional)
            if measure == "concurrence":
                # On the definitional path a general state takes its
                # eigenvectors from an eigh of rho, which turns round-off in a
                # near-pure state into errors of up to 4e-12 against 50
                # digits (TestGibbsConcurrences bounds it by 5e-12, and the
                # built path's by 2e-15).
                assert error[~is_x].max() <= 1e-11
                error = error[is_x]
            assert error.max() <= 1e-14, measure

    def test_degenerate_ground_space_has_exactly_zero_discord(self):
        # eps = 0, j = 2: a twofold ground space, whose uniform mixture is a
        # classical-quantum state.
        fixed = EffectiveParams.symmetric(0.0, 2.0)
        built = _built_path(fixed, {}, [0.0])
        assert built["discord"].tolist() == [0.0]
        spec = sweep.SweepSpec("temperature", 0.0, 0.1, fixed, steps=3, measures=("discord",))
        assert sweep.sweep_1d(spec)[0].tolist() == [0.0, 0.0]
        assert quantum_discord(thermal_state(fixed, 0.0)).discord == 0.0


def _eigh_path(table, temperatures, side: str = "first") -> dict:
    """Every measure column of coefficient rows at their temperatures by the
    definitional chain, as every built row was measured before rows with
    ej1 = ej2 = 0 took their parity blocks: build_hamiltonian, np.linalg.eigh
    and device._gibbs_states, then mutual information from eigvalsh of the
    reduced states, the X search on states X-shaped within X_SHAPE_TOL (the
    general one on the others), and the X or Wootters concurrence."""
    h = np.array([device.build_hamiltonian(EffectiveParams(*row)) for row in table.tolist()])
    states, p, v = device._gibbs_states(*np.linalg.eigh(h), temperatures[:, None])
    mi, marginals = correlations._mutual_information(states, p)
    is_x, entries = correlations._x_entries(states)
    measured = measured_first(states, side)
    best, theta, phi = np.empty((3, len(states)))
    if is_x.any():
        best[is_x], theta[is_x], phi[is_x], _ = correlations._maximize_x(
            correlations._x_entries(measured[is_x])[1])
    if not is_x.all():
        best[~is_x], theta[~is_x], phi[~is_x], _ = correlations._maximize_general(
            measured[~is_x])
    cc = np.maximum(0.0, marginals[:, correlations._KEPT[side]] - best)
    discord, cc = correlations._clamp_classical(mi, cc)
    c = correlations._wootters(p, correlations._spin_flip(v))
    pops = entries[:, :4]
    c12 = np.abs(entries[:, 4:]) - np.sqrt(np.maximum(pops[:, [1, 0]] * pops[:, [2, 3]], 0.0))
    c[is_x] = np.minimum(1.0, 2.0 * np.maximum(0.0, c12.max(1)))[is_x]
    return {"mutual_information": mi, "classical_correlation": cc, "discord": discord,
            "concurrence": c, "eof": correlations._eof_column(c), "theta": theta, "phi": phi,
            "x": is_x, "entries": entries, "states": states}


def _x_edge_rows():
    """(coefficient table, temperatures) of rows with ej1 = ej2 = 0 at the
    edges of the closed form, each at T = 0 and at positive temperatures."""
    rng = np.random.default_rng(71)
    rows = [
        (0.0, 0.0, 0.0, 0.0, 0.7), (0.0, 0.0, 0.0, 0.0, -2.0),   # degenerate ground space
        (0.0, 0.0, 0.0, 0.0, 0.0),                                # H = 0
        (1.3, -1.3, 0.0, 0.0, 0.4), (-0.6, 0.6, 0.0, 0.0, -0.9),  # eps1 + eps2 = 0
        (1.3, 1.3, 0.0, 0.0, 0.4), (-0.6, -0.6, 0.0, 0.0, -0.9),  # eps1 - eps2 = 0
        (2.0, 0.0, 0.0, 0.0, 0.0), (-1.0, 0.5, 0.0, 0.0, 0.0),    # diagonal H
        (3e-12, 0.02, 0.0, 0.0, -1.5e-3), (-3e-12, 0.02, 0.0, 0.0, 1.5e-3),  # eps1 near 0
        (1e-9, 1e-9, 0.0, 0.0, 1e-3), (5.0, -4.0, 0.0, 0.0, 1e-12),
    ]
    rows += [(e1 * s1, e2 * s2, 0.0, 0.0, j * s3) for e1, e2, j in rng.uniform(0.0, 3.0, (24, 3))
             for s1, s2, s3 in [rng.choice([-1.0, 1.0], 3)]]
    table = np.array([row for row in rows for _ in range(4)])
    temperatures = np.tile([0.0, 1e-3, 0.3, 4.0], len(rows))
    return table, temperatures


class TestXRows:
    """Rows with ej1 = ej2 = 0 take their entries and spectra from their
    parity blocks: what the definitional chain, eigh of the 4 x 4
    Hamiltonian, gives them to round-off, and no eigh."""

    def assert_matches_the_eigh_path(self, table, temperatures, side="first", tolerance=1e-14):
        x, entries, states, w, v = device._thermal_rows(table, temperatures)
        assert x.all() and len(states) == 0
        built = correlations._measure(x, entries, states, w, v, correlations.MEASURES, side)
        reference = _eigh_path(table, temperatures, side)
        for measure in correlations.MEASURES:
            error = np.abs(built[measure] - reference[measure])
            assert (error <= tolerance).all(), (measure, error.max())
        # Where a block holds no population, the state is pure in the other:
        # both ends of theta are optimal and the azimuth of the empty block's
        # coherence is arbitrary, so round-off picks the angles.  There, and
        # where eigh left the X pattern, the built row's measurement leaves
        # the reference state the conditional entropy of the reference's own.
        p = reference["entries"][:, :4].real
        same = reference["x"] & (np.minimum(p[:, 0] * p[:, 3], p[:, 1] * p[:, 2]) > 1e-30)
        for angle in ("theta", "phi"):
            assert built[angle][same].tobytes() == reference[angle][same].tobytes(), angle
        bloch = correlations._bloch(measured_first(reference["states"][~same], side))
        (theta, theta_ref), (phi, phi_ref) = [(built[a][~same], reference[a][~same])
                                              for a in ("theta", "phi")]
        n = np.array([[np.sin(t) * np.cos(f), np.sin(t) * np.sin(f), np.cos(t)]
                      for t, f in ((theta, phi), (theta_ref, phi_ref))]).transpose(2, 1, 0)
        values = correlations._cond_entropy(bloch, n)
        bound = np.broadcast_to(tolerance, same.shape)[~same]
        assert (np.abs(values[:, 0] - values[:, 1]) <= bound).all()
        return reference

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_seeded_device_rows_match_the_eigh_path(self, side):
        rng = np.random.default_rng(72)
        count = 256
        changes = {"v_x1": rng.uniform(5e-6, 1.2e-4, count),
                   "v_x2": rng.uniform(5e-6, 1.2e-4, count),
                   "phi_x1": rng.uniform(-1.0, 1.0, count), "phi_x2": rng.uniform(-1.0, 1.0, count)}
        temperatures = rng.choice([0.0, 1e-5, 1e-4, 1e-3, 5e-3, 0.02, 0.1], count)
        table = device._coefficient_table(DeviceParams(), changes, temperatures)[0]
        reference = self.assert_matches_the_eigh_path(table, temperatures, side)
        assert reference["x"].all()
        assert min(reference["mutual_information"]) < 1e-6 < max(reference["concurrence"])

    @pytest.mark.parametrize("side", ["first", "second"])
    def test_edge_rows_match_the_eigh_path(self, side):
        self.assert_matches_the_eigh_path(*_x_edge_rows(), side)

    def test_ratios_up_to_1e5_where_the_weights_underflow(self):
        # At 1e-5 K the weights of all but the two lowest levels underflow.
        # Up to j/eps = 1e4 every measure agrees within 1e-14.  Above it the
        # gap of those two levels, R - r with R = hypot(2, j/eps) and r =
        # j/eps, is a difference of numbers near R on both paths, and its
        # round-off, amplified by R/T, is more than 1e-14: there the paths
        # agree within the band RATIO_BAND (1 + R/T) that bounds it, and the
        # closed form's mutual information is as near its 50-digit value.
        ratios = np.geomspace(0.1, 1e5, 200)
        r = np.hypot(2.0, np.repeat(ratios, 2))
        band = np.where(r <= 1e4, 1e-14, sweep.RATIO_BAND * (1.0 + r / 1e-5))
        for eps in (1.0, -1.0):
            table = np.array([(eps, eps, 0.0, 0.0, x * eps * sign) for x in ratios
                              for sign in (1.0, -1.0)])
            temperatures = np.full(len(table), 1e-5)
            reference = self.assert_matches_the_eigh_path(table, temperatures, tolerance=band)
        pytest.importorskip("mpmath")
        built = built_measures(EffectiveParams.symmetric(1.0, 0.0), ThermalSpec(1e-5),
                               [("ratio_j_over_eps", ratios[-6:])], ("mutual_information",))
        for x, mi, mi_ref in zip(ratios[-6:], built["mutual_information"],
                                 reference["mutual_information"][-12::2]):
            exact = mutual_information_50_digits(EffectiveParams.symmetric(1.0, x), 1e-5)
            assert abs(mi - exact) <= abs(mi_ref - exact) + 1e-14

    def test_degenerate_ground_space_is_the_uniform_mixture(self):
        entries, p = device._x_stack(np.array([(0.0, 0.0, 0.0, 0.0, 0.7), (0.0,) * 5]),
                                     np.zeros(2))
        assert p.tolist() == [[0.5, 0.5, 0.0, 0.0], [0.25] * 4]
        assert entries.tolist() == [[0.25] * 4 + [-0.25, -0.25], [0.25] * 4 + [0.0, 0.0]]

    def test_a_row_gets_its_bits_alone(self):
        table, temperatures = _x_edge_rows()
        entries, p = device._x_stack(table, temperatures)
        for k in range(0, len(table), 7):
            alone = device._x_stack(table[k : k + 1], temperatures[k : k + 1])
            assert alone[0].tobytes() == entries[k].tobytes()
            assert alone[1].tobytes() == p[k].tobytes()

    def test_near_degenerate_blocks_stay_x_states(self, monkeypatch):
        # Near the charge-degeneracy point (eps1 near 0) the two blocks' lower
        # levels nearly coincide.  eigh of the 4 x 4 Hamiltonian mixed their
        # eigenvectors, leaving 39 of these 19,200 states off the X pattern,
        # for the general search; closed-form blocks cannot mix.
        rng = np.random.default_rng(11)
        general = []
        search = correlations._maximize_general
        monkeypatch.setattr(correlations, "_maximize_general",
                            lambda states: general.append(len(states)) or search(states))
        e_over_c = device.CONSTANTS.e / DeviceParams().c
        temperatures = np.concatenate([[0.0], np.geomspace(1e-5, 0.1, 63)])
        evaluations = []
        for _ in range(300):
            fixed = DeviceParams(v_x1=e_over_c * (1.0 + rng.uniform(-1e-2, 1e-2)),
                                 v_x2=rng.uniform(5e-6, 1.2e-4),
                                 phi_x1=rng.uniform(-1.0, 1.0), phi_x2=rng.uniform(-1.0, 1.0))
            table, _ = sweep._chunk_controls(fixed, ThermalSpec(0.0),
                                             [("temperature", temperatures)])
            assert device._x_rows(table).all()
            evaluations.append(built_measures(fixed, ThermalSpec(0.0),
                                              [("temperature", temperatures)],
                                              ("discord",))["optimizer_evaluations"])
        evaluations = np.concatenate(evaluations)
        assert len(evaluations) == 19_200 and general == []
        assert all(ran_x_path(k) for k in evaluations.tolist())


class TestEof:
    def test_column_equals_eof_from_concurrence_bit_for_bit(self):
        rng = np.random.default_rng(62)
        below_one = 1.0 - np.arange(1, 65) * 2.0**-53
        c = np.concatenate([
            [0.0, 1.0, 1e-300, 5e-324, 1e-154, 1e-8, 0.5, np.nextafter(1.0, 0.0)], below_one,
            rng.uniform(0.0, 1.0, 2000), rng.uniform(0.0, 1e-6, 200),
            10.0 ** rng.uniform(-320.0, 0.0, 200), 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, 200)])
        assert correlations._eof_column(c).tolist() == [eof_from_concurrence(v) for v in c.tolist()]
        assert correlations._eof_column(np.empty(0)).shape == (0,)

    def test_column_and_scalar_are_within_2e_15_of_50_digits(self):
        # H(tau) with tau = (1 + sqrt(1 - C^2))/2 near 1 lost digits to 1 - tau
        # (up to 3.4e-4 relative for C in 1e-6..1e-4, and 0 below 1.05e-8).
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(29)
        c = np.concatenate([[0.0, 5e-324, 1e-300, 1.0], 10.0 ** rng.uniform(-12.0, 0.0, 2000)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            column = correlations._eof_column(c)
            scalar = [eof_from_concurrence(v) for v in c.tolist()]
        assert column.tolist() == scalar
        assert not np.signbit(column).any()
        assert not np.signbit(scalar).any()
        expected = np.array([eof_50_digits(v) for v in c.tolist()])
        assert np.all(np.abs(column - expected) <= 2e-15 * expected)

    def test_keeps_its_digits_where_c_squared_is_not_a_normal_float(self):
        # Below C = 1.49e-154, C^2 loses digits as it underflows: EoF was off
        # by 1.1e-13 relative near C = 1e-155 and by 1.1e-3 near 1e-160.
        pytest.importorskip("mpmath")
        rng = np.random.default_rng(71)
        c = np.concatenate([10.0 ** rng.uniform(-160.0, -150.0, 3000),
                            [1e-160, 1e-150, 1.4916681462400413e-154, 1.4916681462400414e-154]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            column = correlations._eof_column(c)
        assert column.tolist() == [eof_from_concurrence(v) for v in c.tolist()]
        expected = np.array([eof_50_digits(v) for v in c.tolist()])
        # Both sides of the smallest normal float are among the values.
        assert expected.min() < np.finfo(float).tiny < expected.max()
        assert np.all(np.abs(column - expected) <= 2e-15 * expected + 2.0**-1074)

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

    @pytest.mark.parametrize("tau", [1.5, -0.2, 1.0 + 1e-15, float("nan"), float("inf")])
    def test_binary_entropy_rejects_a_bias_outside_0_1(self, tau):
        with pytest.raises(InvalidParameterError, match=r"tau must be in \[0, 1\]"):
            binary_entropy(tau)


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

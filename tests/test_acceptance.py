"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools

import numpy as np
import pytest

from jcqsim.cli import main
from jcqsim.correlations import concurrence, eof, quantum_discord
from jcqsim.device import (
    EffectiveParams,
    ThermalSpec,
    build_hamiltonian,
    gibbs_state,
    thermal_state,
)
from jcqsim.sweep import figure_preset, esd_temperature, sweep_1d, sweep_2d

from helpers import pure_state, random_density_matrix, random_unitary_2, random_x_state
from oracles import (
    closed_form_thermal,
    discord_grid_oracle,
    ground_state_discord_analytic,
    von_neumann_entropy,
)


def verdict(name: str, ok: bool, detail: str = "") -> bool:
    suffix = f"  [{detail}]" if detail else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    return ok


@pytest.fixture(scope="module")
def fig2b_rows():
    return {
        spec.thermal.temperature: sweep_1d(spec)[:, 1].tolist()
        for spec in figure_preset("fig2b")
    }


@pytest.fixture(scope="module")
def fig4_rows():
    out = {}
    for spec in figure_preset("fig4"):
        columns = sweep_1d(spec).T.tolist()
        out[spec.thermal.temperature] = dict(zip(("theta", "discord", "eof"), columns))
    return out


@pytest.fixture(scope="module")
def fig5_surfaces():
    out = {}
    for spec_x, spec_y in figure_preset("fig5"):
        grid = sweep_2d(spec_x, spec_y)[:, 2]
        out[spec_x.thermal.temperature] = grid.reshape(spec_y.steps, spec_x.steps)
    return out


def test_criterion_1_closed_form_matches_gibbs():
    rng = np.random.default_rng(20260809)
    worst = 0.0
    for _ in range(1000):
        eps = rng.uniform(-5.0, 5.0)
        j = 0.0
        while j == 0.0:
            j = rng.uniform(-5.0, 5.0)
        t = rng.uniform(1e-12, 10.0)
        eff = EffectiveParams.symmetric(eps, j)
        direct = gibbs_state(build_hamiltonian(eff), ThermalSpec(t))
        worst = max(worst, float(np.abs(closed_form_thermal(eff, t) - direct).max()))
    ok = worst <= 1e-10
    assert verdict("1 closed-form/Gibbs equivalence", ok, f"worst entrywise {worst:.2e}")


def test_criterion_2_analytic_ground_state_oracle():
    worst = 0.0
    for ratio in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 25.0, 50.0):
        numeric = quantum_discord(
            thermal_state(EffectiveParams.symmetric(1.0, ratio), 0.0)
        ).discord
        analytic = ground_state_discord_analytic(1.0, ratio)
        worst = max(worst, abs(numeric - analytic))
    ok = worst <= 5e-5
    assert verdict("2 analytic vs optimized T=0 discord", ok, f"worst {worst:.2e}")


def test_criterion_3_headline_discord_value():
    at_50 = ground_state_discord_analytic(1.0, 50.0)
    at_25 = ground_state_discord_analytic(1.0, 25.0)
    # derived cross-check of the recorded ratio-25 value: entanglement
    # entropy of the numerically diagonalized ground state
    rho = thermal_state(EffectiveParams.symmetric(1.0, 25.0), 0.0)
    from jcqsim.qmath import partial_trace

    numeric_25 = von_neumann_entropy(partial_trace(rho, "first"))
    ok = abs(at_50 - 0.9988) <= 5e-4 and abs(at_25 - numeric_25) <= 5e-5
    assert verdict(
        "3 headline value 0.9988 at j = 50 eps",
        ok,
        f"D(50)={at_50:.6f}, recorded D(25)={at_25:.6f}",
    )


def test_criterion_4_asymptote_and_limits():
    tail = quantum_discord(
        thermal_state(EffectiveParams.symmetric(1.0, 200.0), 0.0)
    ).discord
    symmetric_analytic = ground_state_discord_analytic(0.0, 1.0)
    # the eps -> 0 ground state within the symmetric sector is a Bell state
    bell = pure_state([1.0, 0.0, 0.0, -1.0])
    symmetric_numeric = quantum_discord(bell).discord
    uncoupled = quantum_discord(
        thermal_state(EffectiveParams.symmetric(1.0, 0.0), 0.0)
    ).discord
    ok = (
        tail >= 0.999
        and abs(symmetric_analytic - 1.0) <= 1e-6
        and abs(symmetric_numeric - 1.0) <= 1e-6
        and uncoupled <= 1e-9
    )
    assert verdict(
        "4 asymptote and limits",
        ok,
        f"D(200)={tail:.6f}, D(eps=0)={symmetric_numeric:.9f}, D(j=0)={uncoupled:.1e}",
    )


def test_criterion_5_monotonicity_in_temperature(fig2b_rows):
    temps = sorted(fig2b_rows)
    worst = -np.inf
    for t1, t2 in itertools.combinations(temps, 2):
        hot = np.asarray(fig2b_rows[t2])
        cold = np.asarray(fig2b_rows[t1])
        worst = max(worst, float((hot - cold).max()))
    ok = worst <= 1e-6
    assert verdict("5 discord nonincreasing in T", ok, f"worst increase {worst:.2e}")


def test_criterion_6_optimizer_vs_grid_oracle():
    rng = np.random.default_rng(42)
    worst = 0.0
    worst_below = 0.0
    for _ in range(100):
        rho = random_x_state(rng)
        optimized = quantum_discord(rho).discord
        gridded = discord_grid_oracle(rho, "first", 721, 1441)
        worst = max(worst, abs(optimized - gridded))
        worst_below = max(worst_below, gridded - optimized)
    ok = worst <= 5e-5 and worst_below <= 5e-5
    assert verdict("6 optimizer vs 721x1441 grid oracle", ok, f"worst |diff| {worst:.2e}")


def test_criterion_7_esd_with_surviving_discord():
    spec = figure_preset("fig3")[0]          # V_X = 7.5 uV series
    point = esd_temperature(spec.fixed, t_max=1.0, tol=1e-6)
    rho_past = thermal_state(spec.fixed, 2.0 * point.location)
    conc_past = concurrence(rho_past)
    discord_past = quantum_discord(rho_past).discord
    ok = (
        np.isfinite(point.location)
        and 0.0 < point.location < 1.0
        and conc_past == 0.0
        and discord_past > 1e-4
    )
    assert verdict(
        "7 ESD found, discord survives",
        ok,
        f"T_c={point.location:.6g} K, discord(2 T_c)={discord_past:.3e}",
    )


def test_criterion_8_flux_periodicity(fig4_rows):
    steps = 501
    shift = (steps - 1) // 2                 # grid distance for theta -> theta + 1
    worst = 0.0
    ok = True
    for series in fig4_rows.values():
        for measure in ("discord", "eof"):
            values = series[measure]
            for i in range(steps - shift):
                worst = max(worst, abs(values[i + shift] - values[i]))
    ok &= worst <= 1e-10
    zero_series = fig4_rows[0.0]["discord"]
    peak = max(zero_series)
    at_integers = max(zero_series[0], zero_series[shift], zero_series[2 * shift])
    ok &= peak <= at_integers + 1e-12
    assert verdict(
        "8 flux periodicity, T=0 maxima at integers",
        ok,
        f"worst period defect {worst:.2e}",
    )


def test_criterion_9_flux_surface_properties(fig5_surfaces):
    cold = fig5_surfaces[0.0]
    warm = fig5_surfaces[0.01]
    asymmetry = float(np.abs(cold - cold.T).max())
    theta = np.linspace(0.0, 2.0, cold.shape[0])
    half = [i for i, v in enumerate(theta) if abs(v - 0.5) < 1e-12 or abs(v - 1.5) < 1e-12]
    line_max = max(
        float(np.abs(cold[i, :]).max()) for i in half
    )
    line_max = max(line_max, max(float(np.abs(cold[:, i]).max()) for i in half))
    dominance_defect = float((warm - cold).max())
    ok = asymmetry <= 1e-12 and line_max <= 1e-9 and dominance_defect <= 1e-9
    assert verdict(
        "9 fig5 surface symmetric, zero lines, thermal dominance",
        ok,
        f"asym {asymmetry:.1e}, line {line_max:.1e}, dom {dominance_defect:.1e}",
    )


def test_criterion_10_local_unitary_invariance():
    rng = np.random.default_rng(7)
    worst_discord = 0.0
    worst_conc = 0.0
    worst_eof = 0.0
    for _ in range(200):
        rho = random_density_matrix(rng, 4)
        u = np.kron(random_unitary_2(rng), random_unitary_2(rng))
        rotated = u @ rho @ u.conj().T
        worst_discord = max(
            worst_discord,
            abs(quantum_discord(rotated).discord - quantum_discord(rho).discord),
        )
        worst_conc = max(worst_conc, abs(concurrence(rotated) - concurrence(rho)))
        worst_eof = max(worst_eof, abs(eof(rotated) - eof(rho)))
    ok = worst_discord <= 5e-5 and worst_conc <= 1e-10 and worst_eof <= 1e-10
    assert verdict(
        "10 local-unitary invariance",
        ok,
        f"discord {worst_discord:.2e}, concurrence {worst_conc:.2e}, eof {worst_eof:.2e}",
    )


def test_criterion_11_threaded_determinism(tmp_path):
    single = tmp_path / "fig2a_t1.csv"
    pooled = tmp_path / "fig2a_t8.csv"
    assert main(["figure", "fig2a", "--out", str(single), "--threads", "1"]) == 0
    assert main(["figure", "fig2a", "--out", str(pooled), "--threads", "8"]) == 0
    ok = single.read_bytes() == pooled.read_bytes()
    assert verdict("11 byte-identical CSV across thread counts", ok)

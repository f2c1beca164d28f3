import importlib
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from jcqsim.device import (
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    effective_params,
    thermal_state,
)
from jcqsim.errors import (
    BracketError,
    InvalidParameterError,
    NotAStateError,
    SpecValidationError,
)
from jcqsim import device, sweep
from jcqsim.cli import main
from jcqsim.sweep import (
    CHUNK_POINTS,
    FIG2B_TEMPERATURES,
    FIG3_VOLTAGES,
    FIG4_TEMPERATURES,
    FIG5_TEMPERATURES,
    CriticalPoint,
    SweepSpec,
    esd_temperature,
    figure_preset,
    optimal_ratio,
    sweep_1d,
    sweep_2d,
)
from jcqsim.correlations import concurrence, quantum_discord

from helpers import (
    apply_axes,
    breadth_first_bisection,
    built_measures,
    plain_bisection,
    plain_controls,
    plain_golden_section,
    plain_x_discord,
)
from oracles import ground_state_discord_analytic


_HALF_MAX = 0.5 * np.finfo(float).max
# Intrabit couplings put its Gibbs states off the X shape, so its ESD search
# takes the stacked path (sweep._bisection).
NOT_X = EffectiveParams(0.02, 0.02, 0.005, 0.005, -0.02)


def ratio_spec(**overrides):
    kwargs = dict(
        variable="ratio_j_over_eps",
        start=0.1,
        stop=50.0,
        fixed=EffectiveParams.symmetric(1.0, 0.0),
        steps=26,
        thermal=ThermalSpec(0.0),
        measures=("discord",),
    )
    kwargs.update(overrides)
    return SweepSpec(**kwargs)


class TestSweepSpecValidation:
    def test_reversed_range_rejected(self):
        with pytest.raises(SpecValidationError):
            ratio_spec(start=2.0, stop=1.0)

    @pytest.mark.parametrize("start, stop, steps", [
        (-1e308, 1e308, 26), (-1e308, 8e307, 26),
        # A finite width whose last np.linspace step overflows.
        (-_HALF_MAX, _HALF_MAX, 7),
    ])
    def test_axis_that_overflows_rejected(self, start, stop, steps):
        with pytest.raises(SpecValidationError, match="overflows a float"):
            ratio_spec(start=start, stop=stop, steps=steps)

    @pytest.mark.parametrize("steps", [2, 3, 501])
    def test_widest_axis_that_fits_is_accepted(self, steps):
        spec = ratio_spec(start=-_HALF_MAX, stop=_HALF_MAX, steps=steps)
        with np.errstate(all="raise"):
            assert np.isfinite(spec.axis).all()

    def test_too_few_steps_rejected(self):
        with pytest.raises(SpecValidationError):
            ratio_spec(steps=1)

    def test_unknown_variable_rejected(self):
        with pytest.raises(SpecValidationError):
            ratio_spec(variable="frequency")

    def test_unknown_measure_rejected(self):
        with pytest.raises(SpecValidationError):
            ratio_spec(measures=("negativity",))

    def test_ratio_needs_effective_params(self):
        with pytest.raises(SpecValidationError):
            ratio_spec(fixed=DeviceParams())

    def test_flux_needs_device_params(self):
        with pytest.raises(SpecValidationError):
            SweepSpec(
                "phi_x_common", 0.0, 1.0, EffectiveParams.symmetric(1.0, 1.0), steps=3
            )

    def test_measures_are_canonically_ordered(self):
        spec = ratio_spec(measures=("eof", "discord", "mutual_information"))
        assert spec.measures == ("mutual_information", "discord", "eof")

    def test_axis_is_uniform_and_endpoint_inclusive(self):
        spec = ratio_spec(start=0.0, stop=1.0, steps=5)
        assert np.allclose(spec.axis, [0.0, 0.25, 0.5, 0.75, 1.0])

    @pytest.mark.parametrize("start, stop, steps", [
        (0.0, 1.0, 11), (0.1, 50.0, 501), (-1.0, 3.0, 200_001), (5e-6, 1e-4, 25),
        (1e-300, 1e-299, 5), (1.0, 1.0 + 2.0**-50, 9), (-1e307, 1e307, 3), (2, 7, 6),
        # A subnormal step, and steps that underflow to 0, which linspace
        # takes as index / (steps - 1) times the span.
        (0.0, 1e-320, 7), (0.0, 5e-324, 3), (0.0, 1e-322, 1000), (-5e-324, 5e-324, 4),
    ])
    def test_chunk_axis_values_equal_linspace_bit_for_bit(self, start, stop, steps):
        expected = np.linspace(start, stop, steps)
        axis = sweep._Linspace(start, stop, steps)
        assert len(axis) == steps
        assert axis[np.arange(steps)].tobytes() == expected.tobytes()
        chunks = np.array_split(np.arange(steps), max(1, steps // sweep.CHUNK_POINTS))
        assert np.concatenate([axis[i] for i in chunks]).tobytes() == expected.tobytes()
        index = np.random.default_rng(steps).integers(0, steps, 50)
        assert axis[index].tobytes() == expected[index].tobytes()


class TestSweep1d:
    def test_ratio_sweep_monotone_and_matches_analytic(self):
        table = sweep_1d(ratio_spec(steps=26))
        discords = table[:, 1].tolist()
        assert all(b >= a - 1e-9 for a, b in zip(discords, discords[1:]))
        for x, d in zip(table[:, 0].tolist(), discords):
            assert d == pytest.approx(
                ground_state_discord_analytic(1.0, x), abs=5e-5
            )
        assert discords[-1] > 0.998

    def test_temperature_sweep_is_nonincreasing(self):
        spec = SweepSpec(
            "temperature", 0.02, 2.0, EffectiveParams.symmetric(1.0, 2.0),
            steps=26, measures=("discord",),
        )
        discords = sweep_1d(spec)[:, 1].tolist()
        assert all(b <= a + 1e-6 for a, b in zip(discords, discords[1:]))

    def test_common_flux_sweep_is_one_periodic(self):
        spec = SweepSpec(
            "phi_x_common", 0.0, 2.0, DeviceParams(),
            steps=41, thermal=ThermalSpec(0.0), measures=("discord",),
        )
        values = sweep_1d(spec)[:, 1].tolist()
        for i in range(20):
            assert values[i + 20] == pytest.approx(values[i], abs=1e-10)
        # maxima sit at the integer flux points
        peak = max(values)
        assert values[0] == pytest.approx(peak, abs=1e-12)
        assert values[20] == pytest.approx(peak, abs=1e-12)
        assert values[40] == pytest.approx(peak, abs=1e-12)

    def test_rows_unchanged_across_a_chunk_boundary(self):
        spec = ratio_spec(steps=CHUNK_POINTS + 6, thermal=ThermalSpec(0.3),
                          measures=("discord", "eof"))
        alone = [built_measures(spec.fixed, spec.thermal, [(spec.variable, np.array([x]))],
                                spec.measures) for x in spec.axis]
        table = sweep_1d(spec)
        assert sweep_1d(spec).tobytes() == table.tobytes()
        # Columns: ratio, discord, eof; each row the bits its state gets alone.
        for (_, discord, eof), columns in zip(table.tolist(), alone):
            assert (discord, eof) == (columns["discord"][0], columns["eof"][0])
        # The public path, from each state's own spectrum, agrees to round-off.
        for (x, discord, eof) in table.tolist():
            report = quantum_discord(thermal_state(EffectiveParams.symmetric(1.0, x), 0.3))
            assert abs(discord - report.discord) <= 1e-14
            assert abs(eof - report.eof) <= 1e-14

    def test_requested_measures_only(self):
        spec = ratio_spec(steps=3, measures=("concurrence", "eof"))
        table = sweep_1d(spec)
        assert spec.measures == ("concurrence", "eof")
        assert table.shape == (3, 3)
        for x, c, _ in table.tolist():
            assert c == concurrence(thermal_state(EffectiveParams.symmetric(1.0, x), 0.0))

    def test_discord_outlives_entanglement_in_temperature_rows(self):
        # past the sudden-death point entanglement is exactly zero while
        # discord is still well above noise
        from dataclasses import replace

        spec = replace(figure_preset("fig3")[0], steps=51)
        # Columns: temperature, discord, concurrence, eof.
        survivors = [
            row for row in sweep_1d(spec).tolist()
            if row[2] == 0.0 and row[1] > 1e-4
        ]
        assert survivors

    @pytest.mark.parametrize(
        "measures",
        [("mutual_information", "discord", "concurrence"), ("mutual_information", "concurrence")],
    )
    def test_one_validation_and_three_spectra_per_state(self, monkeypatch, measures):
        # Every row of the chunk has ej1 = ej2 = 0: its spectrum is the
        # Boltzmann weights of its closed-form block levels, checked once as
        # a spectrum, and its marginals are diagonal, so no eigh or eigvalsh
        # runs.  The rows skip the public validation, and concurrence takes
        # its closed form.
        calls = self.count_linear_algebra(monkeypatch, DeviceParams(), measures)
        assert calls == {"eigh": 0, "eigvalsh": 0, "svd": 0, "validated": CHUNK_POINTS,
                         "public": 0}

    @pytest.mark.parametrize("measures, eigvalsh", [
        (("mutual_information", "concurrence"), 2), (("eof",), 1)])
    def test_general_chunk_concurrence_takes_no_second_eigh(self, monkeypatch, measures,
                                                            eigvalsh):
        # General states (phi_e off 1/2) take Wootters' kernel on the
        # eigenvectors the chunk's one eigh built them from: one real
        # eigvalsh call for the chunk, and no eigh of rho or SVD.
        calls = self.count_linear_algebra(monkeypatch, DeviceParams(phi_e=0.3), measures)
        assert calls == {"eigh": 1, "eigvalsh": eigvalsh, "svd": 0, "validated": CHUNK_POINTS,
                         "public": 0}

    @staticmethod
    def count_linear_algebra(monkeypatch, fixed, measures) -> dict:
        """Calls of eigh, eigvalsh and svd, states checked as spectra, and
        public validations, in a one-chunk phi_x_common sweep of ``fixed``."""
        from jcqsim import correlations, qmath

        calls = {"eigh": 0, "eigvalsh": 0, "svd": 0, "validated": 0, "public": 0}
        eigh, eigvalsh, svd = np.linalg.eigh, np.linalg.eigvalsh, np.linalg.svd
        require_spectra, require_state = qmath._require_spectra, correlations._require_state

        def counted(name, function, size=lambda *args: 1):
            def call(*args, **kwargs):
                calls[name] += size(*args)
                return function(*args, **kwargs)
            return call

        monkeypatch.setattr(np.linalg, "eigh", counted("eigh", eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", counted("eigvalsh", eigvalsh))
        monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
        monkeypatch.setattr(qmath, "_require_spectra",
                            counted("validated", require_spectra, lambda w: len(w)))
        monkeypatch.setattr(correlations, "_require_state", counted("public", require_state))
        spec = SweepSpec("phi_x_common", 0.0, 1.0, fixed, steps=CHUNK_POINTS,
                         thermal=ThermalSpec(0.005), measures=measures)
        assert len(sweep_1d(spec)) == CHUNK_POINTS
        return calls


    @pytest.mark.parametrize("bad", [-1e-3, math.nan])
    def test_weights_that_are_no_spectrum_raise(self, monkeypatch, bad):
        boltzmann_weights = device._boltzmann_weights

        def spoiled(w, temperatures):
            weights, cold = boltzmann_weights(w, temperatures)
            weights[1:, -1] = bad
            return weights, cold

        monkeypatch.setattr(device, "_boltzmann_weights", spoiled)
        with pytest.raises(NotAStateError):
            sweep_1d(ratio_spec(steps=3, thermal=ThermalSpec(0.5)))
        with pytest.raises(NotAStateError):
            optimal_ratio(0.5, (0.1, 50.0))


class TestSweep2d:
    def grid_specs(self, steps=9, t=0.0):
        base = DeviceParams()
        thermal = ThermalSpec(t)
        sx = SweepSpec("phi_x1", 0.0, 2.0, base, steps=steps, thermal=thermal,
                       measures=("discord",))
        sy = SweepSpec("phi_x2", 0.0, 2.0, base, steps=steps, thermal=thermal,
                       measures=("discord",))
        return sx, sy

    def test_duplicate_variable_rejected(self):
        sx, _ = self.grid_specs()
        with pytest.raises(SpecValidationError):
            sweep_2d(sx, sx)

    def test_mismatched_context_rejected(self):
        sx, sy = self.grid_specs()
        sy_far = SweepSpec(
            "phi_x2", 0.0, 2.0, DeviceParams(v_x1=1e-5), steps=9,
            thermal=ThermalSpec(0.0), measures=("discord",),
        )
        with pytest.raises(SpecValidationError):
            sweep_2d(sx, sy_far)

    def test_row_major_order_y_outer(self):
        sx, sy = self.grid_specs(steps=3)
        table = sweep_2d(sx, sy)
        assert table[:3, :2].tolist() == [[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]
        assert table[3, :2].tolist() == [0.0, 1.0]

    def test_surface_symmetric_under_flux_exchange(self):
        sx, sy = self.grid_specs(steps=9)
        grid = sweep_2d(sx, sy)[:, 2].reshape(9, 9)
        assert np.abs(grid - grid.T).max() <= 1e-12

    def test_half_integer_flux_line_kills_discord(self):
        sx, sy = self.grid_specs(steps=9)
        for x, y, discord in sweep_2d(sx, sy).tolist():
            if 0.5 in (x, y) or 1.5 in (x, y):
                assert discord <= 1e-9

    def test_ground_surface_peaks_at_integer_flux_pairs(self):
        sx, sy = self.grid_specs(steps=9, t=0.0)
        rows = sweep_2d(sx, sy).tolist()
        peak = max(discord for _, _, discord in rows)
        at_integers = max(
            discord
            for x, y, discord in rows
            if x in (0.0, 1.0, 2.0) and y in (0.0, 1.0, 2.0)
        )
        assert peak <= at_integers + 1e-12


def _grid_settings(axes):
    """Every point of the grid over ``axes`` (outer first), as one chunk's
    (variable, values) settings and as each point's (variable, value) pairs."""
    shape = tuple(len(values) for _, values in axes)
    index = np.unravel_index(np.arange(math.prod(shape)), shape)
    settings = [(variable, np.asarray(values, dtype=float)[i])
                for (variable, values), i in zip(axes, index)]
    points = [list(zip([v for v, _ in settings], xs))
              for xs in zip(*[values.tolist() for _, values in settings])]
    return settings, points


def _assert_same_bits(h, temperatures, reference):
    h_ref, t_ref = reference
    assert h.tobytes() == h_ref.tobytes()
    assert np.asarray(temperatures, dtype=float).tobytes() == t_ref.tobytes()


class TestBatchedControls:
    """A chunk's arrays give each point the Hamiltonian, temperature and error
    that mapping it alone (helpers.plain_controls) gives, to the bit."""

    def sweep_chunks(self, monkeypatch, run):
        """(table, Hamiltonians, temperatures) of a sweep, with its states and
        measures stubbed out: the coefficient table is recorded where both
        the X rows and the others read it."""
        chunks = []

        def record(coefficients, temperatures):
            chunks.append((coefficients, temperatures))
            n = len(temperatures)
            return (np.zeros(n, dtype=bool), np.empty((0, 6)), np.zeros((n, 4, 4)),
                    np.full((n, 4), 0.25), np.zeros((n, 4, 4)))

        monkeypatch.setattr(sweep, "_thermal_rows", record)
        monkeypatch.setattr(sweep, "_measure", lambda x, entries, states, w, v, measures: {
            m: np.zeros(len(w)) for m in measures})
        table = run()
        assert max(len(t) for _, t in chunks) == CHUNK_POINTS
        coefficients = np.concatenate([coefficients for coefficients, _ in chunks])
        return table, device._hamiltonians(coefficients), np.concatenate([t for _, t in chunks])

    @pytest.mark.parametrize("spec", figure_preset("fig4"), ids=lambda s: s.label)
    def test_full_fig4_axis(self, monkeypatch, spec):
        table, h, temperatures = self.sweep_chunks(monkeypatch, lambda: sweep_1d(spec))
        points = [[(spec.variable, x)] for x in table[:, 0].tolist()]
        assert len(points) == spec.steps
        _assert_same_bits(h, temperatures, plain_controls(spec.fixed, spec.thermal, points))

    @pytest.mark.parametrize("specs", figure_preset("fig5"), ids=lambda s: s[0].label)
    def test_full_fig5_grid(self, monkeypatch, specs):
        spec_x, spec_y = specs
        table, h, temperatures = self.sweep_chunks(monkeypatch, lambda: sweep_2d(spec_x, spec_y))
        points = [[(spec_y.variable, y), (spec_x.variable, x)] for x, y in table[:, :2].tolist()]
        assert len(points) == spec_x.steps * spec_y.steps
        _assert_same_bits(h, temperatures, plain_controls(spec_x.fixed, spec_x.thermal, points))

    def test_seeded_random_controls(self):
        rng = np.random.default_rng(1313)
        # Integer, half-integer and negative fluxes among random ones.
        fluxes = np.concatenate([np.arange(-4.0, 4.5, 0.5), rng.uniform(-5.0, 5.0, 47)])
        values = {
            "phi_x_common": fluxes, "phi_x1": fluxes, "phi_x2": fluxes[::-1],
            "voltage": np.concatenate([[0.0, -1e-5], rng.uniform(-3e-4, 3e-4, 62)]),
            "temperature": np.concatenate([[0.0, 5e-324], rng.uniform(0.0, 2.0, 62)]),
        }
        for trial in range(24):
            fixed = DeviceParams(
                l=10 ** rng.uniform(-10, -6), c=10 ** rng.uniform(-8, -4),
                c_j0=10 ** rng.uniform(-8, -4), e_j0=rng.uniform(0.0, 0.2),
                n=int(rng.choice([0, 1, -3, 10**6, -(10**6)])),
                v_x1=rng.uniform(-1e-4, 1e-4), v_x2=rng.uniform(-1e-4, 1e-4),
                phi_e=float(rng.choice([0.5, -0.5, 1.0, rng.uniform(-3.0, 3.0)])),
                phi_x1=float(rng.choice(fluxes)), phi_x2=float(rng.choice(fluxes)),
                xi=rng.uniform(0.5, 1.5),
            )
            thermal = ThermalSpec(float(rng.choice([0.0, rng.uniform(0.0, 1.0)])))
            for variable, axis in values.items():
                settings, points = _grid_settings([(variable, axis)])
                table, temperatures = sweep._chunk_controls(fixed, thermal, settings)
                _assert_same_bits(device._hamiltonians(table), temperatures,
                                  plain_controls(fixed, thermal, points))

    @pytest.mark.parametrize("y, x", [
        ("phi_x_common", "phi_x1"), ("phi_x_common", "phi_x2"), ("phi_x1", "phi_x_common"),
        ("voltage", "phi_x_common"), ("temperature", "phi_x1"), ("phi_x2", "temperature"),
    ])
    def test_2d_grid_where_x_wins_a_field_both_set(self, y, x):
        fixed, thermal = DeviceParams(phi_e=0.3, v_x1=1e-5), ThermalSpec(0.01)
        axes = {"phi_x_common": np.linspace(-1.0, 1.5, 6), "phi_x1": np.linspace(0.0, 2.0, 5),
                "phi_x2": np.linspace(-0.5, 0.5, 3), "voltage": np.linspace(0.0, 1e-4, 4),
                "temperature": np.linspace(0.0, 0.1, 3)}
        settings, points = _grid_settings([(y, axes[y]), (x, axes[x])])
        table, temperatures = sweep._chunk_controls(fixed, thermal, settings)
        _assert_same_bits(device._hamiltonians(table), temperatures,
                          plain_controls(fixed, thermal, points))

    def test_ratio_axis(self):
        fixed = EffectiveParams(0.7, 1.3, ej1=0.2, ej2=-0.1, j12=5.0)
        settings, points = _grid_settings([("temperature", [0.0, 0.5]),
                                           ("ratio_j_over_eps", np.linspace(0.1, 50.0, 33))])
        table, temperatures = sweep._chunk_controls(fixed, ThermalSpec(0.0), settings)
        _assert_same_bits(device._hamiltonians(table), temperatures,
                          plain_controls(fixed, ThermalSpec(0.0), points))

    @pytest.mark.parametrize("y, x", [
        ("phi_x2", "phi_x1"), ("phi_x_common", "phi_x1"), ("phi_x1", "phi_x_common"),
        ("voltage", "phi_x_common"), ("temperature", "phi_x2"),
    ])
    def test_each_flux_axis_value_is_mapped_once_per_sweep(self, monkeypatch, y, x):
        # Each chunk maps its fluxes in one _cos_pi call per swept flux field
        # and one for the fixed ones (phi_e always), whatever its size, so
        # each flux axis value of a chunk is mapped in one call.  The
        # coefficients keep the bits of each point alone.
        steps = {"phi_x1": 13, "phi_x2": 11, "phi_x_common": 9, "voltage": 8, "temperature": 7}
        stops = {"voltage": 1e-4, "temperature": 0.1}
        fixed, thermal = DeviceParams(phi_e=0.3, phi_x1=0.7, phi_x2=-0.2), ThermalSpec(0.01)
        spec_x, spec_y = (SweepSpec(v, 0.0, stops.get(v, 2.0), fixed, steps=steps[v],
                                    thermal=thermal, measures=("mutual_information",))
                          for v in (x, y))
        axes = [(y, spec_y.axis), (x, spec_x.axis)]
        reference = plain_controls(fixed, thermal, _grid_settings(axes)[1])
        calls, cos_pi = [], device._cos_pi

        def counted(value):
            calls.append(value)
            return cos_pi(value)

        monkeypatch.setattr(device, "_cos_pi", counted)
        _, h, temperatures = self.sweep_chunks(monkeypatch, lambda: sweep_2d(spec_x, spec_y))
        _assert_same_bits(h, temperatures, reference)
        swept = {f for v in (x, y) for f in sweep.SWEEP_VARIABLES[v].fields} & {"phi_x1", "phi_x2"}
        assert len(calls) == (len(swept) + 1) * math.ceil(steps[x] * steps[y] / CHUNK_POINTS)

    def test_each_flux_cosine_is_mapped_once_per_point(self, monkeypatch):
        fixed, thermal = DeviceParams(phi_e=0.3, phi_x2=0.7), ThermalSpec(0.01)
        settings, points = _grid_settings(
            [("phi_x_common", np.linspace(-1.0, 1.5, CHUNK_POINTS))])
        params = [apply_axes(fixed, thermal, *point)[0] for point in points]
        rows = np.array([device._row(effective_params(p)) for p in params])
        reference = plain_controls(fixed, thermal, points)
        calls = []  # each value mapped
        cos_pi = device._cos_pi
        monkeypatch.setattr(device, "_cos_pi", lambda x: calls.extend(np.ravel(x)) or cos_pi(x))
        table, temperatures = sweep._chunk_controls(fixed, thermal, settings)
        # phi_x1 and phi_x2 once per point, phi_e once per chunk.
        assert len(calls) <= 130
        assert table.tobytes() == rows.tobytes()
        _assert_same_bits(device._hamiltonians(table), temperatures, reference)

    @pytest.mark.parametrize("fixed, axes, message", [
        (DeviceParams(), [("voltage", [0.0, 1e-5, 1e300, 1e301])],
         "eps1 must be finite with |eps1| <= 1e+150 K"),
        (DeviceParams(c=1e300), [("voltage", [1e-5, 2e-5])], "eps1 must be finite"),
        (DeviceParams(), [("temperature", [0.1, -1.0, 0.2, math.nan])],
         "temperature must be finite and >= 0"),
        (DeviceParams(), [("temperature", [0.1, 0.1, -1.0]), ("phi_x1", [0.0, math.nan])],
         "phi_x1 must be finite, got nan"),
        (DeviceParams(), [("phi_x_common", [0.0, 0.5, math.inf])],
         "phi_x1 must be finite, got inf"),
        (DeviceParams(e_j0=1e200), [("phi_x1", [0.0, 1.0])], "j12 overflows"),
        (DeviceParams(c=5e-324, c_j0=5e-324), [("voltage", [0.0, 1.0])],
         "the charging energy overflows"),
        (DeviceParams(l=1e300), [("phi_x_common", [0.5, 0.25, 0.0])],
         "j12 must be finite with |j12| <= 1e+150 K"),
        (DeviceParams(), [("voltage", [0.0, 1e300]), ("temperature", [0.1, -1.0])],
         "temperature must be finite and >= 0"),
        (EffectiveParams.symmetric(1e100, 0.0),
         [("temperature", [0.1, 0.1, -1.0]), ("ratio_j_over_eps", [1.0, 1e60])],
         "j12 must be finite with |j12| <= 1e+150 K"),
    ])
    def test_first_offending_point_raises_its_error(self, fixed, axes, message):
        settings, points = _grid_settings(axes)
        with pytest.raises(InvalidParameterError) as reference:
            plain_controls(fixed, ThermalSpec(0.0), points)
        assert message in str(reference.value)
        with pytest.raises(InvalidParameterError) as batched:
            sweep._chunk_controls(fixed, ThermalSpec(0.0), settings)
        assert str(batched.value) == str(reference.value)


# The out-of-range cases of TestBatchedControls.test_first_offending_point_raises_its_error.
_OFFENDING_CASES = next(
    mark.args[1]
    for mark in TestBatchedControls.test_first_offending_point_raises_its_error.pytestmark
    if mark.name == "parametrize")


def _error(call):
    """The message of the InvalidParameterError ``call()`` raises, or None."""
    try:
        call()
    except InvalidParameterError as exc:
        return str(exc)
    return None


class TestSinglePointControls:
    """thermal_state and esd_temperature map one point through the table a
    sweep chunk is mapped through, with the errors of its dataclasses."""

    @pytest.mark.parametrize("fixed, axes, message", _OFFENDING_CASES)
    def test_each_point_raises_the_error_of_its_dataclasses(self, fixed, axes, message):
        compared = 0
        for point in _grid_settings(axes)[1]:
            temperature = dict(point).get("temperature", 0.0)
            controls = [(variable, x) for variable, x in point if variable != "temperature"]
            try:
                params, _ = apply_axes(fixed, ThermalSpec(0.0), *controls)
            except InvalidParameterError:
                continue  # no parameter set exists to pass

            def coefficients():
                return params if isinstance(params, EffectiveParams) else effective_params(params)

            expected = _error(lambda: (ThermalSpec(temperature), coefficients()))
            if expected is not None:
                assert _error(lambda: thermal_state(params, temperature)) == expected
                compared += 1
            expected = _error(coefficients)
            if expected is not None:
                assert _error(lambda: esd_temperature(params, t_max=1.0)) == expected
        # Only a case whose bad points form no parameter set compares nothing.
        assert compared or "must be finite, got" in message

    def test_a_bad_temperature_is_named_before_bad_coefficients(self):
        params = DeviceParams(v_x1=1e300)
        assert "eps1 must be finite" in _error(lambda: effective_params(params))
        assert _error(lambda: thermal_state(params, -1.0)) == "temperature must be finite and >= 0"

    @pytest.mark.parametrize("temperature", ["0.5", None])
    def test_a_non_number_temperature_is_rejected(self, temperature):
        with pytest.raises(TypeError):
            thermal_state(EffectiveParams.symmetric(1.0, 2.0), temperature)

    def test_effective_params_is_not_called(self, monkeypatch):
        def unused(p):
            raise AssertionError("effective_params called")

        monkeypatch.setattr(device, "effective_params", unused)
        fixed = DeviceParams(v_x1=7.5e-6, v_x2=7.5e-6)
        assert thermal_state(fixed, 0.01).shape == (4, 4)
        assert esd_temperature(fixed, t_max=1.0).kind == "esd_temperature"


class TestEsdTemperature:
    def test_uncoupled_state_never_entangled(self):
        with pytest.raises(BracketError):
            esd_temperature(EffectiveParams.symmetric(1.0, 0.0), t_max=1.0)

    def test_a_state_never_entangled_fails_at_its_first_kernel_call(self, monkeypatch):
        # Its X concurrence is within round-off of the floor from the fourth
        # step on; that step's kernel call is the first, at T = 0 alone.
        rows, kernel = [], sweep._wootters

        def counted(p, m):
            rows.append(len(p))
            return kernel(p, m)

        monkeypatch.setattr(sweep, "_wootters", counted)
        with pytest.raises(BracketError) as error:
            esd_temperature(EffectiveParams.symmetric(1.0, 0.0), t_max=1.0)
        assert str(error.value) == "state is never entangled: concurrence is zero at T = 0"
        assert rows == [1]

    def test_degenerate_hamiltonian_never_entangled(self):
        # H = 0: the T = 0 state is the mixture I/4 over the whole ground space.
        with pytest.raises(BracketError, match="never entangled"):
            esd_temperature(EffectiveParams.symmetric(0.0, 0.0), t_max=1.0)

    def test_t_max_too_small(self):
        with pytest.raises(BracketError):
            esd_temperature(EffectiveParams.symmetric(0.02, -0.02), t_max=1e-6)

    def test_locates_the_transition(self):
        fixed = EffectiveParams.symmetric(0.02, -0.02)
        tol = 1e-6
        point = esd_temperature(fixed, t_max=1.0, tol=tol)
        assert point.kind == "esd_temperature"
        assert point.bracket[0] <= point.location <= point.bracket[1]
        assert point.bracket[1] - point.bracket[0] <= tol
        assert concurrence(thermal_state(fixed, point.location - 2 * tol)) > 0.0
        assert concurrence(thermal_state(fixed, point.location + 2 * tol)) == 0.0

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 1e-300])
    def test_tol_must_be_finite_and_resolvable(self, tol):
        # Below one float spacing at t_max the bracket cannot shrink to tol.
        with pytest.raises(SpecValidationError, match="tol"):
            esd_temperature(EffectiveParams.symmetric(0.02, -0.02), t_max=1.0, tol=tol)

    def test_smallest_accepted_tol_terminates(self):
        point = esd_temperature(EffectiveParams.symmetric(0.02, -0.02), t_max=1.0,
                                tol=math.ulp(1.0))
        assert point.bracket[1] - point.bracket[0] <= math.ulp(1.0)

    def test_one_hamiltonian_is_diagonalized_once_per_search(self, monkeypatch):
        # Stacked searches: intrabit couplings, and phi_e away from 1/2.
        for fixed in (NOT_X, DeviceParams(v_x1=7.5e-6, v_x2=7.5e-6, phi_e=0.3)):
            shapes, stacks = [], []
            eigh, spectra = np.linalg.eigh, sweep._boltzmann_spectra
            kernel = sweep._wootters_margin

            def counted(a):
                shapes.append(a.shape)
                return eigh(a)

            # Each stack's spectra, then its Wootters margins from them.
            def recorded_spectra(w, temperatures):
                stacks.append([w.shape, None, temperatures[:, 0].tolist(), None])
                return spectra(w, temperatures)

            def recorded(p, m):
                stacks[-1][1], stacks[-1][3] = m.shape, kernel(p, m)
                return stacks[-1][3]

            monkeypatch.setattr(np.linalg, "eigh", counted)
            monkeypatch.setattr(sweep, "_boltzmann_spectra", recorded_spectra)
            monkeypatch.setattr(sweep, "_wootters_margin", recorded)
            esd_temperature(fixed, t_max=1.0)
            assert shapes == [(1, 4, 4)]
            assert stacks[0][2][:2] == [0.0, 1.0]
            monkeypatch.undo()
            for w_shape, m_shape, temperatures, values in stacks:
                assert (w_shape, m_shape) == ((1, 4), (1, 4, 4))
                for t, c in zip(temperatures, sweep._clamp_margin(values).tolist()):
                    assert abs(c - concurrence(thermal_state(fixed, t))) <= 1e-14

    def test_discord_survives_past_the_transition(self):
        fixed = EffectiveParams.symmetric(0.02, -0.02)
        point = esd_temperature(fixed, t_max=1.0)
        rho = thermal_state(fixed, 2 * point.location)
        assert concurrence(rho) == 0.0
        assert quantum_discord(rho).discord > 1e-4


class TestOptimalRatio:
    def test_invalid_bracket_rejected(self):
        with pytest.raises(SpecValidationError):
            optimal_ratio(0.5, (50.0, 0.1))
        with pytest.raises(SpecValidationError):
            optimal_ratio(0.5, (-1.0, 2.0))

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 1e-300])
    def test_tol_must_be_finite_and_resolvable(self, tol):
        with pytest.raises(SpecValidationError, match="tol"):
            optimal_ratio(0.5, (0.1, 50.0), tol=tol)

    def test_smallest_accepted_tol_terminates(self):
        point = optimal_ratio(0.5, (0.1, 50.0), tol=math.ulp(50.0))
        assert point.bracket[1] - point.bracket[0] <= math.ulp(50.0)

    def test_zero_temperature_hits_the_right_edge(self):
        point = optimal_ratio(0.0, (0.1, 50.0))
        assert point.boundary
        assert point.location == pytest.approx(50.0, abs=1e-4)
        assert point.bracket[1] - point.bracket[0] <= 1e-6

    def test_interior_maximum_matches_dense_scan(self):
        point = optimal_ratio(0.5, (0.1, 50.0))
        assert not point.boundary
        assert point.value_at <= 1.0
        # dense-scan oracle with 1e4 points
        ratios = np.linspace(0.1, 50.0, 10_000)
        values = [
            quantum_discord(thermal_state(EffectiveParams.symmetric(1.0, r), 0.5)).discord
            for r in ratios
        ]
        best = int(np.argmax(values))
        spacing = ratios[1] - ratios[0]
        assert abs(point.location - ratios[best]) <= spacing
        assert point.value_at >= values[best] - 1e-9

    def test_argmax_curve_is_finite_and_positive(self):
        for t in (0.1, 0.5, 1.0, 1.5, 2.0):
            point = optimal_ratio(t, (0.1, 50.0), tol=1e-4)
            assert np.isfinite(point.location) and point.location > 0
            assert 0.0 <= point.value_at <= 1.0


def _seeded_ratio_cases():
    rng = np.random.default_rng(21)
    cases = [(0.0, (0.1, 50.0), 1e-6), (0.5, (0.1, 50.0), math.ulp(50.0)),
             (1.0, (2.0, 3.0), 5.0)]  # tol wider than the bracket: 0 iterations
    for _ in range(24):
        a = float(rng.uniform(0.1, 10.0))
        b = a + float(rng.uniform(0.5, 40.0))
        cases.append((float(rng.uniform(0.0, 2.0)), (a, b), float(10.0 ** rng.uniform(-9, -1))))
    return cases


def _seeded_esd_cases():
    rng = np.random.default_rng(22)
    cases = []
    for k in range(12):
        v, phi = float(rng.uniform(5e-6, 100e-6)), float(rng.uniform(0.05, 0.45))
        # Every other device is off phi_e = 1/2: general states, spectral concurrence.
        phi_e = 0.5 if k % 2 else 0.5 + float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4))
        dev = DeviceParams(v_x1=v, v_x2=v, phi_x1=phi, phi_x2=phi, phi_e=phi_e)
        t_max = float(rng.uniform(0.2, 2.0))
        for tol in (float(10.0 ** rng.uniform(-9, -2)), math.ulp(t_max), 2.0 * t_max):
            cases.append((dev, t_max, tol))
    return cases


def _seeded_general_esd_cases():
    """1,800 (fixed, t_max, tol) ESD searches over general Gibbs states: 600
    devices off phi_e = 1/2, each at one t_max, log-uniform from 1e-3 to 30
    K, and three tolerances: ulp(t_max), 1e-9 t_max and 2 t_max."""
    rng = np.random.default_rng(39)
    cases = []
    for k in range(600):
        v1, v2 = rng.uniform(5e-6, 120e-6, 2).tolist()
        phi1, phi2 = rng.uniform(0.0, 0.5, 2).tolist()
        if k % 10 == 0:  # half a flux quantum: a qubit with ej1 = 0, never entangled
            phi1 = 0.5
        phi_e = 0.5 + float(rng.choice((-1.0, 1.0)) * rng.uniform(0.02, 0.45))
        fixed = DeviceParams(v_x1=v1, v_x2=v2, phi_x1=phi1, phi_x2=phi2, phi_e=phi_e)
        t_max = float(10.0 ** rng.uniform(-3.0, math.log10(30.0)))
        for tol in (math.ulp(t_max), 1e-9 * t_max, 2.0 * t_max):
            cases.append((fixed, t_max, tol))
    return cases


def _counted_outcomes(patch, cases):
    """(:func:`_outcome`, its kernel calls) of each ESD search."""
    calls, kernel = [], sweep._wootters_margin

    def counted(p, m):
        calls[-1] += 1
        return kernel(p, m)

    patch.setattr(sweep, "_wootters_margin", counted)
    patch.setattr(sweep, "_x_bisection", None)  # every search is a general one
    outcomes = []
    for case in cases:
        calls.append(0)
        outcomes.append(_outcome(*case))
    return outcomes, calls


def _stack_every_ratio_step(patch):
    """Have optimal_ratio leave every step to the stacked driver."""
    golden_section = sweep._golden_section
    patch.setattr(sweep, "_golden_section",
                  lambda f, a0, b0, tol, estimate=None: golden_section(f, a0, b0, tol))


def _stacked_ratio(patch, t, bracket, tol):
    """optimal_ratio on the stacked driver alone."""
    _stack_every_ratio_step(patch)
    return optimal_ratio(t, bracket, tol)


def _bumps(x: float) -> float:
    # Several local maxima of different heights, and flat steps that tie.
    return math.floor(8.0 * math.sin(3.0 * x) + 5.0 * math.sin(11.0 * x)) / 8.0


def _assert_each_point_measured_once(stacks):
    assert all(stacks), "a search measured an empty stack"
    points = [x for stack in stacks for x in stack]
    assert len(set(points)) == len(points), "a search measured a point twice"


class TestSpeculativeSearches:
    """The stacked searches return every CriticalPoint field of the plain loops."""

    @pytest.mark.parametrize("t, bracket, tol", _seeded_ratio_cases())
    def test_optimal_ratio_equals_the_plain_loop(self, t, bracket, tol):
        # One point at a time through the built-state path the search stacks.
        def discord(r):
            settings = [("ratio_j_over_eps", np.array([r]))]
            return built_measures(EffectiveParams.symmetric(1.0, 0.0), ThermalSpec(t), settings,
                                  ("discord",))["discord"][0]

        assert optimal_ratio(t, bracket, tol) == plain_golden_section(discord, *bracket, tol)

    def test_esd_temperature_equals_the_plain_loop(self):
        # The search reads the concurrence from the Boltzmann weights, the plain
        # loop from each state: values differ by round-off.  At tol =
        # ulp(t_max) a step can read a point within round-off of the crossing,
        # so there the brackets may differ by a few float spacings.
        cases = _seeded_esd_cases()
        assert sum(dev.phi_e != 0.5 for dev, _, _ in cases) == len(cases) // 2
        for dev, t_max, tol in cases:
            def conc(t):
                return concurrence(thermal_state(dev, t))

            point, plain = esd_temperature(dev, t_max, tol), plain_bisection(conc, t_max, tol)
            assert (point.kind, point.iterations, point.boundary) == (
                plain.kind, plain.iterations, plain.boundary)
            assert abs(point.value_at - plain.value_at) <= 1e-15
            if tol > math.ulp(t_max):
                assert (point.location, point.bracket) == (plain.location, plain.bracket)
            else:
                ends = (point.location, *point.bracket), (plain.location, *plain.bracket)
                assert max(abs(a - b) for a, b in zip(*ends)) <= 4 * tol
        assert any(esd_temperature(dev, t_max, tol).iterations == 0
                   for dev, t_max, tol in cases if tol > t_max)

    def test_esd_temperature_equals_the_breadth_first_search(self, monkeypatch):
        # Field for field and error for error, in fewer kernel calls.
        cases = _seeded_general_esd_cases()
        with monkeypatch.context() as patch:
            outcomes, calls = _counted_outcomes(patch, cases)
        with monkeypatch.context() as patch:
            patch.setattr(sweep, "_bisection", breadth_first_bisection)
            reference, reference_calls = _counted_outcomes(patch, cases)
        assert outcomes == reference
        assert all(a <= b for a, b in zip(calls, reference_calls))
        assert sum(calls) < 0.5 * sum(reference_calls)
        points = [o for o in outcomes if isinstance(o, CriticalPoint)]
        errors = [o[1] for o in outcomes if isinstance(o, tuple)]
        assert len(points) > 900
        assert any("never entangled" in e for e in errors)
        assert any("still positive" in e for e in errors)
        assert sum(p.iterations == 0 for p in points) > 100
        assert sum(p.iterations > 40 for p in points) > 100
        assert sum(p.value_at == 0.0 for p in points) > 100

    @pytest.mark.parametrize("bracket, tol", [((0.0, 6.0), 1e-9), ((1.0, 2.5), 1e-3),
                                              ((0.5, 40.0), math.ulp(40.0))])
    def test_golden_section_on_a_batched_function_with_many_maxima(self, bracket, tol):
        stacks = []

        def batched(points):
            stacks.append(list(points))
            return [_bumps(x) for x in points]

        point = sweep._golden_section(batched, *bracket, tol)
        assert point == plain_golden_section(_bumps, *bracket, tol)
        assert max(map(len, stacks)) <= 2**sweep.SEARCH_DEPTH - 1
        _assert_each_point_measured_once(stacks)

    @pytest.mark.parametrize("bracket, tol", [((0.0, 6.0), 1e-9), ((1.0, 2.5), 1e-3),
                                              ((0.5, 40.0), math.ulp(40.0))])
    def test_golden_section_stacks_are_filled_breadth_first(self, bracket, tol):
        # Each stack, the first included, holds the new points of the states
        # ahead of the one that needed it, level by level from that root, lower
        # part first, up to 2**SEARCH_DEPTH - 1 of them: the next SEARCH_DEPTH
        # levels, and more where points of different branches coincide.  A
        # state within tol has only its midpoint and no children.
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        stacks = []

        def batched(points):
            stacks.append(list(points))
            return [_bumps(x) for x in points]

        def points(s):
            return (0.5 * (s[0] + s[1]),) if s[1] - s[0] <= tol else s[2:]

        def children(a, b, c, d):
            return (a, d, d - invphi * (d - a), c), (c, b, d, c + invphi * (b - c))

        def breadth_first(root, seen):
            level, out = [root], []
            while level and len(out) < 2**sweep.SEARCH_DEPTH - 1:
                for x in (x for s in level for x in points(s)):
                    if x not in seen and x not in out:
                        out.append(x)
                level = [c for s in level if s[1] - s[0] > tol for c in children(*s)]
            return out[: 2**sweep.SEARCH_DEPTH - 1]

        sweep._golden_section(batched, *bracket, tol)
        a, b = bracket
        state = (a, b, b - invphi * (b - a), a + invphi * (b - a))
        expected, seen = [], set()
        while True:
            if not seen.issuperset(points(state)):
                expected.append(breadth_first(state, seen))
                seen.update(expected[-1])
            if state[1] - state[0] <= tol:
                break
            state = children(*state)[_bumps(state[2]) < _bumps(state[3])]
        assert stacks == expected
        assert len(stacks) > 3

    @pytest.mark.parametrize("t_max, tol", [(6.0, 1e-9), (0.45, 1e-3), (40.0, math.ulp(40.0))])
    def test_bisection_on_a_batched_function_with_many_crossings(self, t_max, tol):
        stacks = []

        def conc(t):
            return max(0.0, math.cos(7.0 * t) + 0.5 - 0.1 * t)

        def batched(ts):
            stacks.append(list(ts))
            return [conc(t) for t in ts]

        point = sweep._bisection(batched, t_max, tol)
        assert point == plain_bisection(conc, t_max, tol)
        _assert_each_point_measured_once(stacks)

    # largest: the stack cap, 2**SEARCH_DEPTH - 1, or 2**(SEARCH_DEPTH + 1) - 1
    # for an ESD search, whose stacks also follow its guided branch.
    @pytest.mark.parametrize("search, iterations, first_call, most_calls, largest", [
        # 10 breadth-first, the first from the bracket's two points on
        (lambda patch: _stacked_ratio(patch, 0.5, (0.1, 50.0), 1e-6), 37, 15, 10, 15),
        # The spine first: T = 0, t_max and t_max / 2**k for k = 1 to 21.
        (lambda patch: esd_temperature(NOT_X, t_max=1.0), 20, 23, 3, 31),
        # Steps decided in closed form up to a stack, then one at the end.
        (lambda patch: optimal_ratio(0.5, (0.1, 50.0)), 37, 15, 2, 15),
        # Every step decided in closed form: the midpoint alone.
        (lambda patch: optimal_ratio(0.0, (0.1, 50.0)), 37, 1, 1, 15),
    ])
    def test_steps_are_measured_in_stacks(self, monkeypatch, search, iterations, first_call,
                                          most_calls, largest):
        # A j/eps search measures its ratios' states, an ESD search its
        # temperatures' Wootters margins from the Boltzmann weights.
        calls = []
        measure, kernel = sweep._measure, sweep._wootters_margin

        def counted(x, entries, states, w, v, measures):
            calls.append(len(w))
            return measure(x, entries, states, w, v, measures)

        def counted_kernel(p, m):
            calls.append(len(p))
            return kernel(p, m)

        monkeypatch.setattr(sweep, "_measure", counted)
        monkeypatch.setattr(sweep, "_wootters_margin", counted_kernel)
        assert search(monkeypatch).iterations == iterations
        assert calls[0] == first_call
        assert len(calls) <= most_calls
        assert max(calls) <= largest

    def test_esd_stacks_hold_the_spine_then_the_next_steps_and_the_guided_branch(
            self, monkeypatch):
        # The first stack is the spine: T = 0, t_max and the midpoints of the
        # steps while each goes left.  Each later stack holds the midpoints of
        # the next SEARCH_DEPTH levels, level by level, upper half first, then
        # those of the branch towards the crossing that sweep._crossing
        # estimates from the margins measured so far, down to the stopping
        # state's midpoint: 2**(SEARCH_DEPTH + 1) - 1 points at most.
        stacks, spectra, kernel = [], sweep._boltzmann_spectra, sweep._wootters_margin
        margins, tol, cap = {}, 1e-6, 2**sweep.SEARCH_DEPTH - 1

        def recorded(w, temperatures):
            stacks.append(temperatures[:, 0].tolist())
            return spectra(w, temperatures)

        def recorded_kernel(p, m):
            c = kernel(p, m)
            margins.update(zip(stacks[-1], c.tolist()))
            return c

        def breadth_first(lo, hi):
            level, out = [(lo, hi)], []
            for _ in range(sweep.SEARCH_DEPTH):
                mids = [0.5 * (a + b) for a, b in level]
                out += mids
                level = [c for (a, b), x in zip(level, mids) for c in ((x, b), (a, x))]
            return out

        def guided(lo, hi, known):
            guess, path = sweep._crossing(known, lo), []
            while hi - lo > tol:
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if guess >= mid else (lo, mid)
                path.append(0.5 * (lo + hi))
            return path

        monkeypatch.setattr(sweep, "_boltzmann_spectra", recorded)
        monkeypatch.setattr(sweep, "_wootters_margin", recorded_kernel)
        point = esd_temperature(NOT_X, t_max=1.0, tol=tol)
        spine = [0.0, 1.0, *(2.0**-k for k in range(1, 22))]
        assert stacks[0] == spine
        # Replay the bisection on the recorded margins.
        (lo, hi), expected, known = (0.0, 1.0), [spine], dict.fromkeys(spine)
        while True:
            mid = 0.5 * (lo + hi)
            if mid not in known:
                ahead = breadth_first(lo, hi)
                ahead += [x for x in guided(lo, hi, {t: margins[t] for t in known})
                          if x not in ahead]
                expected.append(ahead[: 2 * cap + 1])
                known.update(dict.fromkeys(expected[-1]))
            if hi - lo <= tol:
                break
            lo, hi = (mid, hi) if margins[mid] > sweep.CONCURRENCE_FLOOR else (lo, mid)
        assert stacks == expected
        assert [len(s) for s in stacks] == [23, 26, 22]
        assert point.location == 0.024551868438720703

    def test_benchmark_esd_searches_make_about_four_kernel_calls(self, monkeypatch, tmp_path):
        # The general_states workload's ESD searches, 24 a seed for seeds 1
        # to 10, through the CLI: none makes more calls than breadth-first.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        argvs = [op.argv for seed in range(1, 11) for op in workloads.general_states(seed).ops
                 if op.argv[:2] == ("critical", "esd")]
        counts = []
        for bisection in (sweep._bisection, breadth_first_bisection):
            with monkeypatch.context() as patch:
                patch.setattr(sweep, "_bisection", bisection)
                calls, kernel = [], sweep._wootters_margin

                def counted(p, m):
                    calls[-1] += 1
                    return kernel(p, m)

                patch.setattr(sweep, "_wootters_margin", counted)
                for argv in argvs:
                    calls.append(0)
                    assert main([*argv, "--out", str(tmp_path / "esd.csv")]) == 0
                counts.append(calls)
        assert len(argvs) == 240
        assert sum(counts[0]) / len(argvs) <= 4.0
        assert set(counts[1]) == {7}
        assert all(a <= b for a, b in zip(*counts))

    def test_the_crossing_estimate_falls_back_to_the_midpoint(self):
        # Inverse interpolation needs finite, distinct values: else, and where
        # it lands outside [a, b], the estimate is the midpoint of (a, b), the
        # last point above lo with a margin above the floor and the next.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for margins in ({0.0: 0.5, 0.1: 0.5, 0.2: 0.0, 0.3: 0.0},  # clamped values tie
                            {0.0: 0.5, 0.1: 0.3, 0.2: -0.1, 0.3: -0.1},
                            {0.0: 0.5, 0.1: 0.3, 0.2: -math.inf},
                            {0.0: math.inf, 0.1: 0.3, 0.2: -0.1},
                            {0.0: math.nan, 0.1: 0.3, 0.2: -0.1},
                            {0.0: 1e308, 0.1: 0.3, 0.2: -1e308},  # c0 - margin overflows
                            {0.0: 0.5, 0.05: 0.49, 0.1: 0.3, 0.2: -0.1, 0.3: 0.49}):  # outside
                assert sweep._crossing(margins, 0.0) == 0.5 * (0.1 + 0.2), margins
            # A margin that one Boltzmann factor lowers, 0.5 - exp(-1/T): exact.
            margins = {t: 0.5 - math.exp(-1.0 / t) for t in (0.5, 1.0, 2.0)}
            crossing = 1.0 / -math.log(0.5 - sweep.CONCURRENCE_FLOOR)
            assert sweep._crossing({0.0: 0.5, **margins}, 0.5) == pytest.approx(crossing, 1e-12)
            # A batched function whose values tie beyond every crossing.
            point = sweep._bisection(
                lambda ts: [max(0.0, math.cos(7.0 * t) + 0.5 - 0.1 * t) for t in ts], 6.0, 1e-9)
        assert point.iterations == 33


# v_x1 where eps1 = 0 at n = 0: c v_x1 = e.
_EPS1_ZERO_VOLTAGE = device.CONSTANTS.e / DeviceParams().c


def _seeded_x_esd_cases():
    """3,000 (fixed, t_max, tol) cases: 600 Hamiltonians at phi_e = 1/2, each
    at one t_max from 1e-4 to 20 K and five tolerances."""
    rng = np.random.default_rng(33)
    cases = []
    for k in range(600):
        phi1, phi2 = rng.uniform(0.0, 1.0, 2).tolist()
        if k % 3 == 0:  # device points
            v1, v2 = rng.uniform(0.0, 120e-6, 2).tolist()
            fixed = DeviceParams(v_x1=v1, v_x2=v2, phi_x1=phi1, phi_x2=phi2)
        elif k % 3 == 1:  # near eps1 = 0, where eigh may mix the parity blocks
            u = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-12.0, 6.0))
            fixed = DeviceParams(v_x1=_EPS1_ZERO_VOLTAGE * (1.0 + u),
                                 v_x2=float(rng.uniform(0.0, 120e-6)), phi_x1=phi1, phi_x2=phi2)
        else:  # effective parameters without intrabit coupling
            eps1, eps2, j12 = rng.uniform(-1.0, 1.0, 3).tolist()
            fixed = EffectiveParams(eps1, eps2, 0.0, 0.0, j12)
        t_max = float(10.0 ** rng.uniform(-4.0, math.log10(20.0)))
        for tol in (math.ulp(t_max), 1e-9 * t_max, 1e-6, 0.3 * t_max, 2.0 * t_max):
            cases.append((fixed, t_max, tol))
    return cases


def _outcome(fixed, t_max, tol):
    """The CriticalPoint of an ESD search, or the type and message of its
    BracketError."""
    try:
        return esd_temperature(fixed, t_max, tol)
    except BracketError as error:
        return type(error), str(error)


def _stacked_outcomes(monkeypatch, cases):
    """:func:`_outcome` of each case with every Hamiltonian on the stacked path."""
    with monkeypatch.context() as patch:
        patch.setattr(sweep, "_x_bisection",
                      lambda f, w, v, m, t_max, tol: sweep._bisection(f, t_max, tol))
        return [_outcome(*case) for case in cases]


class TestXEsdSearch:
    """An ESD search whose Gibbs states are all X-shaped decides its steps by
    their closed-form concurrence, and returns the stacked search's result."""

    def test_equals_the_stacked_search(self, monkeypatch):
        cases = _seeded_x_esd_cases()
        x_bisection, kernel = sweep._x_bisection, sweep._wootters
        undecided, kernel_rows = [], []

        def counted(*args):  # counts the X search's one-row kernel calls
            start = len(kernel_rows)
            try:
                return x_bisection(*args)
            finally:
                undecided.append(kernel_rows[start:].count(1))

        def counted_kernel(p, m):
            kernel_rows.append(len(p))
            return kernel(p, m)

        with monkeypatch.context() as patch:
            patch.setattr(sweep, "_x_bisection", counted)
            patch.setattr(sweep, "_wootters", counted_kernel)
            outcomes = [_outcome(*case) for case in cases]
        assert outcomes == _stacked_outcomes(monkeypatch, cases)
        # Both paths, both errors, results and steps decided by the kernel.
        assert 2000 < len(undecided) < len(cases)
        errors = [o[1] for o in outcomes if isinstance(o, tuple)]
        assert any("never entangled" in e for e in errors)
        assert any("still positive" in e for e in errors)
        assert len(errors) < len(cases) - 500
        assert sum(undecided) > 1000

    def test_a_band_without_end_sends_every_step_to_the_kernel(self, monkeypatch):
        cases = _seeded_x_esd_cases()[::10]
        kernel_rows, kernel = [], sweep._wootters

        def counted_kernel(p, m):
            kernel_rows.append(len(p))
            return kernel(p, m)

        with monkeypatch.context() as patch:
            patch.setattr(sweep, "ESD_BAND", math.inf)
            patch.setattr(sweep, "_wootters", counted_kernel)
            outcomes = [_outcome(*case) for case in cases]
        assert outcomes == _stacked_outcomes(monkeypatch, cases)
        steps = sum(o.iterations for o in outcomes if isinstance(o, CriticalPoint))
        assert kernel_rows.count(1) >= steps > 1000

    def test_closed_form_is_within_a_thousandth_of_the_band_of_the_kernel(self, monkeypatch):
        # The closed form of each X Hamiltonian of the seeded cases, against
        # the concurrence of the stacked search, at 200 temperatures from
        # 1e-6 to 20 K.
        searches, x_bisection = [], sweep._x_bisection

        def recorded(f, w, v, m, t_max, tol):
            searches.append((w, v, m))
            return x_bisection(f, w, v, m, t_max, tol)

        monkeypatch.setattr(sweep, "_x_bisection", recorded)
        for fixed, _, _ in _seeded_x_esd_cases()[::5]:
            _outcome(fixed, 1.0, 2.0)
        temperatures = 10.0 ** np.random.default_rng(34).uniform(-6.0, math.log10(20.0), 200)
        gaps = []
        for w, v, m in searches:
            kernel = sweep._wootters(device._boltzmann_spectra(w, temperatures[:, None])[0], m)
            u = v[0]
            products = np.array([u[0] * u[3], u[1] * u[2], u[1] ** 2, u[2] ** 2,
                                 u[0] ** 2, u[3] ** 2]).tolist()
            closed = [sweep._x_concurrence(w[0].tolist(), products, t)
                      for t in temperatures.tolist()]
            gaps.append(np.abs(np.clip(closed, 0.0, 1.0) - kernel).max())
        assert len(searches) * len(temperatures) >= 100_000
        assert max(gaps) <= sweep.ESD_BAND / 1000.0

    @pytest.mark.parametrize("tol", [1e-6, math.ulp(1.0)])
    def test_one_eigh_then_one_kernel_stack_and_one_call_per_undecided_step(
            self, monkeypatch, tol):
        shapes, kernel_rows, spectra, closed = [], [], [], []
        eigh, boltzmann_spectra = np.linalg.eigh, sweep._boltzmann_spectra
        kernel, x_concurrence = sweep._wootters, sweep._x_concurrence

        def counted(a):
            shapes.append(a.shape)
            return eigh(a)

        def recorded_spectra(w, temperatures):
            spectra.append(temperatures[:, 0].tolist())
            return boltzmann_spectra(w, temperatures)

        def counted_kernel(p, m):
            kernel_rows.append(len(p))
            return kernel(p, m)

        def recorded_closed(levels, products, t):
            closed.append((t, x_concurrence(levels, products, t)))
            return closed[-1][1]

        monkeypatch.setattr(np.linalg, "eigh", counted)
        monkeypatch.setattr(sweep, "_boltzmann_spectra", recorded_spectra)
        monkeypatch.setattr(sweep, "_wootters", counted_kernel)
        monkeypatch.setattr(sweep, "_x_concurrence", recorded_closed)
        point = esd_temperature(EffectiveParams.symmetric(0.02, -0.02), t_max=1.0, tol=tol)
        undecided = [t for t, c in closed if abs(c - sweep.CONCURRENCE_FLOOR) <= sweep.ESD_BAND]
        assert shapes == [(1, 4, 4)]
        assert kernel_rows == [1] * len(undecided) + [3]
        assert spectra == [[t] for t in undecided] + [
            [0.0, 1.0, point.location, *(t for t, _ in closed)]]
        assert len(closed) == point.iterations
        assert (len(undecided) > 0) == (tol < 1e-9)

    def test_weights_of_every_step_are_checked(self, monkeypatch):
        # Spoil the weights of the steps alone: not those of T = 0, t_max and
        # the midpoint, which come first in the one stack after the steps.
        boltzmann_weights = device._boltzmann_weights

        def spoiled(w, temperatures):
            weights, cold = boltzmann_weights(w, temperatures)
            weights[3:, -1] = -1e-3
            return weights, cold

        monkeypatch.setattr(device, "_boltzmann_weights", spoiled)
        with pytest.raises(NotAStateError):
            esd_temperature(EffectiveParams.symmetric(0.02, -0.02), t_max=1.0)

    @pytest.mark.parametrize("fixed", [
        EffectiveParams(-3.4e-5, 6.0, 0.0, 0.0, -0.73),  # products off the X shape 4.6e-11
        DeviceParams(v_x1=1e-12, v_x2=7.5e-6),  # near eps1 = 0; 2.9e-9
    ])
    @pytest.mark.parametrize("tol", [1e-6, math.ulp(1.0)])
    def test_mixed_parity_blocks_take_the_stacked_path(self, monkeypatch, fixed, tol):
        searches, bisection = [], sweep._bisection

        def recorded(f, t_max, tol):
            searches.append(f)
            return bisection(f, t_max, tol)

        monkeypatch.setattr(sweep, "_bisection", recorded)
        monkeypatch.setattr(sweep, "_x_bisection", None)
        point = esd_temperature(fixed, t_max=1.0, tol=tol)
        (f,) = searches
        assert point == plain_bisection(lambda t: f([t])[0], 1.0, tol)


def _seeded_x_ratio_cases():
    """1,200 (t, bracket, tol) cases: T = 0 and T from 1e-6 to 1e3 K, brackets
    up to 1e5, tol from one float spacing to wider than the bracket."""
    rng = np.random.default_rng(34)
    cases = [(0.5, (0.1, 1e200), 1e190),  # j12 out of range at the first stack
             (0.0, (0.1, 3e5), 1e-6), (0.0, (5e4, 2e5), 1e-3)]  # two ground levels
    for k in range(1197):
        if k % 6 == 0:
            t = 0.0
        elif k % 6 == 1:  # where some small ratios are certified by neither end
            t = float(rng.uniform(0.035, 0.045))
        else:
            t = float(10.0 ** rng.uniform(-6.0, 3.0))
        a = float(10.0 ** rng.uniform(-3.0, 4.0))
        b = min(1e5, a + float(10.0 ** rng.uniform(-2.0, 5.0)))
        if k % 6 == 1:
            a, b = sorted(rng.uniform(1e-3, 0.6, 2).tolist())
        tol = (math.ulp(b), 1e-9 * (b - a), 1e-6, 0.3 * (b - a), 2.0 * (b - a))[k % 5]
        cases.append((t, (a, b), max(tol, math.ulp(b))))
    return cases


def _ratio_outcome(t, bracket, tol):
    """The CriticalPoint of a j/eps search, or the type and message of its error."""
    try:
        return optimal_ratio(t, bracket, tol)
    except (InvalidParameterError, SpecValidationError) as error:
        return type(error), str(error)


def _straddling_ratio_cases():
    """1,500 (t, bracket, tol) j/eps searches whose bracket straddles
    MAX_ENERGY_K, the largest coupling: it starts from 1e100 to 1e149.99 and
    ends from 1e150 to 10**150.5, T = 0 or log-uniform from 1e-3 to 1e160."""
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(1500):
        a0 = float(10.0 ** rng.uniform(100.0, 149.99))
        b0 = float(10.0 ** rng.uniform(150.0, 150.5))
        t = 0.0 if rng.random() < 0.2 else float(10.0 ** rng.uniform(-3.0, 160.0))
        cases.append((t, (a0, b0), 1e-9 * b0))
    return cases


class TestXRatioSearch:
    """A j/eps search decides its steps by closed-form discords where they are
    apart by more than their bands, and returns the stacked search's result."""

    def test_equals_the_stacked_search(self, monkeypatch):
        cases = _seeded_x_ratio_cases()
        x_discord, search = sweep._x_discord, sweep._search
        estimates, handed = [], []

        def recorded(ratio, t):
            estimates.append((t, x_discord(ratio, t)))
            return estimates[-1][1]

        def recorded_search(f, state, values, children, decide, tol):
            handed.append(state[1] - state[0] > tol)
            return search(f, state, values, children, decide, tol)

        with monkeypatch.context() as patch:
            patch.setattr(sweep, "_x_discord", recorded)
            patch.setattr(sweep, "_search", recorded_search)
            outcomes = [_ratio_outcome(*case) for case in cases]
        with monkeypatch.context() as patch:
            _stack_every_ratio_step(patch)
            assert outcomes == [_ratio_outcome(*case) for case in cases]
        # Errors, handoffs to the stacks, searches decided in Python to the
        # end, and points certified by neither end (T > 0).
        points = [o for o in outcomes if isinstance(o, CriticalPoint)]
        assert len(points) == len(cases) - 1
        assert 100 < sum(handed) < len(points) - 100
        assert sum(p.iterations > 20 for p, h in zip(points, handed) if not h) > 100
        assert sum(e is None for t, e in estimates if t > 0.0) > 10
        assert sum(e is None for t, e in estimates if t == 0.0) > 0

    def test_straddling_brackets_equal_the_one_point_loop(self):
        # A stack holds ratios ahead of the search, some of them beyond the
        # largest coupling where the one-point loop never goes: the search
        # raises only where the loop does, and from a point it reads.
        fixed, points = EffectiveParams.symmetric(1.0, 0.0), 0
        for t, bracket, tol in _straddling_ratio_cases():
            def discord(r):
                axes = [("ratio_j_over_eps", np.array([r]))]
                return sweep._sweep_table(fixed, ThermalSpec(t), axes, ("discord",))[0, 1]

            try:
                plain = plain_golden_section(discord, *bracket, tol)
            except InvalidParameterError as error:
                plain = type(error), str(error)
            assert _ratio_outcome(t, bracket, tol) == plain, (t, bracket)
            points += isinstance(plain, CriticalPoint)
        assert 100 < points < 1400

    def test_no_stack_rebuilds_points_that_raised(self, monkeypatch):
        # After a stack raises, later stacks leave out the points above the
        # range, so a search that returns raised once at most, and one that
        # fails raised in its last two calls alone: its stack, then the
        # points it reads.
        calls, chain = [], sweep._chunk_measures

        def counted(*args):
            try:
                result = chain(*args)
            except InvalidParameterError:
                calls[-1].append(True)
                raise
            calls[-1].append(False)
            return result

        monkeypatch.setattr(sweep, "_chunk_measures", counted)
        failed = 0
        for case in _straddling_ratio_cases():
            calls.append([])
            if isinstance(_ratio_outcome(*case), CriticalPoint):
                assert calls[-1].count(True) <= 1
            else:
                assert calls[-1].count(True) == 2 and calls[-1][-1]
                failed += 1
        assert 100 < failed < 1400
        assert 2000 < sum(map(sum, calls)) < 2150  # 2,150 where stacks rebuilt them

    def test_benchmark_searches_make_about_two_chain_calls(self, monkeypatch):
        # The ratio_search workload's searches, 13 a seed for seeds 1 to 40:
        # most measure one stack and the midpoint, some the midpoint alone.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        calls, measure = [], sweep._measure

        def counted(*args):
            calls[-1] += 1
            return measure(*args)

        monkeypatch.setattr(sweep, "_measure", counted)
        for seed in range(1, 41):
            for op in workloads.ratio_search(seed).ops:
                _, _, _, t, _, lo, hi, _, tol = op.argv
                calls.append(0)
                optimal_ratio(float(t), (float(lo), float(hi)), float(tol))
        assert len(calls) == 520
        assert sum(calls) / len(calls) <= 1.9
        assert max(calls) <= 5

    def test_closed_form_is_within_a_quarter_of_its_band(self):
        # Against the discord of the ratio-sweep rows of 200 temperatures,
        # T = 0 among them, at 64 ratios each from 1e-6 to 1e5.
        rng = np.random.default_rng(35)
        fixed, gaps, missing = EffectiveParams.symmetric(1.0, 0.0), [], 0
        for k in range(200):
            t = 0.0 if k % 8 == 0 else float(10.0 ** rng.uniform(-6.0, 3.0))
            ratios = 10.0 ** rng.uniform(-6.0, 5.0, 64)
            rows = sweep._sweep_table(fixed, ThermalSpec(t), [("ratio_j_over_eps", ratios)],
                                      ("discord",))
            for ratio, discord in zip(ratios.tolist(), rows[:, 1].tolist()):
                estimate = sweep._x_discord(ratio, t)
                if estimate is None:
                    missing += 1
                else:
                    gaps.append(abs(estimate[0] - discord) / estimate[1])
        assert missing < 200 and len(gaps) > 12_000
        assert max(gaps) <= 0.25

    def test_closed_form_equals_the_plain_one_bit_for_bit(self):
        # Module-level terms in place of per-call closures and sum()
        # generators, the same float operations in the same order: equal
        # results, None and the sign of zero included, on 24,000 seeded
        # pairs.  Ratios 1e-3 to 1e6 and some above the largest coupling, at
        # T = 0 and log-uniform T from 1e-5 to 1e3 K.
        rng = np.random.default_rng(38)
        n = 24_000
        ratios = 10.0 ** rng.uniform(-3.0, 6.0, n)
        ratios[::50] = 10.0 ** rng.uniform(150.0, 300.0, n // 50)
        ratios[25::1000] = device.MAX_ENERGY_K
        temperatures = 10.0 ** rng.uniform(-5.0, 3.0, n)
        temperatures[::4] = 0.0
        outcomes = [(sweep._x_discord(r, t), plain_x_discord(r, t))
                    for r, t in zip(ratios.tolist(), temperatures.tolist())]
        assert all(repr(new) == repr(plain) for new, plain in outcomes)
        nones = [new is None for new, _ in outcomes]
        assert sum(ratios > device.MAX_ENERGY_K) == n // 50 and 1_000 < sum(nones) < n // 4

    @pytest.mark.parametrize("ratio, t", [(1.1e5, 0.0), (1e7, 0.0), (1.5e150, 1e200)])
    def test_no_closed_form_for_two_ground_levels_or_a_coupling_out_of_range(self, ratio, t):
        assert sweep._x_discord(ratio, t) is None


class TestFigurePresets:
    def test_fig2a_single_zero_temperature_series(self):
        (spec,) = figure_preset("fig2a")
        assert spec.variable == "ratio_j_over_eps"
        assert spec.thermal.temperature == 0.0
        assert spec.steps == 501
        assert (spec.start, spec.stop) == (0.1, 50.0)

    def test_fig2b_temperature_list(self):
        specs = figure_preset("fig2b")
        assert [s.thermal.temperature for s in specs] == [0.1, 0.5, 1.0, 1.5, 2.0]
        assert FIG2B_TEMPERATURES == (0.1, 0.5, 1.0, 1.5, 2.0)

    def test_fig3_voltage_list(self):
        specs = figure_preset("fig3")
        assert [s.fixed.v_x1 for s in specs] == [7.5e-6, 50e-6, 100e-6]
        assert all(s.fixed.v_x1 == s.fixed.v_x2 for s in specs)
        assert all(s.fixed.phi_x1 == 0.0 and s.fixed.phi_x2 == 0.0 for s in specs)
        assert all(s.fixed.l == 30e-9 for s in specs)
        assert all(s.variable == "temperature" for s in specs)
        assert FIG3_VOLTAGES == (7.5e-6, 50e-6, 100e-6)

    def test_fig4_temperature_list(self):
        specs = figure_preset("fig4")
        assert [s.thermal.temperature for s in specs] == [0.0, 1e-3, 5e-3]
        assert all(s.variable == "phi_x_common" for s in specs)
        assert all(s.fixed.v_x1 == 20e-6 for s in specs)
        assert FIG4_TEMPERATURES == (0.0, 1e-3, 5e-3)

    def test_fig5_two_surfaces(self):
        pairs = figure_preset("fig5")
        assert [x.thermal.temperature for x, _ in pairs] == [0.0, 0.01]
        for spec_x, spec_y in pairs:
            assert (spec_x.variable, spec_y.variable) == ("phi_x1", "phi_x2")
            assert spec_x.steps == spec_y.steps == 101
        assert FIG5_TEMPERATURES == (0.0, 0.01)

    def test_unknown_figure_rejected(self):
        with pytest.raises(SpecValidationError):
            figure_preset("fig9")

    def test_critical_point_container_defaults(self):
        point = CriticalPoint("esd_temperature", 0.1, 0.0, (0.09, 0.11), 7)
        assert not point.boundary

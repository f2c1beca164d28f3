import argparse
import contextlib
import csv
import functools
import importlib
import io
import json
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from jcqsim import cli, device, sweep
from jcqsim.cli import main
from jcqsim.correlations import MEASURES, concurrence
from jcqsim.device import (
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    effective_params,
    thermal_state,
)
from jcqsim.errors import DomainError


def _parsed(parse, argv):
    """(namespace or SystemExit code, stdout, stderr) of ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = parse(list(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _same_outcome(leaf, root):
    """Equal namespaces (``vars``, compared by repr so that a NaN flag equals
    itself), or equal exit codes and output."""
    def comparable(outcome):
        result, out, err = outcome
        if isinstance(result, argparse.Namespace):
            result = repr(sorted(vars(result).items()))
        return result, out, err
    return comparable(leaf) == comparable(root)


@pytest.fixture(autouse=True, scope="module")
def _every_parse_against_the_root_route():
    """Every argv a test here runs through ``main`` is parsed by the leaf
    route (``cli._parse``) and by the root parser of a second parser tree,
    and must give the same outcome; the test then sees the leaf route's."""
    parse, root = cli._parse, cli._build_parser.__wrapped__()

    @functools.wraps(parse)
    def checked(argv):
        leaf = _parsed(parse, argv)
        assert _same_outcome(leaf, _parsed(root.parse_args, argv)), argv
        result, out, err = leaf
        sys.stdout.write(out)
        sys.stderr.write(err)
        if not isinstance(result, argparse.Namespace):
            raise SystemExit(result)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_parse", checked)
        yield


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def sweep_row(capsys, controls, t):
    """The measure cells of the ``sweep`` row at ``controls`` and temperature
    ``t``: the first point of a two-point temperature sweep."""
    code, out, _ = run_cli(capsys, "sweep", *controls, "--variable", "temperature",
                           "--start", repr(t), "--stop", repr(t + 1.0), "--steps", "2",
                           "--measures", *MEASURES)
    assert code == 0
    return parse_csv(out)[1][0][1:]


class TestReport:
    def test_maximally_entangled_ground_state(self, capsys):
        # eps far below j leaves the ground state maximally entangled
        code, out, _ = run_cli(
            capsys, "report", "--eps", "1e-4", "--j", "1", "--temp", "0"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == [
            "mutual_information", "classical_correlation", "discord",
            "concurrence", "eof", "theta_opt", "phi_opt",
        ]
        row = dict(zip(header, rows[0]))
        assert float(row["discord"]) == pytest.approx(1.0, abs=1e-6)
        assert float(row["eof"]) == pytest.approx(1.0, abs=1e-6)

    def test_exact_charge_degeneracy_reports_the_gibbs_limit(self, capsys):
        # at eps = 0 exactly the T = 0 state is the uniform mixture over the
        # twofold-degenerate ground space, which carries no discord at all
        code, out, _ = run_cli(capsys, "report", "--eps", "0", "--j", "1", "--temp", "0")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert float(row["discord"]) == pytest.approx(0.0, abs=1e-9)
        assert float(row["mutual_information"]) == pytest.approx(1.0, abs=1e-9)

    def test_product_ground_state(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--eps", "1", "--j", "0", "--temp", "0")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        for column in ("mutual_information", "classical_correlation", "discord",
                       "concurrence", "eof"):
            assert abs(float(row[column])) <= 1e-9

    def test_round_trips_against_library(self, capsys):
        code, out, _ = run_cli(
            capsys, "report", "--eps", "1", "--j", "2", "--temp", "0.5"
        )
        assert code == 0
        _, rows = parse_csv(out)
        # The measures of the sweep row at these controls, and the optimal
        # measurement of the sweep table's row there.
        axis = [("temperature", np.array([0.5, 1.5]))]
        angles = sweep._sweep_table(EffectiveParams.symmetric(1.0, 2.0), ThermalSpec(0.5),
                                    axis, (*MEASURES, "theta", "phi"))[0, -2:]
        expected = sweep_row(capsys, ["--eps", "1", "--j", "2"], 0.5)
        assert rows[0] == expected + [format(v, ".9g") for v in angles]

    def test_device_mode_matches_effective_map(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--v-x", "2e-5", "--temp", "0")
        assert code == 0
        _, rows = parse_csv(out)
        eff = effective_params(DeviceParams(v_x1=2e-5, v_x2=2e-5))
        # The sweep row at the effective map's coefficients.
        controls = [arg for k in ("eps1", "eps2", "ej1", "ej2", "j12")
                    for arg in (f"--{k}-k", repr(getattr(eff, k)))]
        assert rows[0][2] == sweep_row(capsys, controls, 0.0)[2]

    @pytest.mark.parametrize("seed", range(6))
    def test_report_prints_the_sweep_row_at_its_controls(self, capsys, seed):
        # Seeded device points, X-shaped (phi_e = 1/2) and not, at T = 0 and
        # T > 0: the report's five cells are those of the temperature sweep
        # whose first grid point has the same controls.
        rng = np.random.default_rng(2600 + seed)
        for k in range(8):
            controls = ["--v-x1-v", repr(rng.uniform(0.0, 1e-4)),
                        "--v-x2-v", repr(rng.uniform(0.0, 1e-4)),
                        "--phi-x1", repr(rng.uniform(0.0, 2.0)),
                        "--phi-x2", repr(rng.uniform(0.0, 2.0)),
                        "--phi-e", repr(0.5 if k % 2 else rng.uniform(0.0, 1.0))]
            t = 0.0 if k % 4 < 2 else rng.uniform(1e-3, 0.05)
            code, out, _ = run_cli(capsys, "report", *controls, "--temp", repr(t))
            assert code == 0
            report = parse_csv(out)[1][0]
            code, out, _ = run_cli(capsys, "sweep", *controls, "--variable", "temperature",
                                   "--start", repr(t), "--stop", repr(t + 1.0), "--steps", "2",
                                   "--measures", *MEASURES)
            assert code == 0
            header, rows = parse_csv(out)
            assert header == ["temperature_k", *MEASURES]
            assert rows[0][1:] == report[:5], controls + [repr(t)]

    def test_out_flag_writes_file(self, capsys, tmp_path):
        out = tmp_path / "report.csv"
        code, stdout, _ = run_cli(
            capsys, "report", "--eps", "1", "--j", "2", "--temp", "0.5",
            "--out", str(out),
        )
        assert code == 0
        assert stdout == ""
        assert out.read_text().startswith("mutual_information,")

    def test_one_parser_serves_every_call(self, capsys):
        # A report with --temp, then one without: the second is the T = 0 row,
        # so no argument of one call survives into the next.
        parser = cli._build_parser()
        hot = run_cli(capsys, "report", "--eps", "1", "--j", "2", "--temp", "0.5")
        cold = run_cli(capsys, "report", "--eps", "1", "--j", "2")
        zero = run_cli(capsys, "report", "--eps", "1", "--j", "2", "--temp", "0")
        assert cli._build_parser() is parser
        assert hot[0] == cold[0] == zero[0] == 0
        assert cold[1] == zero[1] != hot[1]

    def test_tiny_temperature_warns_nothing(self, capsys, tmp_path):
        # 1/T overflows below about 1e-308 K; the state is the T = 0 limit.
        cfg = tmp_path / "cold.json"
        cfg.write_text(json.dumps({"thermal": {"temperature_k": 5e-324}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "report", "--eps", "1", "--j", "2",
                                     "--config", str(cfg))
        assert (code, err) == (0, "")
        _, zero, _ = run_cli(capsys, "report", "--eps", "1", "--j", "2", "--temp", "0")
        discord = [float(parse_csv(text)[1][0][2]) for text in (out, zero)]
        assert abs(discord[0] - discord[1]) <= 1e-12


class TestConfigHandling:
    def test_effective_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "effective": {"eps1_k": 1.0, "eps2_k": 1.0, "j12_k": 2.0},
            "thermal": {"temperature_k": 0.5},
        }))
        code, out, _ = run_cli(capsys, "report", "--config", str(cfg))
        assert code == 0
        _, rows = parse_csv(out)
        assert rows[0][2] == sweep_row(capsys, ["--eps", "1", "--j", "2"], 0.5)[2]

    def test_flags_override_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({
            "effective": {"eps1_k": 1.0, "eps2_k": 1.0, "j12_k": 2.0},
            "thermal": {"temperature_k": 0.5},
        }))
        code, out, _ = run_cli(capsys, "report", "--config", str(cfg), "--j", "0", "--temp", "0")
        assert code == 0
        _, rows = parse_csv(out)
        assert abs(float(rows[0][2])) <= 1e-9

    def test_device_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "device.json"
        cfg.write_text(json.dumps({
            "device": {"l_h": 30e-9, "v_x1_v": 7.5e-6, "v_x2_v": 7.5e-6},
            "thermal": {"temperature_k": 0.001},
        }))
        code, out, _ = run_cli(capsys, "report", "--config", str(cfg))
        assert code == 0

    def test_malformed_json_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text("{not json")
        code, _, err = run_cli(capsys, "report", "--config", str(cfg))
        assert code == 2
        assert "error" in err

    def test_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"effective": {"epsilon": 1.0}}))
        code, _, _ = run_cli(capsys, "report", "--config", str(cfg))
        assert code == 2

    @pytest.mark.parametrize(
        "config, argv, key",
        [
            ({"thermal": {"temperature_k": "abc"}}, ["report", "--eps", "1", "--j", "2"],
             "temperature_k"),
            ({"thermal": {"temperature_k": "abc"}}, ["critical", "ratio"], "temperature_k"),
            ({"device": {"l_h": "abc"}}, ["report"], "l_h"),
            ({"thermal": {"temperature_k": [1]}}, ["report", "--eps", "1", "--j", "2"],
             "temperature_k"),
            ({"device": {"n": 1.5}}, ["report"], "n"),
            ({"effective": {"eps1_k": 1, "eps2_k": None, "j12_k": 2}}, ["report"], "eps2_k"),
            ({"device": {"xi": True}}, ["report"], "xi"),
        ],
    )
    def test_value_of_wrong_type_exits_2(self, capsys, tmp_path, config, argv, key):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 2
        assert err.startswith("error:") and repr(key) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("measures", ["discord", 3, ["discord", 3]])
    def test_measures_must_be_a_list_of_strings(self, capsys, tmp_path, measures):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"effective": {"eps1_k": 1, "eps2_k": 1, "j12_k": 2},
                                   "measures": measures}))
        code, out, err = run_cli(capsys, "sweep", "--variable", "temperature", "--start", "0",
                                 "--stop", "1", "--steps", "3", "--config", str(cfg))
        assert code == 2 and out == ""
        assert err.startswith("error: 'measures' must be a list of strings")

    @pytest.mark.parametrize("n", [1e300, -1000001])
    def test_out_of_range_n_exits_2_without_warnings(self, capsys, tmp_path, n):
        cfg = tmp_path / "n.json"
        cfg.write_text(json.dumps({"device": {"n": n}}))
        for argv in (["--config", str(cfg)], ["--n", str(int(n))]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy's overflow warning fails the test
                code, out, err = run_cli(capsys, "report", *argv)
            assert code == 2 and out == ""
            assert err == "error: n must satisfy |n| <= 1e6 (a Cooper-pair offset)\n"

    def test_both_modes_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "report", "--eps", "1", "--j", "1", "--v-x", "1e-5"
        )
        assert code == 2
        assert "not both" in err

    def test_no_parameters_exit_2(self, capsys):
        code, _, _ = run_cli(capsys, "report", "--temp", "0.5")
        assert code == 2

    def test_dimensionless_conflicts_with_device_flags(self, capsys):
        code, _, _ = run_cli(
            capsys, "report", "--dimensionless", "--v-x", "1e-5", "--temp", "0"
        )
        assert code == 2

    def test_unknown_flag_exits_2(self, capsys):
        code, _, _ = run_cli(capsys, "report", "--frequency", "1")
        assert code == 2


class TestFigure:
    def test_fig2a_csv(self, capsys, tmp_path):
        out = tmp_path / "fig2a.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig2a", "--out", str(out), "--steps", "51"
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["series", "ratio", "discord"]
        assert len(rows) == 51
        assert rows[0][0] == "T=0K"
        assert float(rows[-1][1]) == 50.0
        assert abs(float(rows[-1][2]) - 1.0) <= 5e-3

    def test_fig4_series_and_periodicity(self, capsys, tmp_path):
        out = tmp_path / "fig4.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig4", "--out", str(out), "--steps", "41"
        )
        assert code == 0
        header, rows = parse_csv(out.read_text())
        assert header == ["series", "theta", "discord", "eof"]
        series = {row[0] for row in rows}
        assert series == {"T=0K", "T=0.001K", "T=0.005K"}
        for label in series:
            values = [float(r[2]) for r in rows if r[0] == label]
            assert len(values) == 41
            for i in range(20):
                assert values[i + 20] == pytest.approx(values[i], abs=1e-10)

    def test_fig5_writes_two_grids(self, capsys, tmp_path):
        out = tmp_path / "fig5.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig5", "--out", str(out), "--steps", "9"
        )
        assert code == 0
        path_a = tmp_path / "fig5_a.csv"
        path_b = tmp_path / "fig5_b.csv"
        assert path_a.exists() and path_b.exists()
        header, rows = parse_csv(path_a.read_text())
        assert header == ["series", "theta1", "theta2", "discord"]
        assert len(rows) == 81
        assert rows[0][0] == "T=0K"
        header_b, rows_b = parse_csv(path_b.read_text())
        assert rows_b[0][0] == "T=0.01K"

    def test_plot_script_emission(self, capsys, tmp_path):
        out = tmp_path / "fig2a.csv"
        code, _, _ = run_cli(
            capsys, "figure", "fig2a", "--out", str(out), "--steps", "5",
            "--emit-plot-script",
        )
        assert code == 0
        script = (tmp_path / "fig2a.gp").read_text()
        assert "fig2a.csv" in script
        assert "plot" in script

    def test_fig5_plot_script_labels_its_axes(self, capsys, tmp_path):
        out = tmp_path / "fig5.csv"
        code, _, _ = run_cli(capsys, "figure", "fig5", "--out", str(out), "--steps", "3",
                             "--emit-plot-script")
        assert code == 0
        script = (tmp_path / "fig5_a.gp").read_text()
        assert 'set xlabel "theta1"' in script
        assert 'set ylabel "theta2"' in script

    def test_newline_discipline(self, capsys, tmp_path):
        out = tmp_path / "fig2a.csv"
        run_cli(capsys, "figure", "fig2a", "--out", str(out), "--steps", "5")
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")

    def test_unwritable_path_exits_4(self, capsys, tmp_path):
        out = tmp_path / "missing" / "fig2a.csv"
        code, _, _ = run_cli(capsys, "figure", "fig2a", "--out", str(out), "--steps", "5")
        assert code == 4

    def test_threads_give_identical_bytes(self, capsys, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        run_cli(capsys, "figure", "fig2a", "--out", str(out1), "--steps", "21",
                "--threads", "1")
        run_cli(capsys, "figure", "fig2a", "--out", str(out2), "--steps", "21",
                "--threads", "2")
        assert out1.read_bytes() == out2.read_bytes()


class TestCritical:
    def test_never_entangled_exits_5(self, capsys):
        code, _, err = run_cli(
            capsys, "critical", "esd", "--eps", "1", "--j", "0", "--t-max", "1"
        )
        assert code == 5
        assert "never entangled" in err

    def test_degenerate_hamiltonian_is_never_entangled_and_exits_5(self, capsys):
        # H = 0: the T = 0 state is the mixture I/4 over the whole ground space.
        code, out, err = run_cli(
            capsys, "critical", "esd", "--eps", "0", "--j", "0", "--t-max", "1"
        )
        assert (code, out) == (5, "")
        assert "never entangled" in err

    def test_esd_weights_that_are_no_spectrum_exit_3(self, capsys, monkeypatch):
        def spoiled(w, temperatures):
            weights, cold = boltzmann_weights(w, temperatures)
            weights[:, -1] = -1e-3
            return weights, cold

        boltzmann_weights = device._boltzmann_weights
        monkeypatch.setattr(device, "_boltzmann_weights", spoiled)
        code, out, err = run_cli(capsys, "critical", "esd", "--v-x", "7.5e-6", "--t-max", "1")
        assert (code, out) == (3, "")
        assert "negative eigenvalue" in err

    @pytest.mark.parametrize("bad, message", [(-1e-3, "negative eigenvalue"),
                                              (math.nan, "non-finite eigenvalue")])
    @pytest.mark.parametrize("argv", [
        ("sweep", "--variable", "temperature", "--start", "0", "--stop", "0.1", "--steps", "5",
         "--v-x", "7.5e-6", "--measures", "mutual_information"),
        ("critical", "ratio", "--temp", "0.5"),
    ], ids=["sweep", "critical_ratio"])
    def test_built_weights_that_are_no_spectrum_exit_3(self, capsys, monkeypatch, argv, bad,
                                                       message):
        # A sweep chunk or a j/eps stack checks its states' Boltzmann weights
        # as their spectra, in place of the public validation of each state.
        def spoiled(w, temperatures):
            weights, cold = boltzmann_weights(w, temperatures)
            weights[:, -1] = bad
            return weights, cold

        boltzmann_weights = device._boltzmann_weights
        monkeypatch.setattr(device, "_boltzmann_weights", spoiled)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (3, "")
        assert message in err

    def test_ratio_at_zero_temperature_is_boundary(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical", "ratio", "--temp", "0", "--bracket", "0.1", "50"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["kind", "location", "value_at", "bracket_lo", "bracket_hi",
                          "iterations", "boundary"]
        row = dict(zip(header, rows[0]))
        assert row["kind"] == "optimal_ratio"
        assert row["boundary"] == "1"
        assert float(row["location"]) == pytest.approx(50.0, abs=1e-3)

    def test_ratio_reads_temperature_from_config(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"thermal": {"temperature_k": 0.5}}))
        code, from_config, _ = run_cli(
            capsys, "critical", "ratio", "--config", str(cfg), "--tol", "1e-3"
        )
        assert code == 0
        _, from_flag, _ = run_cli(
            capsys, "critical", "ratio", "--temp", "0.5", "--tol", "1e-3"
        )
        assert from_config == from_flag
        header, rows = parse_csv(from_config)
        row = dict(zip(header, rows[0]))
        assert row["boundary"] == "0"
        assert float(row["location"]) == pytest.approx(1.911, abs=1e-2)

    def test_ratio_unknown_config_key_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"bogus": 1}))
        code, _, err = run_cli(capsys, "critical", "ratio", "--config", str(cfg))
        assert code == 2
        assert "bogus" in err

    def test_ratio_missing_config_exits_4(self, capsys, tmp_path):
        missing = tmp_path / "absent.json"
        code, _, _ = run_cli(capsys, "critical", "ratio", "--config", str(missing))
        assert code == 4

    def test_esd_with_device_parameters(self, capsys):
        code, out, _ = run_cli(
            capsys, "critical", "esd", "--v-x", "7.5e-6", "--t-max", "1",
        )
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        assert row["kind"] == "esd_temperature"
        location = float(row["location"])
        assert 0.0 < location < 0.1
        fixed = effective_params(DeviceParams(v_x1=7.5e-6, v_x2=7.5e-6))
        assert concurrence(thermal_state(fixed, location + 2e-6)) == 0.0
        assert concurrence(thermal_state(fixed, location - 2e-6)) > 0.0

    def test_printed_esd_bracket_holds_the_point(self, capsys):
        # This search's lower end, 0.03224658966064453 K, has concurrence
        # 2e-11; its nearest 9 digits, 0.0322465897, lie past the crossing.
        fixed = DeviceParams(v_x1=9.80734e-05, v_x2=9.80734e-05, phi_x1=0.268488, phi_x2=0.268488)
        code, out, _ = run_cli(capsys, "critical", "esd", "--v-x", "9.80734e-05",
                               "--phi-x1", "0.268488", "--phi-x2", "0.268488", "--t-max", "1")
        assert code == 0
        header, rows = parse_csv(out)
        row = dict(zip(header, rows[0]))
        lo, hi = float(row["bracket_lo"]), float(row["bracket_hi"])
        point = sweep.esd_temperature(fixed, t_max=1.0)
        assert lo <= point.bracket[0] < point.bracket[1] <= hi
        assert concurrence(thermal_state(fixed, lo)) > 0.0
        assert concurrence(thermal_state(fixed, hi)) <= sweep.CONCURRENCE_FLOOR

    @pytest.mark.parametrize("kind", [["esd", "--v-x", "7.5e-6"], ["ratio"]])
    @pytest.mark.parametrize("tol", ["nan", "inf", "1e-300"])
    def test_unusable_tol_exits_2(self, capsys, kind, tol):
        code, out, err = run_cli(capsys, "critical", *kind, "--tol", tol)
        assert (code, out) == (2, "")
        assert "tol must be finite" in err


class TestSweepCommand:
    def test_temperature_sweep(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--variable", "temperature", "--start", "0.0",
            "--stop", "1.0", "--steps", "5", "--eps", "1", "--j", "2",
            "--measures", "discord", "eof",
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["temperature_k", "discord", "eof"]
        assert len(rows) == 5
        assert [r[0] for r in rows] == ["0", "0.25", "0.5", "0.75", "1"]

    @pytest.mark.parametrize("variable, params, column", [
        ("ratio_j_over_eps", ["--eps", "1", "--j", "2"], "ratio"),
        ("temperature", ["--eps", "1", "--j", "2"], "temperature_k"),
        ("phi_x_common", ["--phi-e", "0.5"], "theta"),
        ("phi_x1", ["--phi-e", "0.5"], "theta1"),
        ("phi_x2", ["--phi-e", "0.5"], "theta2"),
        ("voltage", ["--phi-e", "0.5"], "v_x_v"),
    ])
    def test_header_names_the_swept_variable(self, capsys, variable, params, column):
        code, out, _ = run_cli(capsys, "sweep", "--variable", variable, "--start", "0.1",
                               "--stop", "0.2", "--steps", "2", *params,
                               "--measures", "concurrence")
        assert code == 0
        assert parse_csv(out)[0] == [column, "concurrence"]

    def test_bad_spec_exits_2(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--variable", "temperature", "--start", "1.0",
            "--stop", "0.0", "--steps", "5", "--eps", "1", "--j", "2",
        )
        assert code == 2


_TEMPERATURE_SWEEP = ["sweep", "--eps", "1", "--j", "2", "--variable", "temperature",
                      "--start", "0", "--stop", "1",
                      "--measures", "mutual_information", "concurrence", "eof"]


class TestStreamedOutput:
    """``sweep`` writes each chunk's rows as the chunk is measured."""

    def test_peak_heap_is_bounded_by_a_chunk_not_the_table(self, tmp_path):
        # The table of 20,001 rows would take about 4 MB as one string and its
        # floats; the axis alone is 160 KB.
        out = str(tmp_path / "sweep.csv")
        assert main([*_TEMPERATURE_SWEEP, "--steps", "101", "--out", out]) == 0
        tracemalloc.start()
        try:
            code = main([*_TEMPERATURE_SWEEP, "--steps", "20001", "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert len(Path(out).read_text().splitlines()) == 20002
        assert peak < 512 * 1024

    def test_peak_heap_does_not_grow_with_the_axis(self, tmp_path):
        # Each chunk takes its axis values from its indices: the whole axis
        # of 200,001 points would take 1.6 MB on its own.
        out = str(tmp_path / "sweep.csv")
        assert main([*_TEMPERATURE_SWEEP, "--steps", "101", "--out", out]) == 0
        tracemalloc.start()
        try:
            code = main([*_TEMPERATURE_SWEEP, "--steps", "200001", "--out", out])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        with open(out) as f:
            assert sum(1 for _ in f) == 200002
        assert peak < 512 * 1024

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_write_error_stops_the_sweep_at_once(self, capsys, monkeypatch):
        measured, measure = [], sweep._measure

        def counted(*args):
            measured.append(None)
            return measure(*args)

        monkeypatch.setattr(sweep, "_measure", counted)
        code, out, err = run_cli(capsys, *_TEMPERATURE_SWEEP, "--steps", "200001",
                                 "--out", "/dev/full")
        assert (code, out) == (4, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert 1 <= len(measured) <= 8  # of 3,126 chunks

    def test_invalid_point_past_the_first_chunk_keeps_the_rows_before(self, capsys):
        # eps1 overflows from a grid point past the first chunk on: the
        # complete chunks before it are written, then the error.
        axis = np.linspace(0.0, 2e147, 201)
        bad = next(i for i, v in enumerate(axis.tolist()) if not abs(
            device.epsilon_from_voltage(DeviceParams(v_x1=v, v_x2=v), 1)) <= device.MAX_ENERGY_K)
        assert bad >= sweep.CHUNK_POINTS
        code, out, err = run_cli(capsys, "sweep", "--variable", "voltage", "--start", "0",
                                 "--stop", "2e147", "--steps", "201", "--phi-e", "0.5",
                                 "--measures", "concurrence")
        assert (code, err) == (2, "error: eps1 must be finite with |eps1| <= 1e+150 K\n")
        kept = bad // sweep.CHUNK_POINTS * sweep.CHUNK_POINTS
        rows = sweep._sweep_table(DeviceParams(phi_e=0.5), ThermalSpec(0.0),
                                  [("voltage", axis[:kept])], ("concurrence",))
        assert out == "v_x_v,concurrence\n" + cli._table_csv(rows)


class TestExitCodeMapping:
    def test_numerical_domain_error_maps_to_3(self, capsys, monkeypatch):
        def boom(*args):  # the measures of the report's one-row sweep
            raise DomainError("synthetic domain failure")

        monkeypatch.setattr(sweep, "_measure", boom)
        code, _, err = run_cli(capsys, "report", "--eps", "1", "--j", "2", "--temp", "1")
        assert code == 3
        assert "synthetic" in err

    @pytest.mark.parametrize("error", [OverflowError, FloatingPointError, np.linalg.LinAlgError])
    def test_arithmetic_and_eigensolver_errors_map_to_3(self, capsys, monkeypatch, error):
        def boom(*args):  # the measures of the report's one-row sweep
            raise error("synthetic failure")

        monkeypatch.setattr(sweep, "_measure", boom)
        code, _, err = run_cli(capsys, "report", "--eps", "1", "--j", "2", "--temp", "1")
        assert (code, err) == (3, "error: synthetic failure\n")

    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "error: Unable to allocate 7.28 TiB for an array\n"),
        (MemoryError(), "error: MemoryError\n"),
    ])
    def test_memory_error_maps_to_3(self, capsys, monkeypatch, error, message):
        # The axis of a trillion steps is never allocated whole; the first
        # chunk's measures run out of memory.
        def no_memory(*args, **kwargs):
            raise error

        monkeypatch.setattr(sweep, "_measure", no_memory)
        code, out, err = run_cli(capsys, "sweep", "--variable", "temperature", "--start", "0",
                                 "--stop", "1", "--steps", "1000000000000", "--eps", "1",
                                 "--j", "2")
        assert (code, out, err) == (3, "", message)


_OUT_OF_RANGE = [
    ({"device": {"e_j0_k": 1e200}}, "j12 overflows"),
    ({"effective": {"eps1_k": 1e300, "eps2_k": 1e300, "j12_k": 1e300}},
     "eps1 must be finite with |eps1| <= 1e+150 K"),
    ({"device": {"l_h": 1e300}}, "j12 must be finite"),
    ({"device": {"c_f": 5e-324, "c_j0_f": 5e-324}}, "the charging energy overflows"),
    ({"device": {"phi_x1": math.inf}}, "phi_x1 must be finite"),
]


class TestOutOfRangeInput:
    """Input that once ended in a traceback or in a silent row of zeros."""

    def test_ratio_search_beyond_the_largest_coupling_exits_2(self, capsys):
        # Both starting ratios are above 1e150 K: the first read ends the search.
        code, out, err = run_cli(capsys, "critical", "ratio", "--temp", "0.5",
                                 "--bracket", "0.1", "1e200", "--tol", "1e190")
        assert (code, out, err) == (2, "", "error: j12 must be finite with |j12| <= 1e+150 K\n")

    def test_ratio_search_across_the_largest_coupling_that_never_reads_beyond(self, capsys):
        # The search settles below 1e150 K and reads no ratio above it,
        # though the stacks of ratios ahead of it hold some.
        code, out, err = run_cli(capsys, "critical", "ratio", "--temp", "4.72353e156",
                                 "--bracket", "1.1753e147", "1.30417e150",
                                 "--tol", "1.30417e141")
        assert (code, err) == (0, "")
        header, rows = parse_csv(out)
        assert dict(zip(header, rows[0]))["location"] == "5.98547718e+149"

    @pytest.mark.parametrize("config, message", _OUT_OF_RANGE)
    def test_report_exits_2_naming_the_quantity(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, "report", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config, message", _OUT_OF_RANGE)
    def test_sweep_exits_2_naming_the_quantity(self, capsys, tmp_path, config, message):
        cfg = tmp_path / "big.json"
        cfg.write_text(json.dumps(config))
        variable = "ratio_j_over_eps" if "effective" in config else "phi_x_common"
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg), "--variable", variable,
                                 "--start", "0.1", "--stop", "1", "--steps", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("axis, message", [
        (("--variable", "voltage", "--start", "0", "--stop", "1e300"),
         "error: eps1 must be finite with |eps1| <= 1e+150 K\n"),
        (("--variable", "temperature", "--start", "-1", "--stop", "1"),
         "error: temperature must be finite and >= 0\n"),
        (("--variable", "voltage", "--start=-1e308", "--stop", "1e308"),
         "error: the axis from start to stop overflows a float\n"),
    ])
    def test_sweep_axis_out_of_range_exits_2(self, capsys, axis, message):
        code, out, err = run_cli(capsys, "sweep", *axis, "--steps", "201", "--phi-e", "0.5",
                                 "--measures", "concurrence")
        assert (code, out, err) == (2, "", message)

    @pytest.mark.parametrize(
        "section, key",
        [("thermal", "temperature_k"), ("device", "n"), ("device", "l_h"),
         ("effective", "eps1_k")],
    )
    def test_integer_too_large_for_a_float_exits_2(self, capsys, tmp_path, section, key):
        cfg = tmp_path / "huge.json"
        cfg.write_text(f'{{"{section}": {{"{key}": {"9" * 400}}}}}')
        code, out, err = run_cli(capsys, "report", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == f"error: {key!r} is too large for a float\n"

    def test_config_that_is_not_utf8_exits_2(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.json"
        cfg.write_bytes(b'{"thermal": {"temperature_k": 0.5}} \xff')
        code, out, err = run_cli(capsys, "report", "--eps", "1", "--j", "2", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot parse config {cfg}")

    @pytest.mark.parametrize("threads", ["-4", "0", "two"])
    def test_threads_must_be_a_positive_integer(self, capsys, threads):
        code, out, err = run_cli(capsys, "figure", "fig2a", "--steps", "3", "--threads", threads)
        assert (code, out) == (2, "")
        assert "--threads: must be a positive integer" in err
        assert "Traceback" not in err


_DEVICE = ["--l-h", "--c-f", "--c-j0-f", "--e-j0-k", "--n", "--v-x1-v", "--v-x2-v",
           "--phi-e", "--phi-x1", "--phi-x2", "--xi", "--v-x"]
_EFFECTIVE = ["--eps1-k", "--eps2-k", "--ej1-k", "--ej2-k", "--j12-k", "--eps", "--j",
              "--dimensionless"]
_THERMAL = ["--temperature-k", "--temp"]
# Every option string each command accepts: a flag belongs only to the
# commands that read it.
SURFACE = {
    ("report",): {"--config", "--out", *_DEVICE, *_EFFECTIVE, *_THERMAL},
    ("figure",): {"--out", "--steps", "--emit-plot-script", "--threads"},
    ("critical", "esd"): {"--config", "--out", *_DEVICE, *_EFFECTIVE, "--t-max", "--tol"},
    ("critical", "ratio"): {"--config", "--out", *_THERMAL, "--bracket", "--tol"},
    ("sweep",): {"--config", "--out", *_DEVICE, *_EFFECTIVE, *_THERMAL,
                 "--variable", "--start", "--stop", "--steps", "--measures"},
}


def _command_parser(path):
    parser = cli._build_parser()
    for name in path:
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    return parser


class TestCommandSurface:
    def test_each_command_takes_exactly_its_flags(self):
        accepted = {
            path: {o for a in _command_parser(path)._actions for o in a.option_strings}
            - {"-h", "--help"}
            for path in SURFACE
        }
        assert accepted == SURFACE
        assert [len(flags) for flags in SURFACE.values()] == [24, 4, 24, 6, 29]

    @pytest.mark.parametrize(
        "argv",
        [
            ["critical", "ratio", "--eps", "2"],
            ["critical", "ratio", "--v-x", "1e-5"],
            ["critical", "ratio", "--t-max", "9"],
            ["critical", "esd", "--v-x", "7.5e-6", "--bracket", "3", "4"],
            ["critical", "esd", "--v-x", "7.5e-6", "--temp", "3"],
            ["figure", "fig2a", "--config", "cfg.json"],
            ["figure", "fig2a", "--dimensionless"],
            ["report", "--eps", "1", "--j", "2", "--emit-plot-script"],
            ["report", "--eps", "1", "--j", "2", "--threads", "1"],
            ["sweep", "--variable", "temperature", "--start", "0", "--stop", "1", "--steps", "3",
             "--eps", "1", "--j", "2", "--emit-plot-script"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert "unrecognized arguments" in err and "Traceback" not in err
        # The command that got the flag reports it, with its own usage line.
        command = " ".join(argv[:2] if argv[0] == "critical" else argv[:1])
        assert err.startswith(f"usage: jcqsim {command} [-h]")
        assert f"jcqsim {command}: error: unrecognized arguments: " in err

    @pytest.mark.parametrize(
        "config, argv, key",
        [
            ({"device": {"v_x1_v": 1e-5}}, ["critical", "ratio"], "device"),
            ({"thermal": {"temperature_k": 3}}, ["critical", "esd", "--v-x", "7.5e-6"],
             "thermal"),
            ({"measures": ["eof"]}, ["report", "--eps", "1", "--j", "2"], "measures"),
        ],
    )
    def test_config_key_the_command_does_not_read_exits_2(self, capsys, tmp_path, config,
                                                          argv, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run_cli(capsys, *argv, "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and repr(key) in err

    def test_readme_examples_run(self, capsys, tmp_path, monkeypatch):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```")[1]
        commands = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("jcqsim ")]
        assert {argv[0] for argv in commands} == {"report", "figure", "critical", "sweep"}
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv) == 0, argv
        capsys.readouterr()


_BAD_ARGV = [
    [], ["-h"], ["critical"], ["critical", "-h"], ["critcal", "esd"], ["figure", "fig9"],
    ["critical", "esd", "--bogus", "1"],
    ["sweep", "--variable", "nope", "--start", "0", "--stop", "1", "--eps", "1", "--j", "1"],
]


class TestDispatch:
    """A command's argv is parsed by its own parser, with the outcome the
    root parser gives, and only argv that names no command reaches the root.
    (Every argv the other tests here run is checked the same way, by
    ``_every_parse_against_the_root_route``.)"""

    @staticmethod
    def routes(argv):
        return _parsed(cli._parse.__wrapped__, argv), _parsed(cli._build_parser().parse_args, argv)

    @pytest.mark.parametrize("argv", _BAD_ARGV, ids=lambda argv: " ".join(argv) or "none")
    def test_bad_input_gives_the_root_routes_exit_and_output(self, argv):
        leaf, root = self.routes(argv)
        assert _same_outcome(leaf, root)
        assert leaf[0] == (0 if argv[-1:] == ["-h"] else 2)

    def test_benchmark_operations_give_the_root_routes_namespace(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        workloads = importlib.import_module("workloads")
        count = 0
        for plan in (make(seed) for make in workloads.WORKLOADS.values() for seed in (1, 2, 3)):
            for op in plan.ops:
                leaf, root = self.routes([*op.argv, "--out", "out.csv"])
                assert isinstance(leaf[0], argparse.Namespace) and _same_outcome(leaf, root)
                count += 1
        assert count > 0

    def test_a_command_never_parses_with_the_root_parser(self, monkeypatch, tmp_path):
        def refused(*args, **kwargs):
            raise AssertionError("the root parser parsed a command")

        # The module's check of each parse reads a root parser of its own.
        monkeypatch.setattr(cli._build_parser(), "parse_known_args", refused)
        out = str(tmp_path / "out.csv")
        for argv in (["report", "--eps", "1", "--j", "2"],
                     ["figure", "fig2a", "--steps", "3"],
                     ["critical", "esd", "--v-x", "7.5e-6"],
                     ["critical", "ratio", "--temp", "0.5"],
                     ["sweep", "--variable", "temperature", "--start", "0", "--stop", "1",
                      "--steps", "3", "--eps", "1", "--j", "2"]):
            assert main([*argv, "--out", out]) == 0, argv


def _resolved(argv, config):
    """The parameter set and temperature ``report`` would run with."""
    args = cli._build_parser().parse_args(["report", *argv])
    fields = cli._resolve(args, config)
    return cli._params(args, fields), cli._thermal(fields)


def _value(resolved, section, key):
    params, thermal = resolved
    return getattr(thermal if section == "thermal" else params, cli.SCHEMA[section][key])


EFFECTIVE = {"effective": {"eps1_k": 1.0, "eps2_k": 1.0, "j12_k": 2.0}}


class TestSchema:
    @pytest.mark.parametrize(
        "section, key", [(name, key) for name, keys in cli.SCHEMA.items() for key in keys]
    )
    def test_every_key_works_in_json_and_as_a_flag(self, section, key):
        value = 3 if key == "n" else 0.25
        base = {} if section == "device" else EFFECTIVE
        config = {**base, section: {**base.get(section, {}), key: value}}
        assert _value(_resolved([], config), section, key) == value
        flag = [f"--{key.replace('_', '-')}", str(value)]
        assert _value(_resolved(flag, base), section, key) == value

    @pytest.mark.parametrize("shorthand", sorted(cli.SHORTHANDS))
    def test_config_then_flag_then_shorthand(self, shorthand):
        section, keys, _ = cli.SHORTHANDS[shorthand]
        base = {} if section == "device" else EFFECTIVE
        config = {**base, section: {**base.get(section, {}), **dict.fromkeys(keys, 0.1)}}
        flags = [word for key in keys for word in (f"--{key.replace('_', '-')}", "0.2")]
        short = [f"--{shorthand.replace('_', '-')}", "0.3"]
        for argv, expected in (([], 0.1), (flags, 0.2), (flags + short, 0.3), (short, 0.3)):
            resolved = _resolved(argv, config)
            assert [_value(resolved, section, key) for key in keys] == [expected] * len(keys)

    def test_readme_names_every_key_and_shorthand(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for keys in cli.SCHEMA.values():
            for key in keys:
                assert f"`{key}`" in readme and f"`--{key.replace('_', '-')}`" in readme
        for shorthand in cli.SHORTHANDS:
            assert f"`--{shorthand.replace('_', '-')}`" in readme


# Numbers from subnormal to near the float maximum reach the physics; values
# of the wrong type and integers too large for a float reach the checks.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-9, 10.0),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e150, 1e200, -1e300, 1.7e308]),
    st.integers(-10, 10),
)
_WRONG = st.one_of(
    st.integers(min_value=10**20, max_value=10**400),
    st.booleans(),
    st.text(max_size=4),
    st.none(),
)


def _configs(values):
    """Any sections, or one parameter set with an optional thermal section."""
    sections = {
        name: st.dictionaries(st.sampled_from(sorted(keys)), values, max_size=len(keys))
        for name, keys in cli.SCHEMA.items()
    }
    thermal = {"thermal": sections["thermal"]}
    return st.one_of(
        st.fixed_dictionaries({}, optional=sections),
        st.fixed_dictionaries({"device": sections["device"]}, optional=thermal),
        st.fixed_dictionaries({"effective": sections["effective"]}, optional=thermal),
    )


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=st.one_of(_configs(_NUMBERS), _configs(st.one_of(_NUMBERS, _WRONG))))
def test_report_on_any_config_exits_0_2_or_3(tmp_path_factory, config):
    cfg = tmp_path_factory.getbasetemp() / "fuzz.json"
    cfg.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["report", "--config", str(cfg)])
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        header, rows = parse_csv(out.getvalue())
        row = dict(zip(header, map(float, rows[0])))
        assert len(row) == 7 and all(math.isfinite(x) for x in row.values())
        assert row["discord"] >= 0.0
        assert 0.0 <= row["concurrence"] <= 1.0 and 0.0 <= row["eof"] <= 1.0


_CELLS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_TABLES = st.integers(1, 5).flatmap(
    lambda columns: st.lists(st.lists(_CELLS, min_size=columns, max_size=columns),
                             min_size=1, max_size=6))


@settings(max_examples=300, deadline=None)
@given(table=_TABLES, label=st.one_of(st.none(), st.sampled_from(["T=0.1K", "VX=7.5uV"]),
                                      st.text()))
@example(table=[[-0.0, 5e-324, 1e300, -1e300, 1e-310]], label=None)
@example(table=[[-0.0]], label="100%")
def test_table_writer_matches_each_cell_formatted(table, label):
    lead = "" if label is None else label + ","
    expected = "".join(lead + ",".join(format(x, ".9g") for x in row) + "\n" for row in table)
    assert cli._table_csv(np.array(table, dtype=float), label) == expected


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "jcqsim", "report", "--eps", "0", "--j", "1",
         "--temp", "0"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("mutual_information,")


@pytest.mark.parametrize("argv", [["--tol", "nan"], ["--t-min", "-1"], ["--bracket", "5", "1"],
                                  ["--points", "-1"], ["--points", "0"]])
def test_ratio_script_rejects_bad_input_with_exit_2(tmp_path, argv):
    root = Path(__file__).resolve().parents[1]
    out = tmp_path / "ratio.csv"
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "ratio_vs_temperature.py"), "--points", "2",
         *argv, "--out", str(out)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not out.exists()


def test_ratio_script_checks_its_output_before_any_search():
    # 40 searches would run before the file is opened: the directory is
    # checked first, and no search runs.
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "ratio_vs_temperature.py"), "--points", "40",
         "--out", "/nonexistent/ratio.csv"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == cli.EXIT_IO
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "T=" not in proc.stdout and "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ["ratio_vs_temperature.py", "--points", "1", "--out", "/nonexistent/ratio.csv"],
    ["make_figures.py", "--figures", "fig2a", "--steps", "5", "--outdir", "/dev/full/figs"],
])
def test_scripts_exit_4_on_an_output_path_they_cannot_write(argv):
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert proc.returncode == cli.EXIT_IO
    assert proc.stderr.startswith("error: ") and len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr

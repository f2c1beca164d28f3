"""Byte-compare CLI outputs against the committed CSVs in tests/golden/.

Each case runs one CLI command with ``--out`` in a fresh directory; every file
it writes must equal the golden file of the same name byte for byte.  After a
deliberate change of output, ``PYTHONPATH=src python tests/test_golden.py``
rewrites the goldens; review every changed cell in the diff.

The same bytes must come out however the states are stacked, so the cases
are also run at other sweep chunk sizes, maximizer block sizes and search
depths, and with two BLAS threads.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from jcqsim import correlations, sweep
from jcqsim.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = {
    **{f"figure_{w}": ["figure", w, "--steps", "15"]
       for w in ("fig2a", "fig2b", "fig3", "fig4", "fig5")},
    "report_eps1_j2_t0.5": ["report", "--eps", "1", "--j", "2", "--temp", "0.5"],
    "report_phi_e0.37": ["report", "--v-x", "5e-5", "--phi-e", "0.37", "--temp", "0.01"],
    "report_eps0_j2_t0": ["report", "--eps", "0", "--j", "2", "--temp", "0"],
    "report_eps1_j0_t0": ["report", "--eps", "1", "--j", "0", "--temp", "0"],
    "critical_esd": ["critical", "esd", "--v-x", "7.5e-6", "--t-max", "1"],
    "critical_ratio": ["critical", "ratio", "--temp", "0.5"],
    "sweep_phi_x_common_phi_e0.3": [
        "sweep", "--variable", "phi_x_common", "--start", "0", "--stop", "1", "--steps", "31",
        "--phi-e", "0.3", "--temp", "0.005",
        "--measures", "mutual_information", "discord", "concurrence", "eof"],
    "sweep_temperature_all_measures": [
        "sweep", "--variable", "temperature", "--start", "0", "--stop", "0.1", "--steps", "21",
        "--v-x", "7.5e-6", "--measures", "mutual_information", "classical_correlation",
        "discord", "concurrence", "eof"],
    "sweep_voltage_phi_e0.41": [
        "sweep", "--variable", "voltage", "--start", "5e-6", "--stop", "1e-4", "--steps", "25",
        "--phi-e", "0.41", "--temp", "0.01", "--measures", "mutual_information",
        "concurrence", "eof"],
    "sweep_ratio_t0": [
        "sweep", "--variable", "ratio_j_over_eps", "--start", "0.1", "--stop", "50",
        "--steps", "25", "--eps", "1", "--j", "0", "--temp", "0",
        "--measures", "classical_correlation", "discord"],
}


def _run(name: str, out_dir: Path) -> None:
    assert main([*CASES[name], "--out", str(out_dir / f"{name}.csv")]) == 0


def _assert_golden(out_dir: Path) -> None:
    written = sorted(out_dir.iterdir())
    assert written
    for path in written:
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_bytes(name, tmp_path):
    _run(name, tmp_path)
    _assert_golden(tmp_path)


@pytest.mark.parametrize("module, settings", [
    *((sweep, {"CHUNK_POINTS": n}) for n in (1, 7, 256, 4096)),
    (correlations, {"X_BLOCK": 1, "SEED_COLUMNS": 1, "POLISH_BLOCK": 1}),
    (correlations, {"X_BLOCK": 7, "SEED_COLUMNS": 5 * 2 * 993, "POLISH_BLOCK": 3}),
    *((sweep, {"SEARCH_DEPTH": n}) for n in (1, 2, 5)),
], ids=lambda x: ",".join(f"{k}={v}" for k, v in x.items()) if isinstance(x, dict)
   else x.__name__)
def test_outputs_do_not_depend_on_stack_composition(monkeypatch, tmp_path, module, settings):
    for name, value in settings.items():
        monkeypatch.setattr(module, name, value)
    for name in CASES:
        _run(name, tmp_path)
    assert len(list(tmp_path.iterdir())) == len(list(GOLDEN.iterdir()))
    _assert_golden(tmp_path)


def test_outputs_do_not_depend_on_blas_threads(tmp_path):
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, __file__, str(tmp_path)], env=env, check=True)
    assert len(list(tmp_path.iterdir())) == len(list(GOLDEN.iterdir()))
    _assert_golden(tmp_path)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN
    out.mkdir(exist_ok=True)
    for case in CASES:
        _run(case, out)

"""Command-line front end: report, figure, critical and sweep subcommands.

Parameters come from an optional JSON config file, overridable field by
field with flags of the same name.  All CSV output uses '.' decimals,
9 significant digits and '\\n' line endings, and is byte-identical across
runs and worker counts.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

from .correlations import quantum_discord
from .device import (
    DeviceParams,
    EffectiveParams,
    ThermalSpec,
    thermal_state,
)
from .errors import (
    BracketError,
    ConfigError,
    DimensionError,
    DomainError,
    InvalidParameterError,
    NotHermitianError,
    SpecValidationError,
    UnsupportedRegimeError,
)
from .sweep import (
    FIGURES,
    MEASURES,
    VARIABLES,
    SweepSpec,
    esd_temperature,
    figure_preset,
    optimal_ratio,
    sweep_1d,
    sweep_2d,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_BRACKET = 5

# JSON config keys (unit suffixes) -> dataclass fields.
DEVICE_KEYS = {
    "l_h": "l",
    "c_f": "c",
    "c_j0_f": "c_j0",
    "e_j0_k": "e_j0",
    "n": "n",
    "v_x1_v": "v_x1",
    "v_x2_v": "v_x2",
    "phi_e": "phi_e",
    "phi_x1": "phi_x1",
    "phi_x2": "phi_x2",
    "xi": "xi",
}
EFFECTIVE_KEYS = {
    "eps1_k": "eps1",
    "eps2_k": "eps2",
    "ej1_k": "ej1",
    "ej2_k": "ej2",
    "j12_k": "j12",
}

AXIS_COLUMNS = {
    "ratio_j_over_eps": "ratio",
    "temperature": "temperature_k",
    "phi_x_common": "theta",
    "phi_x1": "theta1",
    "phi_x2": "theta2",
    "voltage": "v_x_v",
}

REPORT_HEADER = [
    "mutual_information",
    "classical_correlation",
    "discord",
    "concurrence",
    "eof",
    "theta_opt",
    "phi_opt",
]
CRITICAL_HEADER = [
    "kind",
    "location",
    "value_at",
    "bracket_lo",
    "bracket_hi",
    "iterations",
    "boundary",
]


@dataclass(frozen=True)
class RunConfig:
    """One resolved run: exactly one parameter set plus thermal context."""

    device: DeviceParams | None
    effective: EffectiveParams | None
    thermal: ThermalSpec

    def __post_init__(self):
        if (self.device is None) == (self.effective is None):
            raise ConfigError("exactly one of device/effective must be present")

    @property
    def params(self) -> DeviceParams | EffectiveParams:
        return self.effective if self.effective is not None else self.device


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _load_config(path: Path | None) -> dict:
    """Read and check the JSON config once; no path gives an empty config."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(cfg) - {"device", "effective", "thermal", "measures"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return cfg


def _section(cfg: dict, name: str, allowed: dict) -> dict:
    section = cfg.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
    return dict(section)


def _number(key: str, value) -> float | int:
    """The one place a config or flag value becomes a number; only n is an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    if key != "n":
        return float(value)
    if not float(value).is_integer():
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _thermal(args, cfg: dict) -> ThermalSpec:
    """Temperature from the config, overridden by --temperature-k, then --temp."""
    temperature = _section(cfg, "thermal", {"temperature_k": None}).get("temperature_k", 0.0)
    for flag in (args.temperature_k, args.temp):
        if flag is not None:
            temperature = flag
    return ThermalSpec(_number("temperature_k", temperature))


def _merge_params(args, cfg: dict) -> RunConfig:
    """Combine the loaded config and flags into exactly one parameter set."""
    device_map = _section(cfg, "device", DEVICE_KEYS)
    effective_map = _section(cfg, "effective", EFFECTIVE_KEYS)

    for key in DEVICE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            device_map[key] = value
    if getattr(args, "v_x", None) is not None:
        device_map["v_x1_v"] = device_map["v_x2_v"] = args.v_x
    for key in EFFECTIVE_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            effective_map[key] = value
    if getattr(args, "eps", None) is not None:
        effective_map["eps1_k"] = effective_map["eps2_k"] = args.eps
    if getattr(args, "j", None) is not None:
        effective_map["j12_k"] = args.j

    thermal = _thermal(args, cfg)

    if args.dimensionless and device_map:
        raise ConfigError("--dimensionless conflicts with device parameters")
    if device_map and effective_map:
        raise ConfigError("give device or effective parameters, not both")
    if not device_map and not effective_map:
        raise ConfigError("no parameters given: set device or effective values")

    if effective_map:
        missing = {"eps1_k", "eps2_k", "j12_k"} - set(effective_map)
        if missing:
            raise ConfigError(f"effective parameters missing {sorted(missing)}")
        fields = {EFFECTIVE_KEYS[k]: _number(k, v) for k, v in effective_map.items()}
        return RunConfig(None, EffectiveParams(**fields), thermal)

    device = DeviceParams(**{DEVICE_KEYS[k]: _number(k, v) for k, v in device_map.items()})
    return RunConfig(device, None, thermal)


def _open_out(path: Path | None):
    if path is None:
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_csv(path: Path | None, header: list[str], rows) -> None:
    stream, owns = _open_out(path)
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if owns:
            stream.close()


def _series_plot_script(csv_path: Path, axis: str, measures, labels) -> str:
    lines = [
        f"# gnuplot script for {csv_path.name}",
        'set datafile separator ","',
        "set key outside",
        f'set xlabel "{axis}"',
    ]
    for offset, measure in enumerate(measures):
        column = 3 + offset
        lines.append(f'set ylabel "{measure}"')
        clauses = ", \\\n  ".join(
            f'"{csv_path.name}" using 2:(strcol(1) eq "{label}" ? ${column} : NaN) '
            f'with lines title "{label}"'
            for label in labels
        )
        lines.append("plot " + clauses)
        lines.append('pause -1 "press enter for the next panel"')
    return "\n".join(lines) + "\n"


def _surface_plot_script(csv_path: Path, nx: int, ny: int, label: str) -> str:
    lines = [
        f"# gnuplot script for {csv_path.name}",
        'set datafile separator ","',
        f"set dgrid3d {ny},{nx}",
        "set view map",
        'set xlabel "theta1"',
        'set ylabel "theta2"',
        f'splot "{csv_path.name}" using 2:3:4 with pm3d title "{label}"',
        'pause -1 "press enter to close"',
    ]
    return "\n".join(lines) + "\n"


def _write_plot_script(csv_path: Path, text: str) -> None:
    with open(csv_path.with_suffix(".gp"), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_report(args) -> int:
    config = _merge_params(args, _load_config(args.config))
    report = quantum_discord(thermal_state(config.params, config.thermal.temperature))
    row = [
        _fmt(report.mutual_information),
        _fmt(report.classical_correlation),
        _fmt(report.discord),
        _fmt(report.concurrence),
        _fmt(report.eof),
        _fmt(report.optimal_measurement.theta),
        _fmt(report.optimal_measurement.phi),
    ]
    _write_csv(args.out, REPORT_HEADER, [row])
    return EXIT_OK


def _with_steps(spec: SweepSpec, steps: int | None) -> SweepSpec:
    return spec if steps is None else replace(spec, steps=steps)


def _cmd_figure(args) -> int:
    presets = figure_preset(args.which)
    out = args.out if args.out is not None else Path(f"{args.which}.csv")
    if args.which == "fig5":
        for suffix, (spec_x, spec_y) in zip(("_a", "_b"), presets):
            spec_x = _with_steps(spec_x, args.steps)
            spec_y = _with_steps(spec_y, args.steps)
            path = out.with_name(out.stem + suffix + (out.suffix or ".csv"))
            rows = sweep_2d(spec_x, spec_y, threads=args.threads)
            header = ["series", "theta1", "theta2", *spec_x.measures]
            _write_csv(
                path,
                header,
                (
                    [spec_x.label, _fmt(r.axis[0]), _fmt(r.axis[1])]
                    + [_fmt(r.values[m]) for m in spec_x.measures]
                    for r in rows
                ),
            )
            if args.emit_plot_script:
                _write_plot_script(
                    path,
                    _surface_plot_script(path, spec_x.steps, spec_y.steps, spec_x.label),
                )
        return EXIT_OK

    specs = [_with_steps(spec, args.steps) for spec in presets]
    axis = AXIS_COLUMNS[specs[0].variable]
    header = ["series", axis, *specs[0].measures]
    all_rows = []
    for spec in specs:
        for row in sweep_1d(spec, threads=args.threads):
            all_rows.append(
                [spec.label, _fmt(row.axis[0])]
                + [_fmt(row.values[m]) for m in spec.measures]
            )
    _write_csv(out, header, all_rows)
    if args.emit_plot_script:
        _write_plot_script(
            out,
            _series_plot_script(out, axis, specs[0].measures, [s.label for s in specs]),
        )
    return EXIT_OK


def _cmd_critical(args) -> int:
    cfg = _load_config(args.config)
    if args.kind == "esd":
        point = esd_temperature(
            _merge_params(args, cfg).params, t_max=args.t_max, tol=args.tol
        )
    else:
        temperature = _thermal(args, cfg).temperature
        point = optimal_ratio(temperature, tuple(args.bracket), tol=args.tol)
    row = [
        point.kind,
        _fmt(point.location),
        _fmt(point.value_at),
        _fmt(point.bracket[0]),
        _fmt(point.bracket[1]),
        str(point.iterations),
        "1" if point.boundary else "0",
    ]
    _write_csv(args.out, CRITICAL_HEADER, [row])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config)
    config = _merge_params(args, cfg)
    measures = args.measures or cfg.get("measures", ["discord"])
    if not (isinstance(measures, list) and all(isinstance(m, str) for m in measures)):
        raise ConfigError(f"'measures' must be a list of strings, got {measures!r}")
    spec = SweepSpec(
        args.variable,
        args.start,
        args.stop,
        config.params,
        steps=args.steps,
        thermal=config.thermal,
        measures=tuple(measures),
    )
    rows = sweep_1d(spec, threads=args.threads)
    header = [AXIS_COLUMNS[spec.variable], *spec.measures]
    _write_csv(
        args.out,
        header,
        ([_fmt(r.axis[0])] + [_fmt(r.values[m]) for m in spec.measures] for r in rows),
    )
    return EXIT_OK


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    device = parser.add_argument_group("device parameters (kelvin/SI units)")
    for key in DEVICE_KEYS:
        kind = int if key == "n" else float
        device.add_argument(f"--{key.replace('_', '-')}", type=kind, dest=key)
    device.add_argument("--v-x", type=float, dest="v_x", help="set both gate voltages, V")
    effective = parser.add_argument_group("effective parameters (kelvin)")
    for key in EFFECTIVE_KEYS:
        effective.add_argument(f"--{key.replace('_', '-')}", type=float, dest=key)
    effective.add_argument("--eps", type=float, help="set both charge energies, K")
    effective.add_argument("--j", type=float, help="set the interbit coupling, K")
    thermal = parser.add_argument_group("thermal")
    thermal.add_argument("--temperature-k", type=float, dest="temperature_k")
    thermal.add_argument("--temp", type=float, help="shorthand for --temperature-k")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument("--out", type=Path, help="output CSV path (default stdout)")
    common.add_argument("--emit-plot-script", action="store_true")
    common.add_argument("--dimensionless", action="store_true",
                        help="require effective (eps, j) input")
    common.add_argument("--threads", type=int, default=1)

    params = argparse.ArgumentParser(add_help=False)
    _add_param_flags(params)

    parser = argparse.ArgumentParser(
        prog="jcqsim",
        description="Thermal discord and entanglement for a two-qubit "
        "Josephson charge-qubit device.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_report = sub.add_parser(
        "report", parents=[common, params],
        help="one-line correlation report for a single state",
    )
    p_report.set_defaults(func=_cmd_report)

    p_figure = sub.add_parser(
        "figure", parents=[common], help="reproduce a published parameter sweep"
    )
    p_figure.add_argument("which", choices=FIGURES)
    p_figure.add_argument("--steps", type=int, help="override the preset grid size")
    p_figure.set_defaults(func=_cmd_figure)

    p_critical = sub.add_parser(
        "critical", parents=[common, params], help="locate a critical point"
    )
    p_critical.add_argument("kind", choices=("esd", "ratio"))
    p_critical.add_argument("--bracket", nargs=2, type=float, default=(0.1, 50.0),
                            metavar=("LO", "HI"))
    p_critical.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    p_critical.add_argument("--tol", type=float, default=1e-6)
    p_critical.set_defaults(func=_cmd_critical)

    p_sweep = sub.add_parser(
        "sweep", parents=[common, params], help="sweep one axis and emit CSV"
    )
    p_sweep.add_argument("--variable", required=True, choices=VARIABLES)
    p_sweep.add_argument("--start", required=True, type=float)
    p_sweep.add_argument("--stop", required=True, type=float)
    p_sweep.add_argument("--steps", type=int, default=501)
    p_sweep.add_argument("--measures", nargs="+", choices=MEASURES)
    p_sweep.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, DimensionError, NotHermitianError, UnsupportedRegimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

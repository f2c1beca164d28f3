"""Command-line front end: report, figure, critical and sweep subcommands.

One argparse tree defines the commands; a call parses its argv once, with
the parser of the command its leading words name (``_build_parser``'s
``leaves``), and only argv that names no command goes through the root.

Parameters come from an optional JSON config file, overridable key by key
with flags of the same name and then with shorthand flags; ``SCHEMA`` and
``SHORTHANDS`` are the one place that pairs a key with its section, field and
flag.  Every float row is written with one '%.9g' row template: a sweep's
rows, ``report``'s, which is the one-row sweep at its controls, so that it
prints the cells of the ``sweep`` row there, and ``critical``'s, which
rounds its bracket outward first, so that the printed one holds the point.  One writer,
:func:`_write_csv`, writes every CSV from text blocks as they come: ``sweep``
and ``figure`` hand it one block per measured chunk, so no whole table is
held, and it opens ``--out`` only once the first block is made, so input the
first chunk rejects writes nothing.  All CSV output uses '.' decimals, 9
significant digits and '\\n' line endings, and is byte-identical across runs
and ``--threads`` values.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .device import DeviceParams, EffectiveParams, ThermalSpec
from .errors import (
    BracketError,
    ConfigError,
    DimensionError,
    DomainError,
    InvalidParameterError,
    NotHermitianError,
    SpecValidationError,
)
from .sweep import (
    DEFAULT_STEPS_1D,
    FIGURES,
    MEASURES,
    SWEEP_VARIABLES,
    VARIABLES,
    SweepSpec,
    _grid,
    _sweep_chunks,
    _sweep_table,
    esd_temperature,
    figure_preset,
    optimal_ratio,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4
EXIT_BRACKET = 5

# Config section -> JSON key (with a unit suffix) -> dataclass field.  Each
# key is also a flag: "--" and the key with "-" for "_".
SCHEMA = {
    "device": {
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
    },
    "effective": {
        "eps1_k": "eps1",
        "eps2_k": "eps2",
        "ej1_k": "ej1",
        "ej2_k": "ej2",
        "j12_k": "j12",
    },
    "thermal": {"temperature_k": "temperature"},
}
# Shorthand flag -> (section, the keys it sets, help); laid over the keys' own flags.
SHORTHANDS = {
    "v_x": ("device", ("v_x1_v", "v_x2_v"), "set both gate voltages, V"),
    "eps": ("effective", ("eps1_k", "eps2_k"), "set both charge energies, K"),
    "j": ("effective", ("j12_k",), "set the interbit coupling, K"),
    "temp": ("thermal", ("temperature_k",), "shorthand for --temperature-k"),
}

REPORT_HEADER = [*MEASURES, "theta_opt", "phi_opt"]
CRITICAL_HEADER = [
    "kind",
    "location",
    "value_at",
    "bracket_lo",
    "bracket_hi",
    "iterations",
    "boundary",
]


def _table_csv(table: np.ndarray, label: str | None = None) -> str:
    """CSV lines of a float table, every cell to 9 significant digits
    (``'%.9g'``), each line after a ``label`` cell if one is given."""
    row = "" if label is None else label.replace("%", "%%") + ","
    row += ",".join(["%.9g"] * table.shape[1]) + "\n"
    return row * len(table) % tuple(table.ravel().tolist())


def _load_config(path: Path | None, sections) -> dict:
    """Read and check the JSON config once; it may hold only the given ``sections``."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    unknown = set(cfg) - set(sections)
    if unknown:
        raise ConfigError(f"config keys this command does not read: {sorted(unknown)}")
    return cfg


def _number(key: str, value) -> float | int:
    """The one place a config or flag value becomes a number; only n is an integer."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        raise ConfigError(f"{key!r} is too large for a float") from None
    if key != "n":
        return number
    if not number.is_integer():
        raise ConfigError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _resolve(args, cfg: dict) -> dict:
    """Dataclass field -> number for each section the command reads
    (``args.sections``): the loaded config, then the flags, then the
    shorthands, each laid over the last."""
    values = {}
    for name in args.sections:
        section = cfg.get(name) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"config section {name!r} must be an object")
        unknown = set(section) - set(SCHEMA[name])
        if unknown:
            raise ConfigError(f"unknown keys in config section {name!r}: {sorted(unknown)}")
        values[name] = dict(section)
        for key in SCHEMA[name]:
            if getattr(args, key) is not None:
                values[name][key] = getattr(args, key)
    for flag, (name, keys, _) in SHORTHANDS.items():
        if name in values and getattr(args, flag) is not None:
            values[name].update(dict.fromkeys(keys, getattr(args, flag)))
    return {
        name: {SCHEMA[name][key]: _number(key, value) for key, value in section.items()}
        for name, section in values.items()
    }


def _params(args, fields: dict):
    """Exactly one of DeviceParams/EffectiveParams from the resolved sections."""
    device, effective = fields["device"], fields["effective"]
    if args.dimensionless and device:
        raise ConfigError("--dimensionless conflicts with device parameters")
    if device and effective:
        raise ConfigError("give device or effective parameters, not both")
    if not device and not effective:
        raise ConfigError("no parameters given: set device or effective values")
    if device:
        return DeviceParams(**device)
    missing = [key for key in ("eps1_k", "eps2_k", "j12_k")
               if SCHEMA["effective"][key] not in effective]
    if missing:
        raise ConfigError(f"effective parameters missing {missing}")
    return EffectiveParams(**effective)


def _thermal(fields: dict) -> ThermalSpec:
    return ThermalSpec(fields["thermal"].get("temperature", 0.0))


def _sweep_csv(*specs: SweepSpec, label: str | None = None):
    """:func:`_table_csv` of each chunk of the sweep of one spec or of an x
    and a y spec, made as the chunk is measured; the specs are checked at
    once."""
    return (_table_csv(rows, label) for rows in _sweep_chunks(*_grid(*specs)))


def _write_csv(path: Path | None, header: list[str], blocks) -> None:
    """Write the header, then each text block of ``blocks`` as it comes.

    The first block is made before ``path`` is opened, so an error in it
    writes nothing and creates no file; an error in a later one leaves the
    blocks before it written.
    """
    blocks = iter(blocks)
    first = next(blocks)
    stream = sys.stdout if path is None else open(path, "w", encoding="utf-8", newline="")
    try:
        stream.write(",".join(header) + "\n" + first)
        for block in blocks:
            stream.write(block)
    finally:
        if path is not None:
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


def _surface_plot_script(csv_path: Path, nx: int, ny: int, label: str, x: str, y: str) -> str:
    lines = [
        f"# gnuplot script for {csv_path.name}",
        'set datafile separator ","',
        f"set dgrid3d {ny},{nx}",
        "set view map",
        f'set xlabel "{x}"',
        f'set ylabel "{y}"',
        f'splot "{csv_path.name}" using 2:3:4 with pm3d title "{label}"',
        'pause -1 "press enter to close"',
    ]
    return "\n".join(lines) + "\n"


def _write_plot_script(csv_path: Path, text: str) -> None:
    with open(csv_path.with_suffix(".gp"), "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _cmd_report(args) -> int:
    fields = _resolve(args, _load_config(args.config, args.sections))
    params, thermal = _params(args, fields), _thermal(fields)
    # The sweep row at these controls, without its temperature column.
    axis = [("temperature", np.array([thermal.temperature]))]
    table = _sweep_table(params, thermal, axis, (*MEASURES, "theta", "phi"))
    _write_csv(args.out, REPORT_HEADER, [_table_csv(table[:, 1:])])
    return EXIT_OK


def _with_steps(spec: SweepSpec, steps: int | None) -> SweepSpec:
    return spec if steps is None else replace(spec, steps=steps)


def _cmd_figure(args) -> int:
    presets = figure_preset(args.which)
    out = args.out if args.out is not None else Path(f"{args.which}.csv")
    if args.which == "fig5":
        for suffix, pair in zip(("_a", "_b"), presets):
            spec_x, spec_y = (_with_steps(spec, args.steps) for spec in pair)
            path = out.with_name(out.stem + suffix + (out.suffix or ".csv"))
            axes = [SWEEP_VARIABLES[spec.variable].column for spec in (spec_x, spec_y)]
            header = ["series", *axes, *spec_x.measures]
            _write_csv(path, header, _sweep_csv(spec_x, spec_y, label=spec_x.label))
            if args.emit_plot_script:
                _write_plot_script(
                    path,
                    _surface_plot_script(path, spec_x.steps, spec_y.steps, spec_x.label, *axes),
                )
        return EXIT_OK

    specs = [_with_steps(spec, args.steps) for spec in presets]
    axis = SWEEP_VARIABLES[specs[0].variable].column
    header = ["series", axis, *specs[0].measures]
    _write_csv(out, header,
               (block for spec in specs for block in _sweep_csv(spec, label=spec.label)))
    if args.emit_plot_script:
        _write_plot_script(
            out,
            _series_plot_script(out, axis, specs[0].measures, [s.label for s in specs]),
        )
    return EXIT_OK


def _cmd_critical(args) -> int:
    fields = _resolve(args, _load_config(args.config, args.sections))
    if args.kind == "esd":
        point = esd_temperature(_params(args, fields), t_max=args.t_max, tol=args.tol)
    else:
        point = optimal_ratio(_thermal(fields).temperature, tuple(args.bracket), tol=args.tol)
    # Rounded outward to 9 digits, the printed bracket still holds the point.
    lo, hi = (float(decimal.Context(prec=9, rounding=r).create_decimal_from_float(x))
              for x, r in zip(point.bracket, (decimal.ROUND_FLOOR, decimal.ROUND_CEILING)))
    row = [point.location, point.value_at, lo, hi, point.iterations, point.boundary]
    _write_csv(args.out, CRITICAL_HEADER, [_table_csv(np.array([row], dtype=float), point.kind)])
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load_config(args.config, (*args.sections, "measures"))
    fields = _resolve(args, cfg)
    params, thermal = _params(args, fields), _thermal(fields)
    measures = args.measures or cfg.get("measures", ["discord"])
    if not (isinstance(measures, list) and all(isinstance(m, str) for m in measures)):
        raise ConfigError(f"'measures' must be a list of strings, got {measures!r}")
    spec = SweepSpec(
        args.variable,
        args.start,
        args.stop,
        params,
        steps=args.steps,
        thermal=thermal,
        measures=tuple(measures),
    )
    header = [SWEEP_VARIABLES[spec.variable].column, *spec.measures]
    _write_csv(args.out, header, _sweep_csv(spec))
    return EXIT_OK


def _section_parser(name: str) -> argparse.ArgumentParser:
    """A parent parser holding one config section's key flags and shorthands."""
    parser = argparse.ArgumentParser(add_help=False)
    group = parser.add_argument_group(f"{name} parameters")
    for key in SCHEMA[name]:
        kind = int if key == "n" else float
        group.add_argument(f"--{key.replace('_', '-')}", type=kind, dest=key)
    for flag, (section, _, help_text) in SHORTHANDS.items():
        if section == name:
            group.add_argument(f"--{flag.replace('_', '-')}", type=float, dest=flag,
                               help=help_text)
    return parser


def _positive_int(text: str) -> int:
    if not (text.isdigit() and int(text) >= 1):
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return int(text)


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser: an argument it does not take is an error under
    its own usage line, not handed back to the top-level parser."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on first use; parsing leaves it unchanged.

    It is the one definition of the CLI.  Its ``leaves`` map the words of each
    command, ``("report",)`` to ``("critical", "ratio")``, to the command's
    own parser in the tree, recorded as each is added, so that :func:`_parse`
    parses a command's flags without the levels above them.
    """
    io = argparse.ArgumentParser(add_help=False)
    io.add_argument("--config", type=Path, help="JSON config file")
    io.add_argument("--out", type=Path, help="output CSV path (default stdout)")
    section_parsers = {name: _section_parser(name) for name in SCHEMA}
    section_parsers["effective"].add_argument("--dimensionless", action="store_true",
                                              help="require effective (eps, j) input")

    def command(subparsers, words, func, sections, help_text):
        p = subparsers.add_parser(words[-1], help=help_text, parents=[
            io, *(section_parsers[s] for s in sections)])
        p.set_defaults(func=func, sections=sections)
        parser.leaves[words] = p
        return p

    parser = argparse.ArgumentParser(
        prog="jcqsim",
        description="Thermal discord and entanglement for a two-qubit "
        "Josephson charge-qubit device.",
    )
    parser.leaves = {}
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_CommandParser)

    command(sub, ("report",), _cmd_report, tuple(SCHEMA),
            "one-line correlation report for a single state")

    p_figure = sub.add_parser("figure", help="reproduce a published parameter sweep")
    parser.leaves[("figure",)] = p_figure
    p_figure.add_argument("which", choices=FIGURES)
    p_figure.add_argument("--out", type=Path, help="output CSV path (default <which>.csv; "
                          "fig5 writes <stem>_a.csv and <stem>_b.csv)")
    p_figure.add_argument("--steps", type=int, help="override the preset grid size")
    p_figure.add_argument("--emit-plot-script", action="store_true",
                          help="also write a gnuplot script beside each CSV")
    p_figure.add_argument("--threads", type=_positive_int, default=1,
                          help="accepted for compatibility; every run uses one thread")
    p_figure.set_defaults(func=_cmd_figure)

    critical = sub.add_parser("critical", help="locate a critical point")
    kinds = critical.add_subparsers(dest="kind", required=True)
    p_esd = command(kinds, ("critical", "esd"), _cmd_critical, ("device", "effective"),
                    "temperature of entanglement sudden death")
    p_esd.add_argument("--t-max", type=float, default=1.0, dest="t_max")
    p_ratio = command(kinds, ("critical", "ratio"), _cmd_critical, ("thermal",),
                      "the j/eps that maximizes discord at eps = 1 K")
    p_ratio.add_argument("--bracket", nargs=2, type=float, default=(0.1, 50.0),
                         metavar=("LO", "HI"))
    for p in (p_esd, p_ratio):
        p.add_argument("--tol", type=float, default=1e-6)

    p_sweep = command(sub, ("sweep",), _cmd_sweep, tuple(SCHEMA), "sweep one axis and emit CSV")
    p_sweep.add_argument("--variable", required=True, choices=VARIABLES)
    p_sweep.add_argument("--start", required=True, type=float)
    p_sweep.add_argument("--stop", required=True, type=float)
    p_sweep.add_argument("--steps", type=int, default=DEFAULT_STEPS_1D)
    p_sweep.add_argument("--measures", nargs="+", choices=MEASURES)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the parser tree gives ``argv``, or its SystemExit.

    Where argv's leading words name a command, that command's leaf parser
    parses the rest on a namespace that already holds the words (``command``,
    ``kind``), as the levels above it would have left it; argv that names no
    command (help, a typo, a missing kind) goes to the root parser.
    """
    parser = _build_parser()
    for words in (tuple(argv[:2]), tuple(argv[:1])):
        if words in parser.leaves:
            namespace = argparse.Namespace(**dict(zip(("command", "kind"), words)))
            return parser.leaves[words].parse_args(argv[len(words):], namespace)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run the command ``argv`` (default ``sys.argv[1:]``) names; its exit code.

    argv is parsed once, by :func:`_parse`; a usage error or help exits as
    argparse does (2 or 0), and the package's errors map to the exit codes
    above, each with a one-line ``error:`` message.
    """
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, InvalidParameterError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DomainError, DimensionError, NotHermitianError, ArithmeticError,
            np.linalg.LinAlgError, MemoryError) as exc:
        # A MemoryError may carry no message.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BRACKET
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

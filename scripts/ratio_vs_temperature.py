#!/usr/bin/env python3
"""Trace how the discord-maximizing coupling ratio moves with temperature.

At T = 0 thermal discord grows monotonically in j/eps, so the maximizer is
pinned to the bracket edge; at finite T an interior maximum appears.  This
samples that critical ratio over a temperature grid (an observation run,
nothing is asserted) and writes a CSV.
"""

import argparse
import csv
import os
import sys
from pathlib import Path

import numpy as np

from jcqsim.cli import EXIT_CONFIG, EXIT_IO
from jcqsim.errors import InvalidParameterError, SpecValidationError
from jcqsim.sweep import optimal_ratio


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t-min", type=float, default=0.05)
    parser.add_argument("--t-max", type=float, default=2.0)
    parser.add_argument("--points", type=int, default=40)
    parser.add_argument("--bracket", nargs=2, type=float, default=(0.1, 50.0),
                        metavar=("LO", "HI"))
    parser.add_argument("--tol", type=float, default=1e-4)
    parser.add_argument("--out", type=Path, default=Path("critical_ratio.csv"))
    args = parser.parse_args()
    if args.points < 1:
        print(f"error: --points must be at least 1, got {args.points}", file=sys.stderr)
        return EXIT_CONFIG
    # Checked before the searches, and without creating the file.
    folder = args.out.parent
    if not (folder.is_dir() and os.access(folder, os.W_OK)):
        print(f"error: cannot write {args.out}: {folder} is not a writable directory",
              file=sys.stderr)
        return EXIT_IO

    rows = []
    try:
        for t in np.linspace(args.t_min, args.t_max, args.points):
            point = optimal_ratio(float(t), tuple(args.bracket), tol=args.tol)
            rows.append((float(t), point.location, point.value_at, int(point.boundary)))
            flag = " (boundary)" if point.boundary else ""
            print(f"T={t:8.4f} K  ratio*={point.location:10.5f}  "
                  f"discord={point.value_at:.6f}{flag}")
    except (InvalidParameterError, SpecValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["temperature_k", "critical_ratio", "discord_at_max", "boundary"])
            for t, ratio, value, boundary in rows:
                writer.writerow([f"{t:.9g}", f"{ratio:.9g}", f"{value:.9g}", boundary])
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

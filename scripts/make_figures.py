#!/usr/bin/env python3
"""Regenerate every preset figure CSV (plus gnuplot script) into a directory.

Examples:
    python scripts/make_figures.py --outdir figures
    python scripts/make_figures.py --figures fig2a fig4 --steps 101
"""

import argparse
import sys
from pathlib import Path

from jcqsim.cli import EXIT_IO, main as jcqsim_main
from jcqsim.sweep import FIGURES


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", type=Path, default=Path("figures"))
    parser.add_argument("--figures", nargs="+", choices=FIGURES, default=list(FIGURES))
    parser.add_argument("--steps", type=int, help="override the preset grid sizes")
    args = parser.parse_args()

    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    for which in args.figures:
        out = args.outdir / f"{which}.csv"
        argv = ["figure", which, "--out", str(out), "--emit-plot-script"]
        if args.steps is not None:
            argv += ["--steps", str(args.steps)]
        print(f"[make_figures] {which} -> {out}")
        code = jcqsim_main(argv)
        if code != 0:
            print(f"[make_figures] {which} failed with exit code {code}", file=sys.stderr)
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())

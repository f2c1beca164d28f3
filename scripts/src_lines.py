#!/usr/bin/env python3
"""Count the code lines of the package's source, per file and in total.

A code line is a physical line that holds a Python token other than a
comment, a docstring or layout (newlines, indents).  A docstring is a string
that is a statement of its own.  Physical lines are counted alongside.

Example:
    python scripts/src_lines.py            # src/ of this checkout
    python scripts/src_lines.py path/to/src
"""

import argparse
import sys
import tokenize
from pathlib import Path

LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
# A string after one of these and before the NEWLINE is a statement of its own.
STATEMENT_START = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING}


def code_lines(path: Path) -> int:
    """Number of lines of ``path`` that hold code."""
    with open(path, "rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for before, token, after in zip([None, *tokens], tokens, [*tokens[1:], None]):
        if token.type in LAYOUT:
            continue
        if (token.type == tokenize.STRING and before is not None
                and before.type in STATEMENT_START and after.type == tokenize.NEWLINE):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("src", nargs="?", type=Path,
                        default=Path(__file__).resolve().parent.parent / "src")
    args = parser.parse_args()
    files = sorted(args.src.rglob("*.py"))
    if not files:
        print(f"no Python files under {args.src}", file=sys.stderr)
        return 2
    total_code = total_physical = 0
    for path in files:
        code = code_lines(path)
        physical = len(path.read_bytes().splitlines())
        total_code += code
        total_physical += physical
        print(f"{code:6d} {physical:6d}  {path.relative_to(args.src)}")
    print(f"{total_code:6d} {total_physical:6d}  total (code lines, physical lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

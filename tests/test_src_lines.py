"""scripts/src_lines.py, which tracks the size of src/: what it counts as a
code line."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"

# Code lines: 1 import, 1 + 2 in f, 1 + 2 in g, 1 + 1 in C.
FIXTURE = '''"""Module docstring,
on two lines."""

import os  # a trailing comment


def f(x):
    """Function docstring."""
    # A comment line.

    return (x +
            1)


def g():
    """Function docstring
    on two lines."""
    return os.sep + """a string in an expression,
on two lines"""


class C:
    """Class docstring."""
    name = "a string in an assignment"
'''


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE, encoding="utf-8")
    assert _load().code_lines(path) == 9


def test_reports_code_and_physical_lines_per_file_and_in_total(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "fixture.py").write_text(FIXTURE, encoding="utf-8")
    (tmp_path / "pkg" / "empty.py").write_text("# Only a comment.\n\n", encoding="utf-8")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)], capture_output=True,
                         text=True, check=True).stdout.splitlines()
    physical = len(FIXTURE.splitlines())
    assert [line.split() for line in out] == [
        ["0", "2", "pkg/empty.py"],
        ["9", str(physical), "pkg/fixture.py"],
        ["9", str(physical + 2), "total", "(code", "lines,", "physical", "lines)"],
    ]

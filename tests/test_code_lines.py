"""``benchmarks/code_lines.py --dead``: the scan CI's ``size`` job holds a count of.

Run as CI runs it, as a script over a directory.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "code_lines.py"

PACKAGE = {
    "shapes.py": '''
__all__ = ["exported"]


def exported():
    """Nobody calls this here, but it is the package's surface."""


def used():
    def local_helper():  # nested: not a definition the scan lists
        return 1
    return local_helper()


def only_talked_about():
    return 2


class Box:
    def __len__(self):
        return 0

    def area(self):
        return used()

    def unused_method(self):
        return 3

    def perimeter(self):  # used only inside an f-string
        return 0

    class Corner:
        def unused_nested_method(self):
            return 4
''',
    "caller.py": '''
"""Mentions only_talked_about in a docstring, which is not a use."""
from shapes import Box

print(Box().area())  # only_talked_about: a comment is not a use either
print(f"{Box().perimeter():d}")  # a use on every interpreter, 3.11's included
''',
}


def test_dead_lists_what_no_other_token_names(tmp_path: Path):
    for name, source in PACKAGE.items():
        (tmp_path / name).write_text(source)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--dead", str(tmp_path)],
        capture_output=True,
        text=True,
        check=True,
    )
    *rows, total = done.stdout.splitlines()
    assert [row.split()[-1] for row in rows] == [
        "only_talked_about",
        "Box.unused_method",
        "Box.Corner.unused_nested_method",
    ]
    assert all(f"{tmp_path / 'shapes.py'}:" in row for row in rows)
    assert total.split() == ["3", "total"]

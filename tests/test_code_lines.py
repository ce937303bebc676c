"""``benchmarks/code_lines.py --dead``, ``--test-only`` and
``--unused-imports``: the scans CI's ``size`` job holds counts of.

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


TEST_ONLY_TREE = {
    "pkg/__init__.py": '''
from .core import called_by_tests, Widget, exported_unused, called_by_example

__all__ = ["called_by_tests", "Widget", "exported_unused", "called_by_example"]
''',
    "pkg/core.py": '''
__all__ = ["called_by_tests", "Widget", "exported_unused", "called_by_example"]


def called_by_tests():
    return 1


class Widget:
    """Constructed only by a test."""


def exported_unused():
    """Exported, and nothing calls it."""


def called_by_example():
    """Widget: a docstring naming the class is not a use."""
    return 2  # nor is a comment: Widget
''',
    "tests/test_core.py": '''
from pkg import called_by_tests, Widget

assert called_by_tests() == 1
Widget()
''',
    "examples/demo.py": '''
from pkg import called_by_example

called_by_example()
''',
}


def test_test_only_lists_what_only_tests_use(tmp_path: Path):
    """A definition counts as used only where a token outside its own
    definition, an import, ``__all__`` or a docstring names it, under the
    package, benchmarks or examples; a test's use does not count."""
    for name, source in TEST_ONLY_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--test-only", *(str(tmp_path / d) for d in ("pkg", "examples"))],
        capture_output=True,
        text=True,
        check=True,
    )
    *rows, total = done.stdout.splitlines()
    assert [row.split()[-1] for row in rows] == ["called_by_tests", "Widget", "exported_unused"]
    assert all(f"{tmp_path / 'pkg' / 'core.py'}:" in row for row in rows)
    assert total.split() == ["3", "total"]


SHARED_NAME_TREE = {
    "pkg/core.py": '''
import threading


class Gauge:
    def set(self, value):
        self.value = value


class Server:
    def scan(self):
        return 1


class Widget:
    def scan(self):
        return 2

    def area(self):
        return 3


threading.Event().set()  # the builtin's name, and another class's method
Server().scan()
Widget().area()
Gauge()
''',
    "tests/test_core.py": '''
from pkg.core import Gauge, Widget

Gauge().set(1)
Widget().scan()
''',
}


def test_test_only_prints_what_a_shared_name_hides(tmp_path: Path):
    """``Gauge.set`` and ``Widget.scan`` only tests call, but a use of their
    names by something else makes the scan count them used: it prints them,
    by name, under the count, which they do not change."""
    for name, source in SHARED_NAME_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--test-only", str(tmp_path / "pkg")],
        capture_output=True,
        text=True,
        check=True,
    )
    where = f"{tmp_path / 'pkg' / 'core.py'}:"
    assert done.stdout.splitlines() == [
        "     0 total",
        "undecided: used by a name another definition or a builtin shares",
        f"  set: {where}6 Gauge.set",
        f"  scan: {where}11 Server.scan, {where}16 Widget.scan",
    ]


RECEIVER_TREE = {
    "pkg/core.py": '''
class Stream:
    def pull(self):
        raise NotImplementedError

    def read(self):
        return self.pull()


class FileStream(Stream):
    def pull(self):  # an override: Stream's self.pull may call it
        return 1


class Server:
    def pull(self):
        return 2

    def set(self, value):
        self.value = value

    @classmethod
    def build(cls):
        server = cls()
        Server.set(server, 3)
        return server


FileStream().read()
Server.build()
''',
    "tests/test_core.py": '''
from pkg.core import Server

Server().pull()
''',
}


def test_test_only_tells_methods_apart_by_their_receiver(tmp_path: Path):
    """``self.pull`` in ``Stream`` is a use of ``Stream.pull`` and of the
    override below it, not of ``Server.pull``, which only a test calls; and
    ``Server.set`` is used through its class, whatever else is named ``set``."""
    for name, source in RECEIVER_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--test-only", str(tmp_path / "pkg")],
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.splitlines() == [
        f"     1 {tmp_path / 'pkg' / 'core.py'}:16 Server.pull",
        "     1 total",
    ]


IMPORT_TREE = {
    "pkg/__init__.py": '''
from .mod import helper, unlisted  # re-exports: exempt
''',
    "pkg/mod.py": '''
from __future__ import annotations

import os.path
import json as codec
from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from decimal import Decimal

__all__ = ["deque"]


def helper(values: "Iterable[Decimal]") -> None:
    print(os.path.join("a", "b"))
    print(f"{codec.dumps(1)}")  # a use on every interpreter, 3.11's included


def unlisted():
    """OrderedDict: a docstring naming an import is not a use."""
    return 1  # nor is a comment: OrderedDict
''',
}


def test_unused_imports_lists_what_no_token_of_the_module_uses(tmp_path: Path):
    """An import is used by a name token outside import statements, an
    ``__all__`` string or a quoted annotation; ``__future__`` imports and an
    ``__init__.py``'s re-exports are never listed."""
    for name, source in IMPORT_TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(source)
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--unused-imports", str(tmp_path / "pkg")],
        capture_output=True,
        text=True,
        check=True,
    )
    *rows, total = done.stdout.splitlines()
    assert [row.split()[-1] for row in rows] == ["OrderedDict"]
    assert rows[0].split()[1] == f"{tmp_path / 'pkg' / 'mod.py'}:6"
    assert total.split() == ["1", "total"]


def test_help_prints_the_usage():
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "--help"], capture_output=True, text=True, check=True
    )
    assert "--unused-imports" in done.stdout and "total" not in done.stdout

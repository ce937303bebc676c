"""Count code lines: non-blank, non-comment, non-docstring.

    python3 benchmarks/code_lines.py src/repro/service src/repro/cluster
    python3 benchmarks/code_lines.py --defs src/repro/service/stream.py ScanStream StreamChunk
    python3 benchmarks/code_lines.py --dead src/repro
    python3 benchmarks/code_lines.py --test-only src/repro benchmarks examples

The measure ROADMAP's "least code" aim is reported in.  A line counts when it
holds a token other than a comment or a newline, unless it belongs to a
docstring (the leading string of a module, class or function) or to a bare
string statement (the ``#:``-less attribute docstrings).  ``--defs`` counts
only the named classes and functions of one file, decorators included.

``--dead`` lists what nothing under the given paths uses: every top-level
function and every method whose name is no other name token of those files
(docstrings, comments and import statements do not count as uses), dunders
and ``__all__`` exports aside.  What is left is the public surface only
tests, benchmarks and examples call, plus whatever nobody calls; CI holds the
count so that neither grows unnoticed.  The scan goes by name, so two unused definitions that share
a name hide each other.

``--test-only`` lists what only tests use: every class, function and method
defined under the first path whose name no token under any of the paths uses,
other than its own definitions.  Unlike ``--dead`` it lists classes and
exported names too, so a definition ``__init__.py`` re-exports but no
program, benchmark or example calls is listed.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> set[int]:
    """The 1-based numbers of the lines that hold code."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Expr)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def count_defs(path: Path, names: list[str]) -> dict[str, int]:
    source = path.read_text()
    lines = code_lines(source)
    counts = dict.fromkeys(names, 0)
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in counts:
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            counts[node.name] += sum(start <= line <= node.end_lineno for line in lines)
    return counts


def _name_uses(source: str, tree: ast.Module) -> Counter[str]:
    """How often each name token occurs outside import statements."""
    imports = {
        line
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for line in range(node.lineno, node.end_lineno + 1)
    }
    uses = Counter(
        token.string
        for token in tokenize.generate_tokens(io.StringIO(source).readline)
        if token.type == tokenize.NAME and token.start[0] not in imports
    )
    if sys.version_info < (3, 12):
        # Before 3.12 an f-string is one STRING token: take the names its
        # replacement fields use from the tree, so the count is the same on
        # every interpreter.
        for node in ast.walk(tree):
            if isinstance(node, ast.FormattedValue):
                uses.update(
                    getattr(inner, "id", None) or getattr(inner, "attr", None)
                    for inner in ast.walk(node.value)
                    if isinstance(inner, (ast.Name, ast.Attribute))
                )
    return uses


def _definitions(file: Path, tree: ast.Module, classes: bool) -> list[tuple[str, str]]:
    """``(name, "file:line Owner.name")`` of each top-level function, method
    and (with ``classes``) class; functions nested in functions are not listed."""
    defined: list[tuple[str, str]] = []
    bodies = [("", tree.body)]
    for owner, body in bodies:
        for node in body:
            if isinstance(node, ast.ClassDef):
                bodies.append((f"{owner}{node.name}.", node.body))
                if classes:
                    defined.append((node.name, f"{file}:{node.lineno} {owner}{node.name}"))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.append((node.name, f"{file}:{node.lineno} {owner}{node.name}"))
    return [pair for pair in defined if not (pair[0].startswith("__") and pair[0].endswith("__"))]


def dead_definitions(files: list[Path]) -> list[str]:
    """``file:line Owner.name`` of each function or method nothing in ``files`` names."""
    uses: Counter[str] = Counter()
    defined: list[tuple[str, str]] = []
    exported: set[str] = set()
    for file in files:
        source = file.read_text()
        tree = ast.parse(source)
        uses.update(_name_uses(source, tree))
        defined.extend(_definitions(file, tree, classes=False))
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                exported.update(ast.literal_eval(node.value))
    return [where for name, where in defined if uses[name] == 1 and name not in exported]


def test_only_definitions(files: list[Path], users: list[Path]) -> list[str]:
    """``file:line Owner.name`` of each class, function or method of ``files``
    whose name no token of ``files`` or ``users`` uses but its own definitions."""
    uses: Counter[str] = Counter()
    defined: list[tuple[str, str]] = []
    for file in files + users:
        source = file.read_text()
        tree = ast.parse(source)
        uses.update(_name_uses(source, tree))
        if file in files:
            defined.extend(_definitions(file, tree, classes=True))
    definitions = Counter(name for name, _ in defined)
    return [where for name, where in defined if uses[name] == definitions[name]]


def python_files(paths: list[str]) -> list[Path]:
    return [
        file
        for path in paths
        for file in (sorted(Path(path).rglob("*.py")) if Path(path).is_dir() else [Path(path)])
    ]


def main(argv: list[str]) -> None:
    if argv and argv[0] == "--defs":
        rows = list(count_defs(Path(argv[1]), argv[2:]).items())
    elif argv and argv[0] == "--dead":
        rows = [(where, 1) for where in dead_definitions(python_files(argv[1:]))]
    elif argv and argv[0] == "--test-only":
        files = python_files(argv[1:2])
        users = [file for file in python_files(argv[2:]) if file not in files]
        rows = [(where, 1) for where in test_only_definitions(files, users)]
    else:
        rows = [(str(file), len(code_lines(file.read_text()))) for file in python_files(argv)]
    for name, count in rows:
        print(f"{count:6d} {name}")
    print(f"{sum(count for _, count in rows):6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Count code lines: non-blank, non-comment, non-docstring.

    python3 benchmarks/code_lines.py src/repro/service src/repro/cluster
    python3 benchmarks/code_lines.py --defs src/repro/service/stream.py ScanStream StreamChunk
    python3 benchmarks/code_lines.py --dead src/repro

The measure ROADMAP's "least code" aim is reported in.  A line counts when it
holds a token other than a comment or a newline, unless it belongs to a
docstring (the leading string of a module, class or function) or to a bare
string statement (the ``#:``-less attribute docstrings).  ``--defs`` counts
only the named classes and functions of one file, decorators included.

``--dead`` lists what nothing under the given paths uses: every top-level
function and every method whose name is no other name token of those files
(docstrings and comments do not count as uses), dunders and ``__all__``
exports aside.  What is left is the public surface only tests, benchmarks and
examples call, plus whatever nobody calls; CI holds the count so that neither
grows unnoticed.  The scan goes by name, so two unused definitions that share
a name hide each other.
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


def dead_definitions(files: list[Path]) -> list[str]:
    """``file:line Owner.name`` of each function or method nothing in ``files`` names."""
    uses: Counter[str] = Counter()
    defined: list[tuple[str, str]] = []
    exported: set[str] = set()
    for file in files:
        source = file.read_text()
        tree = ast.parse(source)
        uses.update(
            token.string
            for token in tokenize.generate_tokens(io.StringIO(source).readline)
            if token.type == tokenize.NAME
        )
        if sys.version_info < (3, 12):
            # Before 3.12 an f-string is one STRING token: take the names its
            # replacement fields use from the tree, so the count is the same
            # on every interpreter.
            for node in ast.walk(tree):
                if isinstance(node, ast.FormattedValue):
                    uses.update(
                        getattr(inner, "id", None) or getattr(inner, "attr", None)
                        for inner in ast.walk(node.value)
                        if isinstance(inner, (ast.Name, ast.Attribute))
                    )
        bodies = [("", tree.body)]
        for owner, body in bodies:
            for node in body:
                if isinstance(node, ast.ClassDef):
                    bodies.append((f"{owner}{node.name}.", node.body))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined.append((node.name, f"{file}:{node.lineno} {owner}{node.name}"))
                elif isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                    exported.update(ast.literal_eval(node.value))
    return [
        where
        for name, where in defined
        if uses[name] == 1
        and name not in exported
        and not (name.startswith("__") and name.endswith("__"))
    ]


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
    else:
        rows = [(str(file), len(code_lines(file.read_text()))) for file in python_files(argv)]
    for name, count in rows:
        print(f"{count:6d} {name}")
    print(f"{sum(count for _, count in rows):6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])

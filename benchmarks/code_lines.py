"""Count code lines: non-blank, non-comment, non-docstring.

    python3 benchmarks/code_lines.py src/repro/service src/repro/cluster
    python3 benchmarks/code_lines.py --defs src/repro/service/stream.py ScanStream StreamChunk

The measure ROADMAP's "least code" aim is reported in.  A line counts when it
holds a token other than a comment or a newline, unless it belongs to a
docstring (the leading string of a module, class or function) or to a bare
string statement (the ``#:``-less attribute docstrings).  ``--defs`` counts
only the named classes and functions of one file, decorators included.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
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


def main(argv: list[str]) -> None:
    if argv and argv[0] == "--defs":
        rows = list(count_defs(Path(argv[1]), argv[2:]).items())
    else:
        files = [
            file
            for arg in argv
            for file in (sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [Path(arg)])
        ]
        rows = [(str(file), len(code_lines(file.read_text()))) for file in files]
    for name, count in rows:
        print(f"{count:6d} {name}")
    print(f"{sum(count for _, count in rows):6d} total")


if __name__ == "__main__":
    main(sys.argv[1:])

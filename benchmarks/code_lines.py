"""Count code lines: non-blank, non-comment, non-docstring.

    python3 benchmarks/code_lines.py src/repro/service src/repro/cluster
    python3 benchmarks/code_lines.py --defs src/repro/service/stream.py ScanStream StreamChunk
    python3 benchmarks/code_lines.py --dead src/repro
    python3 benchmarks/code_lines.py --test-only src/repro benchmarks examples
    python3 benchmarks/code_lines.py --unused-imports src tests benchmarks examples

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
program, benchmark or example calls is listed.  A use whose receiver names
the class — ``self.name`` or ``cls.name`` in a class body, ``Class.name``
anywhere — is a use of that class's method (or of an override below it), not
of every method of that name.  Under the count, ungated, it prints by name
what it cannot decide: definitions it counts as used whose name another
definition under the first path, or a builtin, shares, so the uses it saw may
all be the other's and tests the only callers.

``--unused-imports`` lists each name an import statement binds that no other
name token, no ``__all__`` string and no quoted annotation of its module uses.
``from __future__`` imports and every import of an ``__init__.py`` (a
package's re-exports) are exempt.
"""

from __future__ import annotations

import ast
import builtins
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_BUILTINS = set(dir(builtins))

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


def _top_level(file: Path, tree: ast.Module):
    """``(enclosing class or "", node, "file:line Owner.name")`` of each
    class, function and method of the module and of its classes, nested
    classes included; functions nested in functions are not listed."""
    bodies = [("", "", tree.body)]
    for owner, enclosing, body in bodies:
        for node in body:
            if isinstance(node, ast.ClassDef):
                bodies.append((f"{owner}{node.name}.", node.name, node.body))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                yield enclosing, node, f"{file}:{node.lineno} {owner}{node.name}"


def _definitions(file: Path, tree: ast.Module, classes: bool) -> list[tuple[str, str]]:
    """``(name, "file:line Owner.name")`` of each top-level function, method
    and (with ``classes``) class, dunders aside."""
    return [
        (node.name, where)
        for _, node, where in _top_level(file, tree)
        if (classes or not isinstance(node, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def _receiver_uses(trees: list[ast.Module], classes: set[str]) -> list[tuple[str, str]]:
    """``(class, name)`` for each ``self.name`` or ``cls.name`` in a class's
    body (its nested classes' bodies aside) and each ``Class.name`` of a
    class in ``classes``."""
    receivers: list[tuple[str, str]] = []
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", "") in classes:
                receivers.append((node.value.id, node.attr))
            if not isinstance(node, ast.ClassDef):
                continue
            inside = [statement for statement in node.body if not isinstance(statement, ast.ClassDef)]
            while inside:
                inner = inside.pop()
                if not isinstance(inner, ast.ClassDef):
                    inside.extend(ast.iter_child_nodes(inner))
                    if isinstance(inner, ast.Attribute) and getattr(inner.value, "id", "") in ("self", "cls"):
                        receivers.append((node.name, inner.attr))
    return receivers


def _attributed(files: list[tuple[Path, ast.Module]]) -> tuple[Counter[str], Counter[str]]:
    """Uses told apart by their receiver: the count of each method's, by
    ``file:line Owner.name``, and the count attributed at all, by name.

    ``self.name`` in class ``C``, or ``C.name``, is a use of the definition
    of ``name`` nearest ``C`` up its bases and of every definition of
    ``name`` in a class below ``C``, which may override it; classes and bases
    go by name.  A use no definition answers stays a plain use of the name."""
    bases: dict[str, set[str]] = {}
    methods: dict[str, dict[str, list[str]]] = {}
    for file, tree in files:
        for enclosing, node, where in _top_level(file, tree):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    getattr(base, "id", None) or getattr(base, "attr", "") for base in node.bases
                )
                methods.setdefault(node.name, {})
            elif enclosing:
                methods[enclosing].setdefault(node.name, []).append(where)
    # Each class and its bases, nearest first.
    lines = {name: [name] for name in methods}
    for line in lines.values():
        for ancestor in line:
            line.extend(base for base in sorted(bases.get(ancestor, ())) if base not in line)
    by_definition: Counter[str] = Counter()
    by_name: Counter[str] = Counter()
    for receiver, name in _receiver_uses([tree for _, tree in files], set(methods)):
        nearest = next(
            (methods[c][name] for c in lines[receiver] if name in methods.get(c, {})), []
        )
        below = [
            where
            for subclass, line in lines.items()
            if receiver in line[1:]
            for where in methods[subclass].get(name, ())
        ]
        if nearest or below:
            by_definition.update(set(nearest + below))
            by_name[name] += 1
    return by_definition, by_name


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


def test_only_definitions(
    files: list[Path], users: list[Path]
) -> tuple[list[str], dict[str, list[str]]]:
    """``file:line Owner.name`` of each class, function or method of ``files``
    that nothing in ``files`` or ``users`` uses; and, by name, those used by
    a name that is not theirs alone.

    A method a use is attributed to by its receiver (see :func:`_attributed`)
    is used; one that is not is used only by the uses left to its name, the
    name tokens that are neither its definitions nor attributed."""
    uses: Counter[str] = Counter()
    defined: list[tuple[str, str]] = []
    parsed: list[tuple[Path, ast.Module]] = []
    for file in files + users:
        source = file.read_text()
        tree = ast.parse(source)
        parsed.append((file, tree))
        uses.update(_name_uses(source, tree))
        if file in files:
            defined.extend(_definitions(file, tree, classes=True))
    definitions = Counter(name for name, _ in defined)
    by_definition, by_name = _attributed(parsed)
    listed: list[str] = []
    undecided: dict[str, list[str]] = {}
    for name, where in defined:
        if by_definition[where]:
            continue
        if uses[name] <= definitions[name] + by_name[name]:
            listed.append(where)
        elif definitions[name] > 1 or name in _BUILTINS:
            undecided.setdefault(name, []).append(where)
    return listed, undecided


def _quoted_annotation_names(tree: ast.Module) -> list[str]:
    """The names used inside string annotations such as ``cache: "TileDecodeCache"``."""
    names: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        else:
            continue
        for quoted in ast.walk(annotation) if annotation is not None else ():
            if isinstance(quoted, ast.Constant) and isinstance(quoted.value, str):
                try:
                    parsed = ast.parse(quoted.value, mode="eval")
                except SyntaxError:  # a Literal["..."] value, not a type
                    continue
                names.extend(name.id for name in ast.walk(parsed) if isinstance(name, ast.Name))
    return names


def unused_imports(files: list[Path]) -> list[str]:
    """``file:line name`` of each imported name its module never uses."""
    unused: list[str] = []
    for file in files:
        if file.name == "__init__.py":
            continue
        source = file.read_text()
        tree = ast.parse(source)
        uses = _name_uses(source, tree)
        uses.update(_quoted_annotation_names(tree))
        for node in tree.body:
            if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "") == "__all__":
                uses.update(ast.literal_eval(node.value))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name != "*" and not uses[name]:
                        unused.append(f"{file}:{node.lineno} {name}")
    return unused


def python_files(paths: list[str]) -> list[Path]:
    return [
        file
        for path in paths
        for file in (sorted(Path(path).rglob("*.py")) if Path(path).is_dir() else [Path(path)])
    ]


def main(argv: list[str]) -> None:
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return
    undecided: dict[str, list[str]] = {}
    if argv[0] == "--defs":
        rows = list(count_defs(Path(argv[1]), argv[2:]).items())
    elif argv[0] == "--dead":
        rows = [(where, 1) for where in dead_definitions(python_files(argv[1:]))]
    elif argv[0] == "--test-only":
        files = python_files(argv[1:2])
        users = [file for file in python_files(argv[2:]) if file not in files]
        listed, undecided = test_only_definitions(files, users)
        rows = [(where, 1) for where in listed]
    elif argv[0] == "--unused-imports":
        rows = [(where, 1) for where in unused_imports(python_files(argv[1:]))]
    else:
        rows = [(str(file), len(code_lines(file.read_text()))) for file in python_files(argv)]
    for name, count in rows:
        print(f"{count:6d} {name}")
    print(f"{sum(count for _, count in rows):6d} total")
    if undecided:
        print("undecided: used by a name another definition or a builtin shares")
        for name, where in undecided.items():
            print(f"  {name}: {', '.join(where)}")


if __name__ == "__main__":
    main(sys.argv[1:])

"""Size of the package's source, per module and in total: the ``wc -l``
line count and the code lines, those outside docstrings, comments and blank
lines.

Usage, from the root of a checkout:

    python3 tools/src_size.py [DIR]

DIR defaults to ``src/kgreason``; every ``*.py`` file directly in it is
counted. A docstring is the string statement that opens a module, class or
function body, and all of its lines are left out. A line is code when a
token other than a comment starts, ends or continues on it, so every line
of another multi-line string counts.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The lines of ``text`` outside docstrings, comments and blank lines."""
    code = set()
    for token in tokenize.generate_tokens(io.StringIO(text).readline):
        if token.type not in NOT_CODE:
            code.update(range(token.start[0], token.end[0] + 1))
    return len(code - docstring_lines(ast.parse(text)))


def sizes(directory: Path) -> list[tuple[str, int, int]]:
    """(file name, ``wc -l`` count, code lines) per module, by name."""
    rows = []
    for path in sorted(directory.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        rows.append((path.name, text.count("\n"), code_lines(text)))
    return rows


def main(argv: list[str]) -> int:
    directory = Path(argv[0]) if argv else ROOT / "src" / "kgreason"
    rows = sizes(directory)
    if not rows:
        print(f"src_size: no *.py files in {directory}", file=sys.stderr)
        return 1
    width = max(len(name) for name, _, _ in rows + [("total", 0, 0)])
    print(f"{'module':<{width}}  {'wc -l':>6}  {'code':>6}")
    for name, lines, code in rows:
        print(f"{name:<{width}}  {lines:>6}  {code:>6}")
    print(f"{'total':<{width}}  {sum(r[1] for r in rows):>6}  {sum(r[2] for r in rows):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Count the lines of a Python source tree: all lines, and code lines.

Code lines are the lines that hold part of a statement, so docstrings,
comments and blank lines do not count, and a statement spread over
several lines counts each of them. Each module's counts are printed, in
path order, before the tree's.

    python tools/src_lines.py [DIR]   # DIR defaults to the repo's src/
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of the docstrings of the module and its classes and functions."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """(total lines, code lines) of one module's source."""
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - _docstring_lines(ast.parse(source)))


def count_modules(root: Path) -> list[tuple[Path, int, int]]:
    """(path, total lines, code lines) of each .py file under `root`, in path order."""
    return [(path, *count(path.read_text(encoding="utf-8"))) for path in sorted(root.rglob("*.py"))]


def count_tree(root: Path) -> tuple[int, int]:
    """(total lines, code lines) summed over the .py files under `root`."""
    modules = count_modules(root)
    return sum(total for _, total, _ in modules), sum(code for _, _, code in modules)


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else Path(__file__).resolve().parent.parent / "src"
    for path, total, code in count_modules(root):
        print(f"{path.relative_to(root).as_posix()}: {total} lines, {code} code lines")
    total, code = count_tree(root)
    print(f"{root}: {total} lines, {code} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())

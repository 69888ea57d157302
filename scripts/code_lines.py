#!/usr/bin/env python3
"""Code lines of each module of ``src/lp3pss`` and their total.

A code line is a physical line that holds part of a statement. Blank
lines, comment lines and the lines of docstrings (the string that opens
a module, class or function) are not counted; a statement that spans
several lines counts each of them, and so does a string literal that is
not a docstring.

Usage, from the root of the repository:

    python scripts/code_lines.py [FILE ...]

With no file given it counts every ``src/lp3pss/*.py``. It prints one
``<lines> <path>`` line per file and then ``<total> total``.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENCODING, tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every docstring in ``tree``."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in ``source`` (see the module docstring)."""
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("files", nargs="*", type=Path)
    args = parser.parse_args()
    files = args.files or sorted((ROOT / "src" / "lp3pss").glob("*.py"))
    total = 0
    for path in files:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count} {path.relative_to(ROOT) if path.is_relative_to(ROOT) else path}")
    print(f"{total} total")


if __name__ == "__main__":
    main()

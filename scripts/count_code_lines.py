#!/usr/bin/env python3
"""Count the code lines of each `src/newstm/*.py` module and in total.

A code line is one that holds a token other than a comment, a newline or
an indent/dedent; a string spanning lines holds every line it spans.
Module, class and function docstrings, found with `ast`, are not code.
So blank lines, comment-only lines and docstrings are not counted, and a
multi-line expression counts each line it spans. Runs from a checkout:

    python3 scripts/count_code_lines.py
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "newstm"

_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _docstring_starts(source: str) -> set[tuple[int, int]]:
    """(line, column) of the first token of every docstring in `source`."""
    starts = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def code_lines(source: str) -> int:
    """The number of code lines in `source`, by the rule of this module."""
    docstrings = _docstring_starts(source)
    lines: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NOT_CODE or token.start in docstrings:
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path.relative_to(ROOT)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()

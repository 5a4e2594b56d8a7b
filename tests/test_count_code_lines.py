"""`scripts/count_code_lines.py` counts the lines that hold code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "count_code_lines", ROOT / "scripts" / "count_code_lines.py"
)
count_code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(count_code_lines)

SNIPPET = '''"""A module docstring
over two lines."""

# a comment on its own line
import os  # a comment after code


def f(x):
    """A function docstring."""
    return (x +
            1)


class C:
    """A class docstring."""

    y = """a string, not a docstring,
    over two lines"""
'''


def test_counts_code_and_skips_docstrings_comments_and_blank_lines():
    # import os; def f(x):; the two lines of the return; class C:; the two of y
    assert count_code_lines.code_lines(SNIPPET) == 7


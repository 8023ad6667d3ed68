"""The size counter `tools/code_lines.py`: what it counts as code and as a
statement, and that reformatting moves the code lines but not the
statements."""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

_SOURCE = '''"""Module docstring,
on two lines."""

import math  # a comment


def f(x):
    """Function docstring."""
    # a comment line

    text = """a string that is
    not a docstring"""
    return math.sqrt(x), text
'''

_REFLOWED = _SOURCE.replace(
    "return math.sqrt(x), text", "return (\n        math.sqrt(x),\n        text,\n    )"
)


def _counts():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.counts


def test_counts_skip_blanks_comments_and_docstrings():
    counts = _counts()
    # code: import, def, the two lines of the string, return; statements:
    # import, def, assignment, return
    assert counts(_SOURCE) == (13, 5, 4)
    assert counts(_REFLOWED) == (16, 8, 4)

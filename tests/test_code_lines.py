"""The size counter `tools/code_lines.py`: what it counts as code and as a
statement, that reformatting moves the code lines but not the statements,
and its count of public names."""

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


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_skip_blanks_comments_and_docstrings():
    counts = _tool().counts
    # code: import, def, the two lines of the string, return; statements:
    # import, def, assignment, return
    assert counts(_SOURCE) == (13, 5, 4)
    assert counts(_REFLOWED) == (16, 8, 4)


def test_public_names_count_the_entries_of_all():
    import microloc

    init = Path(microloc.__file__).read_text()
    assert _tool().public_names(init) == len(microloc.__all__)

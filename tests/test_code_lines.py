"""tools/code_lines.py, which measures the package's code lines, on a
small source string."""

import importlib.util
from pathlib import Path

# tools/ is not a package: load the script as a module
_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py")
_TOOL = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(_TOOL)


SOURCE = '''"""A module docstring
over two lines."""

import os  # a trailing comment

# a whole-line comment


class Box:
    """A class docstring."""

    def size(self):
        """A function docstring
        over two lines."""
        text = """three lines
        of a string that is
        not a docstring"""
        return len(text)
'''


def test_counts_code_lines_only():
    # import, class, def, the three lines of `text`, return
    assert _TOOL.code_lines(SOURCE) == 7


def test_a_docstring_only_module_has_no_code():
    assert _TOOL.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0

"""scripts/code_lines.py: what it counts as a code line."""
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)


def test_blanks_comments_and_docstrings_do_not_count():
    source = '''"""Module
docstring."""
# a comment

import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string that
        is not a docstring"""
        return (x +
                math.pi)
'''
    # import, class, def, the two lines of s and the two of the return
    assert code_lines.code_lines(source) == 7

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


def test_rows_of_each_directory_and_the_library_with_its_tests(tmp_path, monkeypatch, capsys):
    for name, source in [("src", "x = 1\n"), ("tests", "y = 2\nz = 3\n"),
                         ("benchmark", "w = 4\n"), ("scripts", "# none\n")]:
        (tmp_path / name).mkdir()
        (tmp_path / name / "a.py").write_text(source, encoding="utf-8")
    monkeypatch.setattr(code_lines, "ROOT", tmp_path)
    code_lines.main([])
    totals = [line for line in capsys.readouterr().out.splitlines() if "(total)" in line]
    assert totals == ["     1  src/ (total)", "     2  tests/ (total)",
                      "     1  benchmark/ (total)", "     0  scripts/ (total)",
                      "     3  src/ + tests/ (total)"]
    # the combined row needs both directories
    code_lines.main(["src", "scripts"])
    assert "src/ + tests/" not in capsys.readouterr().out

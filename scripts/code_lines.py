"""Count code lines of the Python files under src/, tests/, benchmark/ and
scripts/.

A code line is a source line that holds part of a token other than a
comment, a line break or an indent, and that is not part of a docstring
(the first statement of a module, class or function when it is a string
literal). So blank lines, comments and docstrings do not count; a
statement that spans several lines counts each of them. Prints the count
of each file, then each directory's total, and last, where both are
counted, the total of src/ and tests/ together, so that code moved from
the library into its tests shows in one figure.

Run from anywhere: python scripts/code_lines.py [DIR ...]
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIRS = ("src", "tests", "benchmark", "scripts")
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines of one Python source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str]) -> int:
    totals = {}
    for name in argv or DIRS:
        total = 0
        for path in sorted((ROOT / name).rglob("*.py")):
            n = code_lines(path.read_text(encoding="utf-8"))
            total += n
            print(f"{n:6d}  {path.relative_to(ROOT)}")
        print(f"{total:6d}  {name}/ (total)\n")
        totals[name] = total
    if {"src", "tests"} <= totals.keys():
        print(f"{totals['src'] + totals['tests']:6d}  src/ + tests/ (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

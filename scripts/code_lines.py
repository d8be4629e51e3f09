#!/usr/bin/env python3
"""Count the code lines of Python files: no blank, comment or docstring line.

    python3 scripts/code_lines.py PATH [PATH ...]

A line counts when it holds a token other than a comment or a line break;
every line of a token that spans several lines, such as a long string,
counts.  Module, class and function docstrings do not count.  Each PATH is
a file or a directory, searched for *.py files.  Prints one row per file,
in path order, and the total.
"""

from __future__ import annotations

import argparse
import ast
import io
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> int:
    """The code lines of one module's source."""
    skip = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - skip)


def _files(paths: list[Path]) -> list[Path]:
    found = []
    for path in paths:
        found.extend(sorted(path.rglob("*.py")) if path.is_dir() else [path])
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("paths", nargs="+", type=Path, metavar="PATH",
                    help="a Python file, or a directory searched for *.py files")
    args = ap.parse_args(argv)
    total = 0
    for path in _files(args.paths):
        n = count(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:7,}  {path}")
    print(f"{total:7,}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Code lines per Python file and in total.

Usage::

    python3 tools/sloc.py [PATH ...]        # default: src

A PATH is a ``.py`` file or a directory searched recursively.  A *code line*
is a non-blank line that holds a token which is neither a comment nor a
module, class or function docstring — so reflowing prose, adding comments
or growing docstrings moves nothing, and ``wc -l`` differences that are only
documentation do not count as code.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

#: Token types that never make a line a code line.
_NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> list[tuple[int, int]]:
    """``(first, last)`` line of every module, class and function docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            spans.append((doc.lineno, doc.end_lineno))
    return spans


def code_lines(source: str) -> int:
    """Number of code lines in one module's ``source``."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.STRING and any(
            lo <= first and last <= hi for lo, hi in docstrings
        ):
            continue
        lines.update(range(first, last + 1))
    return len(lines)


def python_files(paths: list[str]) -> list[Path]:
    """Every ``.py`` file named by or under ``paths``, sorted, no duplicates."""
    found: set[Path] = set()
    for path in map(Path, paths):
        if path.is_dir():
            found.update(path.rglob("*.py"))
        elif path.suffix == ".py" and path.is_file():
            found.add(path)
        else:
            raise SystemExit(f"sloc: {path} is not a .py file or a directory")
    return sorted(found)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"])
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        n = code_lines(path.read_text())
        total += n
        print(f"{n:7d}  {path}")
    print(f"{total:7d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Count the code lines of Python files: lines that hold a token other than a
comment, with blank lines and docstrings left out.

A docstring is the string that opens a module, class or function body.  A
line counts once, however many statements it holds, and a statement that
spans several lines counts each of them.

Usage::

    python tools/code_lines.py src/       # total over a tree
    python tools/code_lines.py src/qlin/goals.py src/qlin/structural.py
"""

from __future__ import annotations

import argparse
import ast
import io
import os
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count_source(source: str) -> int:
    """The code lines of one module's source text."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstring_lines(ast.parse(source)))


def python_files(paths: list[str]) -> list[str]:
    """The ``.py`` files named, and those under the directories named, sorted."""
    out = []
    for path in paths:
        if os.path.isdir(path):
            for root, dirs, files in os.walk(path):
                dirs[:] = sorted(d for d in dirs if d != "__pycache__")
                out.extend(os.path.join(root, f) for f in sorted(files) if f.endswith(".py"))
        else:
            out.append(path)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("paths", nargs="+", help="files or directories")
    args = parser.parse_args(argv)
    total = 0
    for path in python_files(args.paths):
        with open(path, encoding="utf-8") as fh:
            total += count_source(fh.read())
    print(total)
    return 0


if __name__ == "__main__":
    sys.exit(main())

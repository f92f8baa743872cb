"""List each ``raise`` statement of ``src/qlin`` that the tier-1 tests never
execute.

Runs pytest (tier-1, from the repository root) in this process
under ``sys.settrace``, records every line executed in the package's ``.py``
files, and prints each ``raise`` (found by ``ast``) none of whose lines ran,
as ``path:line: source``, then a count.  Code run in a subprocess is not
seen.  Standard library only, apart from the pytest it runs; the exit code
is pytest's.

Usage::

    PYTHONPATH=src python tools/raise_coverage.py
"""

from __future__ import annotations

import ast
import os
import sys
import threading

PACKAGE = os.path.join("src", "qlin")
PYTEST_ARGS = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def raises(path: str) -> list[tuple[int, int, str]]:
    """``(first line, last line, first source line)`` of each ``raise`` in
    the module at ``path``."""
    with open(path, encoding="utf-8") as f:
        source = f.read()
    lines = source.splitlines()
    return sorted((node.lineno, node.end_lineno, lines[node.lineno - 1].strip())
                  for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise))


def python_files(package: str) -> list[str]:
    """The real paths of the ``.py`` files under ``package``, sorted."""
    out = []
    for root, dirs, files in os.walk(package):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        out.extend(os.path.realpath(os.path.join(root, f)) for f in sorted(files)
                   if f.endswith(".py"))
    return out


def traced_run(files: list[str], pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with ``pytest_args`` under a line tracer: its exit code and
    the lines executed in each of ``files``."""
    import pytest

    seen: dict[str, set[int]] = {path: set() for path in files}
    # code objects are keyed by their file name as imported, which may differ
    # from the real path (a symlink, a relative sys.path entry)
    resolved: dict[str, set[int] | None] = {}

    def local(frame, event, arg):
        if event == "line":
            resolved[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def on_call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in resolved:
            resolved[name] = seen.get(os.path.realpath(name))
        if resolved[name] is None:
            return None
        resolved[name].add(frame.f_lineno)
        return local

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = int(pytest.main(pytest_args))
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return code, seen


def main() -> int:
    files = python_files(PACKAGE)
    code, seen = traced_run(files, PYTEST_ARGS)
    untested = [(path, line, text) for path in files for line, end, text in raises(path)
                if not seen[path] & set(range(line, end + 1))]
    for path, line, text in untested:
        print(f"{os.path.relpath(path)}:{line}: {text}")
    print(f"{len(untested)} of {sum(len(raises(p)) for p in files)} raise statements "
          f"never executed (pytest exit code {code})")
    return code


if __name__ == "__main__":
    sys.exit(main())

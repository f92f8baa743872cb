import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

FIXTURE = '''"""Module docstring
over two lines."""

import os  # a comment


def f(x):
    """Docstring."""
    # a comment line

    y = (x +
         1)
    return "a string, not a docstring"


class K:
    """Class docstring."""

    s = """a string
    that is code"""
'''


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_line_counter_leaves_out_docstrings_comments_and_blanks(tmp_path, capsys):
    code_lines = _code_lines()
    # import, def, the two lines of y, return, class, the two lines of s
    assert code_lines.count_source(FIXTURE) == 8
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "pkg" / "b.py").write_text('"""Only a docstring."""\n\nX = 1\n')
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == "9\n"

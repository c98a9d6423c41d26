"""``scripts/code_lines.py``: code lines without blanks, comments or docstrings."""

from __future__ import annotations

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).parent.parent / "scripts" / "code_lines.py"

SOURCE = '''"""A module docstring
over two lines."""

# a comment line
import os  # a trailing comment keeps its line


class Box:
    """A class docstring."""

    size = 1


def f(x):
    """A function docstring,

    with a blank line inside.
    """
    # an indented comment
    text = """a string that is no docstring

    counts where it is not blank"""
    return x + len(text)
'''


def _script():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only():
    # import, class, size, def, text's first and last line, return
    assert _script().code_lines(SOURCE) == 7


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "b.py").write_text(SOURCE)
    assert _script().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split("\n") == ["     1 a.py", "     7 b.py", "     8 total", ""]

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment is still code

# a comment line


def area(r):
    """One-line docstring."""
    text = """a string that is
    no docstring"""
    return (math.pi
            * r ** 2)


class Shape:
    """Class docstring."""

    sides = [
        1,

        2,
    ]
'''


def test_code_lines_leave_out_docstrings_comments_and_blanks():
    # code: the import, `def`, the string's two lines, the two lines of the
    # return, `class`, and the list's four non-blank lines
    assert src_lines.count(FIXTURE) == (24, 11)


def test_tree_counts_sum_the_modules(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_lines.count_tree(tmp_path) == (26, 12)
    assert src_lines.main([str(tmp_path)]) == 0
    # each module in path order, then the tree
    assert capsys.readouterr().out == (
        "b.py: 2 lines, 1 code lines\n"
        "pkg/a.py: 24 lines, 11 code lines\n"
        f"{tmp_path}: 26 lines, 12 code lines\n"
    )

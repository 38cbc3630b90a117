"""``tools/code_lines.py``: the size figure ROADMAP and CHANGES report.

A file path counts as the file itself, and a path that does not exist
is an error with a non-zero exit, never a count of 0.
"""

import importlib.util
import os

import pytest

_TOOL_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir,
    "tools", "code_lines.py")

_spec = importlib.util.spec_from_file_location("code_lines", _TOOL_PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring."""

# a comment


def f(x):
    """Function docstring,
    over two lines."""
    return (x +
            1)
'''


class TestCodeLines:
    def test_a_file_counts_as_itself(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(SOURCE)
        # ``def f(x):`` and the two lines of the return statement
        assert code_lines.code_lines(path) == 3

    def test_a_directory_counts_every_python_file_under_it(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(SOURCE)
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("y = 2\n")
        assert code_lines.code_lines(tmp_path) == 4

    def test_a_missing_path_is_an_error(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        with pytest.raises(FileNotFoundError):
            code_lines.code_lines(missing)
        (tmp_path / "m.py").write_text(SOURCE)
        assert code_lines.main([str(tmp_path / "m.py"), str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "3\t{}\n".format(tmp_path / "m.py")
        assert "nope" in captured.err

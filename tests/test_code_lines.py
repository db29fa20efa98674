"""tools/code_lines.py: what counts as a code line, directories, and a missing path."""

import importlib.util
import os

import pytest

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools", "code_lines.py")

# 12 code lines, marked; docstrings, comment-only lines and blank lines do not count
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code with a comment: counts                             1

# a comment-only line


class Thing:  #                                                      2
    """Class docstring."""

    def method(self):  #                                             3
        """Method docstring,
        over two lines."""
        x = os.path.join(  # a multi-line call counts on every line  4
            "a",  #                                                  5
            "b",  #                                                  6
        )  #                                                         7
        text = """a multi-line string that is not a docstring:
        both of its lines count"""  #                                8, 9
        return x, text  #                                            10


def helper():  #                                                     11
    """Function docstring."""
    return 1  #                                                      12
'''


def _load_tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    code_lines = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(code_lines)
    return code_lines


def test_counts_code_lines_without_docstrings_comments_and_blanks(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert _load_tool().code_lines(str(path)) == 12


def test_a_directory_counts_its_python_files_in_sorted_order(tmp_path, capsys):
    (tmp_path / "b.py").write_text(FIXTURE)
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    _load_tool().main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        f"     1 {tmp_path / 'a.py'}", f"    12 {tmp_path / 'b.py'}", "    13 total"]


def test_a_missing_path_exits_2_with_one_error_line(tmp_path, capsys):
    with pytest.raises(SystemExit) as exited:
        _load_tool().main([TOOL, str(tmp_path / "missing.py")])
    assert exited.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: no such file or directory: {tmp_path / 'missing.py'}"]

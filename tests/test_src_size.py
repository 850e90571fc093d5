"""The source size counter (``tools/src_size.py``) on a synthetic module."""

import importlib.util
from pathlib import Path

spec = importlib.util.spec_from_file_location(
    "src_size", Path(__file__).resolve().parent.parent / "tools" / "src_size.py"
)
src_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_size)

MODULE = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps the line

# a comment line


class Thing:
    """Class docstring."""

    label = """a multi-line string
that is not a docstring
"""

    def method(self):
        """Method
        docstring."""
        return (1,
                2)


async def run():
    \'\'\'Async docstring.\'\'\'
    "a later string statement is code"
    return os.sep
'''

# The code lines: import, class, label (3 lines), def method, return (2
# lines), async def, the later string statement and the last return.
CODE_LINES = 11


def test_counts_lines_outside_docstrings_comments_and_blanks():
    assert src_size.code_lines(MODULE) == CODE_LINES


def test_sizes_per_module_with_wc_line_counts(tmp_path):
    (tmp_path / "b.py").write_text(MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert src_size.sizes(tmp_path) == [("a.py", 2, 1), ("b.py", MODULE.count("\n"), CODE_LINES)]

import importlib.util
from pathlib import Path

import relayrates

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("src_lines", ROOT / "tools" / "src_lines.py")
src_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(src_lines)


def test_the_kinds_add_up_to_each_module():
    for path in sorted(Path(relayrates.__file__).parent.glob("*.py")):
        source = path.read_text()
        counts = src_lines.count_lines(source)
        assert counts["total"] == len(source.splitlines()), path.name
        assert sum(counts[kind] for kind in src_lines.KINDS[1:]) == counts["total"], path.name


def test_each_kind_of_line():
    source = '''"""Module
docstring."""

# a comment
x = 1  # code with a comment


def f():
    """One line."""
    text = """not a
# docstring"""

    return text
'''
    assert src_lines.count_lines(source) == {"total": 13, "docstring": 3, "comment": 1,
                                             "blank": 4, "code": 5}

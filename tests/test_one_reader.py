"""Only `modp` reads input text.

No other `rigikit` module touches `splitlines`, `.decode` or `read_text`,
so every file the CLI takes goes through `modp.read_lines` (ASCII bytes,
line numbers, blank and `#` lines) and `modp.read_int` (plain digits).
A stdlib `ast` walk, no linter: any attribute of one of those names,
called or not, is a reader.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rigikit"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "modp.py")
READERS = {"splitlines", "decode", "read_text"}


def reader_uses(source: str):
    """(line, name) for each attribute named in READERS."""
    return sorted((node.lineno, node.attr) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in READERS)


def test_the_walk_finds_readers():
    source = ("def f(path, data):\n"
              "    lines = path.read_text().splitlines()\n"
              "    text = data.decode('ascii')\n"
              "    return map(str.splitlines, [text]), path.read_bytes(), splitlines\n")
    assert reader_uses(source) == [(2, "read_text"), (2, "splitlines"), (3, "decode"),
                                   (4, "splitlines")]
    assert reader_uses((SRC / "modp.py").read_text()) != []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_only_modp_reads_input_text(path):
    assert reader_uses(path.read_text()) == []

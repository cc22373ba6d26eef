"""Every top-level `def` and `class` of a `rigikit` module is used somewhere.

The same stdlib `ast` walk as test_imports.py, no linter: each top-level
function or class name of `src/rigikit/*.py` (dunders exempt) must occur as
a word in a Python file under `src/`, `tests/` or `perfbench/` on some line
other than its own definition line. A name used only by a test or by the
benchmark harness counts as used.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "rigikit").glob("*.py"))
CORPUS = [path.read_text() for top in ("src", "tests", "perfbench")
          for path in sorted((ROOT / top).rglob("*.py"))]
WORD = re.compile(r"\w+")


def definitions(source: str):
    """(line, name) for each top-level def and class, dunders exempt."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not (node.name.startswith("__") and node.name.endswith("__"))]


def dead_names(source: str, corpus) -> list:
    """Names `source` defines at the top level that occur as a word in the
    texts of `corpus` only on their own definition line."""
    words = Counter(w for text in corpus for w in WORD.findall(text))
    lines = source.splitlines()
    return [name for line, name in definitions(source)
            if words[name] == WORD.findall(lines[line - 1]).count(name)]


def test_the_walk_finds_dead_names():
    source = ("def used_one():\n"
              "    return 1\n"
              "class Lonely:  # Lonely\n"
              "    def method_only(self):\n"
              "        return used_one()\n"
              "async def waiting(): pass\n"
              "def __getattr__(name): pass\n")
    other = "from m import waiting_room, waiting\n"
    assert dead_names(source, [source]) == ["Lonely", "waiting"]
    assert dead_names(source, [source, other]) == ["Lonely"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_dead_top_level_names(path):
    assert dead_names(path.read_text(), CORPUS) == []

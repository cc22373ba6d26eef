"""Every name a `rigikit` module imports is used in that module.

A stdlib `ast` walk, no linter: each import binds a name (the `as` name,
or the first part of a dotted `import a.b`), and that name must occur as
a name somewhere in the module or in its `__all__`. An imported name on a
line marked `# noqa: F401` is exempt; chartable keeps such names bound
for perfbench's tracer.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "rigikit"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str):
    """(line, name) for each imported name the source never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, alias.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_walk_finds_unused_names_and_honours_noqa():
    source = ("from itertools import count, chain\n"
              "import os.path\n"
              "from math import (gcd,\n"
              "                  lcm)  # noqa: F401\n"
              "def f():\n"
              "    from . import cyclo\n"
              "    return chain(os.sep)\n")
    assert unused_imports(source) == [(1, "count"), (3, "gcd"), (6, "cyclo")]
    assert unused_imports("__all__ = ['x']\nfrom .m import x\n") == []


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []

"""No module of the package imports a name that it never reads.

An import line always runs, so the liveness tracer cannot see an import
that outlived its last use; this walks the sources instead. ``__init__.py``
is exempt: its imports are the public API.
"""

import ast
from pathlib import Path

import stabgeom

SRC = Path(stabgeom.__file__).parent


def unread_imports(source: str, module: str) -> list[str]:
    """``module:line name`` of each module-level imported name that the module never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    found = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        found += [f"{module}:{node.lineno} {name}" for name in names if name not in read]
    return found


def test_no_module_imports_a_name_it_never_reads():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.name != "__init__.py":
            unread += unread_imports(path.read_text(encoding="utf-8"), path.stem)
    assert unread == []


def test_names_the_line_of_an_unread_import():
    planted = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from itertools import chain, product as prod\n"
        "from .exactgeom import (\n"
        "    _INT,\n"
        "    rank,\n"
        ")\n"
        "\n"
        "def f(m):\n"
        "    return rank(list(prod(m)))\n"
    )
    assert unread_imports(planted, "planted") == [
        "planted:2 os",
        "planted:3 chain",
        "planted:4 _INT",
    ]
    assert unread_imports(planted + "x = os.sep, chain, _INT\n", "planted") == []

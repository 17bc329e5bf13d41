"""Every name the benchmark's tracer wraps resolves in stabgeom.

``perfbench/tracing.py`` wraps functions by name; a rename in the package
would otherwise only show when a traced benchmark run crashes. The table
is read with ``ast``, so nothing under ``perfbench/`` is executed.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_names():
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return [(module, name) for module, names in table.items() for name in names]
    raise AssertionError("no TRACED table in perfbench/tracing.py")


@pytest.mark.parametrize("module_name, name", _traced_names())
def test_traced_name_resolves(module_name, name):
    target = importlib.import_module(f"stabgeom.{module_name}")
    for attr in name.split("."):
        target = getattr(target, attr)
    assert callable(target)

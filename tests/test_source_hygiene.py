"""Source hygiene: every name a module imports at top level is read."""

import ast
import pathlib

import pytest

import fuzzcalc

SOURCES = sorted(
    p for p in pathlib.Path(fuzzcalc.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unread_imports(source: str) -> list[str]:
    """Names bound by top-level imports that no expression in ``source`` reads."""
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []

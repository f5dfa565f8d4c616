"""Source hygiene: every name a module imports, at top level or inside a
function, is read somewhere in that module, in the package and in the
tests, tools and demos."""

import ast
import pathlib

import pytest

import fuzzcalc

PACKAGE = pathlib.Path(fuzzcalc.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(
    p for folder in ("tests", "tools", "demos") for p in (ROOT / folder).glob("*.py")
)


def source_id(path: pathlib.Path) -> str:
    return path.name if path.parent == PACKAGE else path.relative_to(ROOT).as_posix()


def unread_imports(source: str) -> list[str]:
    """Names bound by imports that no expression in ``source`` reads."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in bound if name not in read]


@pytest.mark.parametrize("path", SOURCES, ids=source_id)
def test_every_top_level_import_is_read(path):
    assert unread_imports(path.read_text()) == []

"""The package has no runtime dependencies: it imports the standard library only."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "mosaicforest").glob("*.py"))


def _top_level_imports(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_the_package(path):
    foreign = _top_level_imports(path) - set(sys.stdlib_module_names) - {"mosaicforest"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"

"""The package has no runtime dependencies: it imports the standard library only.

Every name a module imports is also used there, or, in `__init__.py`,
listed in `__all__`, so deleting the last use of a name deletes its import.
"""

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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":  # it imports names to list them in __all__
        used |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant)}
    unused = imported - used
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"

"""The package has no runtime dependencies: it imports the standard library only.

Every name a module imports is also used there, or, in `__init__.py`,
listed in `__all__`, so deleting the last use of a name deletes its import.
Every public function and method is likewise listed in `__all__` or named
by the package, a demo or the benchmark, and every private one, like every
private module-level name, is named by the package.
"""

import ast
import sys
from pathlib import Path

import pytest

import mosaicforest

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


def _referenced(paths) -> set[str]:
    """Every name the files at `paths` load, take as an attribute or import."""
    referenced = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name)
    return referenced


def test_every_private_module_level_name_is_referenced():
    # a private function, class, constant or method of a module-level class
    # that nothing in the package names is left over; public ones are
    # checked below, and dunders are exempt
    defined = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                names = [node.name]
                names += [d.name for d in node.body if isinstance(d, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            defined += [(path.name, n) for n in names if n.startswith("_") and not n.endswith("__")]
    referenced = _referenced(SOURCES)
    unreferenced = [f"{module}: {name}" for module, name in defined if name not in referenced]
    assert not unreferenced, f"never referenced in the package: {unreferenced}"


def test_every_public_function_and_method_is_exported_or_referenced():
    # a public module-level function or method of a module-level class is
    # listed in `__all__` or named by the package, a demo or the benchmark;
    # dunders start with "_" and are exempt
    defined = []
    for path in SOURCES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for d in node.body if isinstance(node, ast.ClassDef) else [node]:
                if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                    defined.append((path.name, d.name))
    root = SOURCES[0].parent.parent.parent
    users = [*SOURCES, *(root / "demos").glob("*.py"), *(root / "perfbench").glob("*.py")]
    referenced = _referenced(users) | set(mosaicforest.__all__)
    orphans = [f"{module}: {name}" for module, name in defined if name not in referenced]
    assert not orphans, f"neither exported nor referenced: {orphans}"

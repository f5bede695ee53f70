"""The package has no runtime dependencies: it imports the standard library only.

Every name a module imports is also used there, or, in `__init__.py`,
listed in `__all__`, so deleting the last use of a name deletes its import.
Every public function and method is likewise listed in `__all__` or named
by the package, a demo or the benchmark, and every private one, like every
private module-level name, is named by the package.  No module, in the
package or among the tests, rebinds at its top level a name it imports.
"""

import ast
import sys
from pathlib import Path

import pytest

import mosaicforest

SOURCES = sorted((Path(__file__).parent.parent / "src" / "mosaicforest").glob("*.py"))
TESTS = sorted(Path(__file__).parent.glob("*.py"))


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


def _rebound_imports(source: str) -> list[str]:
    """Names that a module-level def, class or assignment in `source` binds
    again after the module imports them, which silently shadows the import."""
    imported, rebound = set(), []
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).partition(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(a.asname or a.name for a in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            rebound += [node.name] if node.name in imported else []
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            stored = (n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
            rebound += [name for name in stored if name in imported]
    return rebound


@pytest.mark.parametrize("path", SOURCES + TESTS, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_module_rebinds_a_name_it_imports(path):
    rebound = _rebound_imports(path.read_text(encoding="utf-8"))
    assert not rebound, f"{path.name} rebinds {rebound}, which it imports"


def test_a_planted_rebinding_of_an_import_is_caught():
    # a test module's own helper named like the function it imports
    planted = "from mosaicforest.mosaic import _belt_maps, build\n\ndef _belt_maps(m):\n    pass\n"
    assert _rebound_imports(planted) == ["_belt_maps"]
    assert _rebound_imports("import ast\nast, n = None, 1\nx: int = 2\n") == ["ast"]
    assert _rebound_imports("from x import y\ndef z():\n    y = 1\n") == []

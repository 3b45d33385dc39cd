"""Static checks on the package and test source; no linter is installed,
so the suite does the two lint rules the project keeps: no unused imports,
and no private module-level name in the package that nothing uses."""

import ast
from pathlib import Path

import pytest

import trajdiag

TESTS = Path(__file__).parent
MODULES = sorted(
    path
    for path in Path(trajdiag.__file__).parent.rglob("*.py")
    if path.name != "__init__.py"
) + sorted(TESTS.glob("*.py"))


def _module_id(path):
    return f"tests/{path.name}" if path.parent == TESTS else path.name


@pytest.mark.parametrize("path", MODULES, ids=_module_id)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


SOURCES = sorted(Path(trajdiag.__file__).parent.rglob("*.py"))


def _private_definitions(tree):
    """Private names a module binds at its top level: defs, classes, assignments."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def test_every_private_name_is_used():
    # a private helper that only its own definition mentions is dead code
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = sorted(
        f"{module}: {name}"
        for module, tree in trees.items()
        for name in _private_definitions(tree)
        if name not in used
    )
    assert not unused, f"private names defined but never used: {unused}"

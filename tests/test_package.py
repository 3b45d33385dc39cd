"""Static checks on the package source; no linter is installed, so the
suite does the one lint rule the package keeps: no unused imports."""

import ast
from pathlib import Path

import pytest

import trajdiag

MODULES = sorted(
    path
    for path in Path(trajdiag.__file__).parent.rglob("*.py")
    if path.name != "__init__.py"
)


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
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

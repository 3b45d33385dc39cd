"""Static checks on the package and test source; no linter is installed,
so the suite does the one lint rule the project keeps: no unused imports."""

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

"""Static checks on the package and test source; no linter is installed,
so the suite does the two lint rules the project keeps: no unused imports,
and no private name in the package (module-level, method or class-level)
that nothing uses. It also checks that the names the benchmark under
``bench/`` looks up still exist."""

import ast
import importlib
import importlib.util
import inspect
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


def _private_definitions(body):
    """Private names a module or class body binds: defs, classes and
    assignments, and those of every class it defines (methods and
    class-level names)."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [name.id for target in targets for name in ast.walk(target)
                     if isinstance(name, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))
        if isinstance(node, ast.ClassDef):
            yield from _private_definitions(node.body)


def test_every_private_name_is_used():
    # a private helper, method or class-level name that only its own
    # definition mentions is dead code
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
        for name in _private_definitions(tree.body)
        if name not in used
    )
    assert not unused, f"private names defined but never used: {unused}"


BENCH = Path(__file__).parents[1] / "bench"


def _resolve(module, dotted):
    """The object ``module.dotted`` names, importing subpackages as needed;
    ``AttributeError`` if there is none."""
    target = importlib.import_module(module)
    for part in dotted.split("."):
        if not hasattr(target, part) and hasattr(target, "__path__"):
            importlib.import_module(f"{target.__name__}.{part}")
        target = getattr(target, part)
    return target


def test_bench_targets_resolve():
    # the benchmark wraps these spans by name and reads 0 for a target
    # that is gone; two of them are dead already
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = set()
    for span, (module, attribute, _) in tracing.TARGETS.items():
        try:
            _resolve(module, attribute)
        except AttributeError:
            missing.add(span)
    assert missing <= {"acsim.gains", "netlist.apply_deviation"}, sorted(missing)


@pytest.mark.parametrize("name", ["worker.py", "run.py", "checks.py"])
def test_bench_imports_resolve(name):
    # every name the bench imports from the package, and every attribute it
    # reads off a package module it imported
    tree = ast.parse((BENCH / name).read_text())
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "trajdiag":
            for alias in node.names:
                value = _resolve(node.module, alias.name)
                if inspect.ismodule(value):
                    modules[alias.asname or alias.name] = value
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in modules:
                _resolve(modules[node.value.id].__name__, node.attr)

"""The package namespace re-exports each library module's public API, once, one module owns its files, none starts a thread, and no module of the package or its tests imports a name it never uses."""
import ast
import collections
import importlib
from pathlib import Path

import pytest

import scatdecay

MODULES = ("decay", "errors", "filterbank", "scattering", "signals", "stationary")
PACKAGE = Path(scatdecay.__file__).parent
SOURCES = sorted(p.stem for p in PACKAGE.glob("*.py"))
TESTS = Path(__file__).parent


@pytest.mark.parametrize("name", MODULES)
def test_module_public_names_import_from_package(name):
    module = importlib.import_module(f"scatdecay.{name}")
    for public in module.__all__:
        assert getattr(scatdecay, public) is getattr(module, public), public


def test_package_all_lists_each_public_name_once():
    modules = [importlib.import_module(f"scatdecay.{name}") for name in MODULES]
    names = [public for module in modules for public in module.__all__]
    assert collections.Counter(scatdecay.__all__) == collections.Counter(set(names))
    assert len(names) == len(set(names))  # no name is public in two modules


def _file_access(node: ast.AST) -> bool:
    """Whether ``node`` calls ``open`` or ``makedirs``, or imports ``json``."""
    if isinstance(node, ast.Call):
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in ("open", "makedirs")
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[0] == "json" for alias in node.names)
    return isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json"


@pytest.mark.parametrize("name", SOURCES)
def test_only_signals_opens_files_or_reads_json(name):
    # signals owns every file format, read and written, and the directory a file is written into,
    # so no other module opens a file, makes a directory or parses JSON; signals itself does all
    # three, which shows the check sees what it forbids
    path = PACKAGE / f"{name}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if _file_access(node)]
    assert bool(lines) == (name == "signals"), f"{path.name} opens a file, makes a directory or imports json at {lines}"


def _imported(node: ast.AST) -> list[str]:
    """The top-level names of the modules ``node`` imports, if it is an import."""
    if isinstance(node, ast.Import):
        return [alias.name.split(".")[0] for alias in node.names]
    if isinstance(node, ast.ImportFrom) and not node.level:
        return [(node.module or "").split(".")[0]]
    return []


@pytest.mark.parametrize("name", SOURCES)
def test_no_module_imports_threads(name):
    # every pass runs on the calling thread, so no two threads write one buffer
    path = PACKAGE / f"{name}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
             if {"threading", "concurrent"} & set(_imported(node))]
    assert not lines, f"{path.name} imports threading or concurrent at {lines}"


def _unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name ``path`` imports and never reads; a name in ``__all__`` is read."""
    tree = ast.parse(path.read_text())
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update((alias.asname or alias.name, node.lineno) for alias in node.names if alias.name != "*")
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant))
    return sorted((line, name) for name, line in bound.items() if name not in used)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")),
                         ids=lambda path: f"{path.parent.name}/{path.name}")
def test_no_module_imports_a_name_it_never_uses(path):
    unused = _unused_imports(path)
    assert not unused, f"{path.name} imports names it never uses: {unused}"

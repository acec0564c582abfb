"""The package namespace re-exports each library module's public API, once, and one module owns its files."""
import ast
import collections
import importlib
from pathlib import Path

import pytest

import scatdecay

MODULES = ("decay", "errors", "filterbank", "scattering", "signals", "stationary")
PACKAGE = Path(scatdecay.__file__).parent


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


@pytest.mark.parametrize("name", sorted(p.stem for p in PACKAGE.glob("*.py")))
def test_only_signals_opens_files_or_reads_json(name):
    # signals owns every file format, read and written, and the directory a file is written into,
    # so no other module opens a file, makes a directory or parses JSON; signals itself does all
    # three, which shows the check sees what it forbids
    path = PACKAGE / f"{name}.py"
    lines = [node.lineno for node in ast.walk(ast.parse(path.read_text())) if _file_access(node)]
    assert bool(lines) == (name == "signals"), f"{path.name} opens a file, makes a directory or imports json at {lines}"

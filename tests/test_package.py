"""The package namespace re-exports each library module's public API, once."""
import collections
import importlib

import pytest

import scatdecay

MODULES = ("decay", "errors", "filterbank", "scattering", "signals", "stationary")


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

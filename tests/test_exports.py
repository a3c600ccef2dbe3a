"""Export lists: every name in the package's and each submodule's __all__
is an attribute of that module, listed once."""

import importlib
import pkgutil

import pytest

import reflectspde

MODULES = ["reflectspde"] + [
    f"reflectspde.{info.name}" for info in pkgutil.iter_modules(reflectspde.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)

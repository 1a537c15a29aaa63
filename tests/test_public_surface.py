"""The package's public names: each `__all__` lists only names its module
defines, and each public name the package re-exports is in its module's
`__all__`."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import firstroot

MODULES = {info.name: importlib.import_module(f"firstroot.{info.name}")
           for info in pkgutil.iter_modules(firstroot.__path__)
           if not info.name.startswith("_")}
LISTED = {name: module for name, module in MODULES.items() if hasattr(module, "__all__")}


def _reexports(module):
    tree = ast.parse(inspect.getsource(firstroot))
    return [alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == module
            for alias in node.names if not alias.name.startswith("_")]


@pytest.mark.parametrize("module", sorted(LISTED))
def test_every_listed_name_resolves(module):
    assert [name for name in LISTED[module].__all__ if not hasattr(LISTED[module], name)] == []


@pytest.mark.parametrize("module", sorted(MODULES))
def test_every_reexported_name_is_listed(module):
    names = _reexports(module)
    assert all(getattr(firstroot, name) is getattr(MODULES[module], name) for name in names)
    if module in LISTED:
        assert [name for name in names if name not in LISTED[module].__all__] == []

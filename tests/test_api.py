"""Module interfaces: every name a module exports exists."""

import importlib
import pkgutil

import pytest

import graphsplit

MODULES = [name for _, name, _ in pkgutil.iter_modules(graphsplit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"graphsplit.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []

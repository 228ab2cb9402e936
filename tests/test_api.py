"""Module interfaces: every name a module exports exists, and README's
quick start runs."""

import contextlib
import importlib
import io
import pathlib
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


def test_readme_quick_start_converges():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text().split("## Quick start", 1)[1]
    code = text.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(code, str(readme), "exec"), namespace)
    assert namespace["report"].converged

"""Every public name still imports: each name in the ``__all__`` of every
dohertylab module resolves, so a deletion that leaves a stale export fails here."""

import importlib
import pkgutil

import pytest

import dohertylab

MODULES = ["dohertylab"] + sorted(
    info.name for info in pkgutil.walk_packages(dohertylab.__path__, "dohertylab.")
)


@pytest.mark.parametrize("module", MODULES)
def test_every_exported_name_imports(module):
    names = getattr(importlib.import_module(module), "__all__", [])
    assert len(set(names)) == len(names), f"{module}.__all__ repeats a name"
    for name in names:
        exec(f"from {module} import {name}", {})  # ImportError on a stale name

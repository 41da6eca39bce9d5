"""Every name a ``repro`` module exports in ``__all__`` resolves.

A deleted function or class must not live on as a stale export: ``from
repro.x import *`` and the documented import paths fail on a name that
``__all__`` lists but the module no longer defines.
"""

import importlib
import pkgutil

import pytest

import repro

MODULES = ["repro"] + sorted(
    info.name
    for info in pkgutil.walk_packages(repro.__path__, "repro.")
    # The CLI entry point runs on import.
    if not info.name.endswith("__main__")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [
        export for export in getattr(module, "__all__", ())
        if not hasattr(module, export)
    ]
    assert missing == [], f"{name}.__all__ names undefined {missing}"


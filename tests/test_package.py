"""Every name the package and its modules export resolves.

``from crnsiphon import *`` and any tool that walks a module's ``__all__``
(a tracer that wraps each public function, say) fail on a stale entry.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import crnsiphon

MODULES = ["crnsiphon"] + [
    f"crnsiphon.{info.name}" for info in pkgutil.iter_modules(crnsiphon.__path__)
]


def test_every_module_is_listed():
    assert {"crnsiphon.dynamics", "crnsiphon.casexport", "crnsiphon.cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
    assert len(set(module.__all__)) == len(module.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from crnsiphon import *", namespace)
    assert set(crnsiphon.__all__) <= namespace.keys()

"""Every name a defectwalk module lists in ``__all__`` exists, so that
``from defectwalk.<module> import *`` keeps working after a rename."""

import importlib
import pkgutil

import pytest

import defectwalk

MODULES = ["defectwalk"] + [f"defectwalk.{m.name}" for m in pkgutil.iter_modules(defectwalk.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    exported = getattr(importlib.import_module(name), "__all__", [])
    assert len(set(exported)) == len(exported)
    exec(f"from {name} import *", {})

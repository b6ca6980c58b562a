"""Every exported name resolves, so ``from ... import *`` cannot break."""

import importlib
import pkgutil

import pytest

import rarebound

MODULES = ["rarebound"] + [f"rarebound.{m.name}"
                           for m in pkgutil.iter_modules(rarebound.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", [])
               if not hasattr(module, n)]
    assert missing == []

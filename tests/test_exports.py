"""Every name a package module exports in ``__all__`` is defined there, once."""

import importlib
import pkgutil

import pytest

import grating_orders

MODULES = [info.name for info in pkgutil.iter_modules(grating_orders.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"grating_orders.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []

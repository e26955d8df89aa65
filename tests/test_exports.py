"""Every name a ``shortlong`` module lists in ``__all__`` is an attribute of
that module; a stale entry breaks ``from shortlong.<module> import *``."""

import importlib
import pkgutil

import pytest

import shortlong

MODULES = sorted(m.name for m in pkgutil.iter_modules(shortlong.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"shortlong.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []

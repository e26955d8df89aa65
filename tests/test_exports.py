"""Every name a ``shortlong`` module lists in ``__all__`` is an attribute of
that module; a stale entry breaks ``from shortlong.<module> import *``. And
every module-level import is read: the check a linter would make, here
without one."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import shortlong

MODULES = sorted(m.name for m in pkgutil.iter_modules(shortlong.__path__))
SOURCES = sorted(Path(shortlong.__path__[0]).glob("*.py"))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(f"shortlong.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_module_import_is_read(path):
    """Each name a module-level import binds is read in the module or listed
    in its ``__all__``, unless the import's lines carry ``# noqa: F401``
    (an alias kept for a caller outside the module)."""
    text = path.read_text()
    lines = text.splitlines()
    tree = ast.parse(text)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets
                                             if isinstance(t, ast.Name)] == ["__all__"]:
            read |= set(ast.literal_eval(node.value))
    unread = [alias.asname or alias.name.split(".")[0]
              for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
              and getattr(node, "module", None) != "__future__"
              and not any("# noqa: F401" in line
                          for line in lines[node.lineno - 1:node.end_lineno])
              for alias in node.names]
    assert [name for name in unread if name not in read] == []

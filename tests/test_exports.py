"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
from pathlib import Path

import pytest

import superfs

MODULES = ["catalog", "cli", "errors", "gauge", "groups", "superalg", "surfaces",
           "twists"]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"superfs.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_public_names():
    # each name superfs/__init__ imports from a module is in that module's
    # __all__ and resolves on the package
    tree = ast.parse(Path(superfs.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        module = importlib.import_module(f"superfs.{node.module}")
        for alias in node.names:
            assert alias.name in module.__all__, (node.module, alias.name)
            assert getattr(superfs, alias.asname or alias.name) is getattr(module, alias.name)

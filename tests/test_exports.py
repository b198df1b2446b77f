"""Every name a prilora submodule exports through ``__all__`` exists, so a
deletion cannot leave a stale entry that breaks ``from prilora.x import *``;
and the model module imports only the layers below it."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import prilora

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(prilora.__path__))


def test_every_submodule_is_found():
    assert {"adapter", "model", "numerics"} <= set(SUBMODULES)


@pytest.mark.parametrize("name", SUBMODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"prilora.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"prilora.{name}.__all__ repeats a name"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"prilora.{name}.__all__ names what it does not define"
    namespace: dict = {}
    exec(f"from prilora.{name} import *", namespace)
    assert set(exported) <= set(namespace)


def test_the_model_imports_no_pruning():
    # the model fills the norm vectors a run hands in; pruning reads them,
    # so the model module builds on the layers below it and nothing else
    tree = ast.parse(Path(importlib.import_module("prilora.model").__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {node.module} if node.module else {a.name for a in node.names}
    assert imported == {"numerics", "adapter", "errors", "rank_plan"}

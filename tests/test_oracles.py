"""The references in ``oracles.py`` and ``_rational.py`` stay independent of
the library they check: neither imports anything from ``roothk``."""

import ast
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["oracles.py", "_rational.py"])
def test_references_import_nothing_from_roothk(name):
    tree = ast.parse((Path(__file__).parent / name).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            modules.add(node.module or "")
    assert modules and not any(m.split(".")[0] == "roothk" for m in modules)

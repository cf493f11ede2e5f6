"""Checks on the test suite's own structure."""

import ast
from pathlib import Path


def test_oracles_do_not_import_the_library():
    tree = ast.parse(Path(__file__).with_name("oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    offending = {name for name in imported if name.split(".")[0] == "connsys" or name.startswith(".")}
    assert not offending, f"tests/oracles.py imports {sorted(offending)}"

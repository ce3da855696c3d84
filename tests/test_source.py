"""Checks on the package source itself."""

import ast
from pathlib import Path

import lietrace

SOURCES = sorted(Path(lietrace.__file__).parent.glob("*.py"))


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; consistency checks must raise instead
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found

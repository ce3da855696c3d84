"""Checks on the package source itself."""

import ast
import importlib
import inspect
from pathlib import Path

import lietrace

SOURCES = sorted(Path(lietrace.__file__).parent.glob("*.py"))
TRACE_CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "trace_child.py"


def test_no_bare_asserts_in_package():
    # python -O strips assert statements; consistency checks must raise instead
    assert SOURCES
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found


def test_perfbench_trace_targets_resolve():
    # the benchmark tracer wraps plain functions only; read its list without running it
    tree = ast.parse(TRACE_CHILD.read_text(), filename=str(TRACE_CHILD))
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    assert targets
    unresolved = []
    for layer, modname, path, _ in targets:
        owner = importlib.import_module(modname)
        *owners, attr = path.split(".")
        for name in owners:
            owner = getattr(owner, name)
        if not inspect.isfunction(inspect.getattr_static(owner, attr, None)):
            unresolved.append(f"{layer}: {modname}.{path}")
    assert not unresolved, unresolved

"""Checks on the package source itself."""

import ast
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import lietrace
from lietrace import cli, cyclic, exactlin, freelie, grouppres, johnson

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


def test_no_fractions_in_package():
    # one fraction-free elimination core: no module imports fractions, even
    # lazily inside a function, or reads a Fraction or its denominator
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            else:
                continue
            if any(name.split(".")[0] in ("fractions", "Fraction", "denominator") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def test_no_exec_or_eval_in_package():
    # value classes are built from closures (_words.record); nothing compiles source
    found = []
    for path in SOURCES:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            if re.search(r"\b(exec|eval)\(", line):
                found.append(f"{path.name}:{lineno}")
    assert not found, found


ALGEBRA = ("cyclic", "exactlin", "freelie", "grouppres", "johnson", "tangent")
# run in a fresh interpreter: the heavy modules loaded, the algebra modules not
COLD_IMPORT_PROBE = f"""
import sys
import lietrace.cli
print([m for m in ("dataclasses", "inspect", "ast", "dis", "fractions", "decimal") if m in sys.modules])
print([m for m in {ALGEBRA!r} if "lietrace." + m not in sys.modules])
"""


def test_cold_cli_import_stays_light():
    # a fresh `import lietrace.cli` must not pay for dataclasses and its
    # imports, nor for fractions and the decimal it loads (no package module
    # imports it), and must load all six algebra modules: the
    # benchmark tracer wraps only modules already in sys.modules after that import
    src = str(Path(lietrace.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c", COLD_IMPORT_PROBE],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert probe.stdout == "[]\n[]\n"


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


# ---------------------------------------------------------------------------
# value classes: what callers rely on, pinned independently of how the
# classes are generated

# (class, field names, field values, another value of the class, exact repr)
VALUE_CLASSES = [
    (cyclic.Necklace, ("word",), ((1, 2),), ((1, 3),), "Necklace(word=(1, 2))"),
    (
        exactlin.QuotientStructure, ("free_rank", "torsion"), (1, (2, 4)), (1, (2,)),
        "QuotientStructure(free_rank=1, torsion=(2, 4))",
    ),
    (freelie.HallMonomial, ("n", "word"), (2, (1, 2)), (2, (1, 2, 2)), "HallMonomial(n=2, word=(1, 2))"),
    (
        grouppres.Presentation, ("generators", "relators"),
        (("a", "b"), ((("a", 1), ("b", -1)),)), (("a", "b"), ()),
        "Presentation(generators=('a', 'b'), relators=((('a', 1), ('b', -1)),))",
    ),
    (
        grouppres.LatticeAction, ("rank", "matrices"), (1, {"a": ((1,),)}), (1, {"a": ((-1,),)}),
        "LatticeAction(rank=1, matrices={'a': ((1,),)})",
    ),
    (grouppres.CrossedHom, ("images",), ({"a": (1,)},), ({"a": (2,)},), "CrossedHom(images={'a': (1,)})"),
    (
        johnson.AlphaReport, ("alpha", "c_alpha", "r_alpha"), ((2, 2), 3, 0), ((2, 2), 3, 1),
        "AlphaReport(alpha=(2, 2), c_alpha=3, r_alpha=0)",
    ),
    (
        johnson.T0530Report, ("n", "k", "checked", "skipped", "violations"),
        (3, 3, (((1, 2), 1),), ((3, 0),), ()), (3, 3, (), (), ((1, 1, 1),)),
        "T0530Report(n=3, k=3, checked=(((1, 2), 1),), skipped=((3, 0),), violations=())",
    ),
    (
        johnson.EGeneratorReport,
        ("n", "family_counts", "total", "expected", "span_dim", "image_dim"),
        (3, (1, 2, 3, 4), 10, 10, 10, 10), (3, (1, 2, 3, 4), 10, 11, 10, 10),
        "EGeneratorReport(n=3, family_counts=(1, 2, 3, 4), total=10, expected=10,"
        " span_dim=10, image_dim=10)",
    ),
    (
        cli.TableDocument, ("title", "columns", "rows", "provenance"),
        ("t", ["v"], [[1]], "p"), ("t", ["v"], [[2]], "p"),
        "TableDocument(title='t', columns=['v'], rows=[[1]], provenance='p')",
    ),
]
ORDERED = (cyclic.Necklace, freelie.HallMonomial)


def _hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:
        return TypeError, str(exc)


@pytest.mark.parametrize(
    "cls, names, values, other, text", VALUE_CLASSES, ids=[case[0].__name__ for case in VALUE_CLASSES]
)
def test_value_classes_keep_their_semantics(cls, names, values, other, text):
    x = cls(*values)
    # positional and keyword construction agree, field by field
    assert cls(**dict(zip(names, values))) == x
    assert tuple(getattr(x, name) for name in names) == values
    assert repr(x) == text
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values[:-1], **{names[-1]: values[-1], "nofield": 1})
    if len(names) > 1:
        with pytest.raises(TypeError):
            cls(values[0], **{names[0]: values[0]}, **dict(zip(names[1:], values[1:])))
    # equality within the class only, never with a bare tuple or another record
    y = cls(*other)
    assert x != y and not x == y
    assert x != values and x.__eq__(values) is NotImplemented
    assert x != SimpleNamespace(**dict(zip(names, values)))
    for cls2, _, values2, _, _ in VALUE_CLASSES:
        if cls2 is not cls:
            assert x != cls2(*values2)
    if cls is cli.TableDocument:
        # the one mutable record: main fills in provenance; it is unhashable
        x.provenance = "q"
        assert x.provenance == "q" and x != cls(*values)
        with pytest.raises(TypeError):
            hash(x)
        return
    # the hash is that of the field tuple (a dict field makes both raise)
    assert _hash_or_error(x) == _hash_or_error(values)
    for name in names + ("extra",):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
        with pytest.raises(AttributeError):
            delattr(x, name)
    assert tuple(getattr(x, name) for name in names) == values
    if cls in ORDERED:
        assert x < y and y > x and x <= x and x >= x
        assert sorted([y, x]) == [x, y]
    else:
        with pytest.raises(TypeError):
            x < y  # noqa: B015
    with pytest.raises(TypeError):
        x < values  # noqa: B015


def test_value_class_defaults_and_order():
    assert exactlin.QuotientStructure(3) == exactlin.QuotientStructure(free_rank=3, torsion=())
    assert exactlin.QuotientStructure(torsion=(2,), free_rank=1).torsion == (2,)
    doc = cli.TableDocument(rows=[[1]], title="t", columns=["v"])
    assert (doc.title, doc.columns, doc.rows, doc.provenance) == ("t", ["v"], [[1]], "")
    assert cli.TableDocument("t", [], []).provenance == ""
    with pytest.raises(TypeError):
        exactlin.QuotientStructure()
    with pytest.raises(TypeError):
        cli.TableDocument("t", [])
    # order is the order of the field tuples
    necks = [cyclic.Necklace(w) for w in [(1, 2, 2), (1, 1, 2), (1, 2)]]
    assert sorted(necks) == [cyclic.Necklace(w) for w in [(1, 1, 2), (1, 2), (1, 2, 2)]]
    monos = [freelie.HallMonomial(n, w) for n, w in [(3, (1, 2)), (2, (1, 2)), (2, (1, 1, 2))]]
    assert [(m.n, m.word) for m in sorted(monos)] == [(2, (1, 1, 2)), (2, (1, 2)), (3, (1, 2))]
    with pytest.raises(TypeError):
        necks[0] < monos[0]  # noqa: B015
    # equal records are interchangeable as keys
    assert {cyclic.Necklace((1, 2)): 1}[cyclic.Necklace([1.0, 2])] == 1


def test_value_class_post_init_refusals():
    refused = [
        (lambda: cyclic.Necklace(()), "empty necklace"),
        (lambda: cyclic.Necklace((2, 1)), "not a minimal rotation"),
        (lambda: exactlin.QuotientStructure(-1), "negative free rank"),
        (lambda: exactlin.QuotientStructure(0, (4, 2)), "divisibility chain"),
        (lambda: exactlin.QuotientStructure(0, (1,)), "must exceed 1"),
        (lambda: freelie.HallMonomial(2, (1, 3)), "out of range"),
        (lambda: freelie.HallMonomial(2, (2, 1)), "not a basis word"),
        (lambda: grouppres.Presentation(("a", "a"), ()), "repeated generator name 'a'"),
        (lambda: grouppres.Presentation(("a",), ((("b", 1),),)), "undeclared generator 'b'"),
        (lambda: grouppres.Presentation(("a",), ((("a", 2),),)), r"exponents \+1/-1"),
    ]
    for make, message in refused:
        with pytest.raises(ValueError, match=message):
            make()
    with pytest.raises(ValueError, match="not an integer"):
        cyclic.Necklace((1, 2.5))
    # __post_init__ normalises what it is given
    assert type(cyclic.Necklace((1.0, 2)).word[0]) is int
    assert exactlin.QuotientStructure(2.0, [2]).torsion == (2,)
    p = grouppres.Presentation(["a"], [[("a", 1.0)]])
    assert p.generators == ("a",) and p.relators == ((("a", 1),),)
    assert type(p.relators[0][0][1]) is int


def test_image_basis_is_a_plain_mutable_object():
    blocks = {}
    x = johnson.ImageBasis(3, 2, blocks)
    assert johnson.ImageBasis(n=3, k=2, blocks=blocks).blocks is blocks
    assert repr(x) == "ImageBasis(n=3, k=2)"
    # compared and hashed by identity
    assert x == x and x != johnson.ImageBasis(3, 2, blocks)
    assert hash(x) == object.__hash__(x)
    assert not x._solver.blocks and x._solver is not johnson.ImageBasis(3, 2, {})._solver
    assert x.dim == 0 and x.block_dim((1, 1, 0)) == 0

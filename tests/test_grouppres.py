import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from _reference import principal_cocycle
from lietrace.exactlin import QuotientStructure, quotient_structure
from lietrace.grouppres import (
    InconsistencyError,
    LatticeAction,
    Presentation,
    _coboundaries,
    abelianization,
    builtin,
    evaluate_cocycle,
    h1_twisted,
    h2_psigma_rank,
    parse_presentation,
    standard_action,
    trivial_action,
    z1_basis,
)


def _mccool_family_counts(n):
    # the three relator families: [K_ij, K_kj], [K_ij, K_kl] on four distinct
    # letters, and [K_ik, K_ij K_kj]
    return (
        n * (n - 1) * (n - 2) // 2,
        n * (n - 1) * (n - 2) * (n - 3) // 2,
        n * (n - 1) * (n - 2),
    )


def test_mccool_counts():
    p = builtin("mccool", 3)
    assert len(p.generators) == 6
    assert _mccool_family_counts(3) == (3, 0, 6)
    assert len(p.relators) == 9
    for n in range(3, 7):
        pn = builtin("mccool", n)
        total = n * n * (n - 1) * (n - 2) // 2
        assert len(pn.relators) == total == sum(_mccool_family_counts(n))


def test_bp_generator_count():
    for n in (3, 5):
        p = builtin("bp", n)
        assert len(p.generators) == 2 * (n - 1)
    assert len(builtin("braid", 4).generators) == 3


@pytest.mark.parametrize("n", range(3, 9))
def test_bp_is_braid_and_symmetric_and_mixed(n):
    # BP_n is presented by the braid relations, the permutation relations and
    # the mixed ones (Fenn-Rimanyi-Rourke), in that order
    braid, sym, bp = builtin("braid", n), builtin("symmetric", n), builtin("bp", n)
    assert bp.generators == braid.generators + sym.generators
    head = braid.relators + sym.relators
    assert bp.relators[: len(head)] == head
    # BP1 on the pairs |i - j| >= 2, then BP2 and BP3 on consecutive pairs
    assert len(bp.relators) == len(head) + (n - 2) * (n - 3) + 2 * (n - 2)
    # sigma_1 sigma_2 sigma_1 (sigma_2 sigma_1 sigma_2)^-1
    assert braid.relators[0] == tuple(zip(["sigma1", "sigma2"] * 3, [1, 1, 1, -1, -1, -1]))


def test_presentation_validates_generators():
    with pytest.raises(ValueError):
        Presentation(("a",), ((("b", 1),),))
    # a repeated name would silently add a free generator: "a a / a a" is Z/2
    with pytest.raises(ValueError, match="repeated generator"):
        Presentation(("a", "a"), ((("a", 1), ("a", 1)),))
    with pytest.raises(ValueError, match="repeated generator"):
        parse_presentation("a b a\na a\n")


@pytest.mark.parametrize("kind", ["bp", "braid", "symmetric"])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_standard_action_well_defined(kind, n):
    builtin_p = builtin(kind, n)
    standard_action(kind, n).validate(builtin_p)


def test_evaluate_cocycle_basics():
    n = 4
    p = builtin("bp", n)
    act = standard_action("bp", n)
    f = principal_cocycle(act, p, (1, -2, 3))
    assert evaluate_cocycle(f, act, ()) == (0, 0, 0)
    for g in ("sigma2", "s1"):
        word = ((g, 1), (g, -1))
        assert evaluate_cocycle(f, act, word) == (0, 0, 0)
    # cocycles built on generators agree with direct evaluation there
    assert evaluate_cocycle(f, act, (("sigma1", 1),)) == f.value("sigma1")


def test_principal_last_generator_formula():
    rng = random.Random(9)
    for n in (3, 4, 5, 6):
        p = builtin("bp", n)
        act = standard_action("bp", n)
        for _ in range(4):
            v = tuple(rng.randint(-6, 6) for _ in range(n - 1))
            f = principal_cocycle(act, p, v)
            img = f.value(f"sigma{n - 1}")
            assert img[:-1] == (0,) * (n - 2)
            assert img[-1] == -(sum(v[:-1]) + 2 * v[-1])
            assert f.value("s1") == f.value("sigma1")


def test_principal_cocycles_satisfy_relators():
    rng = random.Random(13)
    for kind in ("bp", "braid", "symmetric"):
        for n in (3, 5):
            p = builtin(kind, n)
            act = standard_action(kind, n)
            v = tuple(rng.randint(-4, 4) for _ in range(n - 1))
            f = principal_cocycle(act, p, v)
            for rel in p.relators:
                assert evaluate_cocycle(f, act, rel) == (0,) * (n - 1)


@pytest.mark.parametrize("kind", ["bp", "braid", "symmetric"])
def test_coboundaries_read_off_the_action_columns(kind):
    # h1_twisted reads each coboundary off the action matrices; the reference
    # principal_cocycle multiplies them by the basis vector instead
    n = 5
    p, act = builtin(kind, n), standard_action(kind, n)
    vecs = _coboundaries(p, act)
    assert len(vecs) == n - 1
    for t, vec in enumerate(vecs):
        f = principal_cocycle(act, p, tuple(int(i == t) for i in range(n - 1)))
        assert vec == [x for g in p.generators for x in f.value(g)], t


def test_condition_matrix_matches_word_evaluation():
    # the linear system and the word-walking evaluator are independent routes
    from lietrace.grouppres import CrossedHom, cocycle_condition_matrix

    rng = random.Random(27)
    for kind, n in (("bp", 4), ("braid", 5)):
        p = builtin(kind, n)
        act = standard_action(kind, n)
        rows, ncols = cocycle_condition_matrix(p, act)
        r = act.rank
        images = {
            g: tuple(rng.randint(-3, 3) for _ in range(r)) for g in p.generators
        }
        f = CrossedHom(images)
        x = []
        for g in p.generators:
            x.extend(images[g])
        for ridx, rel in enumerate(p.relators):
            direct = evaluate_cocycle(f, act, rel)
            for out_row in range(r):
                row = rows[ridx * r + out_row]
                assert direct[out_row] == sum(v * x[c] for c, v in row.items())


def test_z1_rank_bp():
    # Z1 has rank free rank of H^1 + rank B1 = free + (n - 1); the count is
    # checked against the rational rref rank of the relator conditions, and
    # every vector against those rows over Z
    from _reference import rank
    from lietrace.grouppres import cocycle_condition_matrix

    for kind, free in (("bp", 2), ("braid", 1), ("symmetric", 0)):
        for n in range(3, 10):
            p, act = builtin(kind, n), standard_action(kind, n)
            kernel, ncols = z1_basis(p, act)
            rows, _ = cocycle_condition_matrix(p, act)
            assert len(kernel) == n - 1 + free == ncols - rank(rows, ncols), (kind, n)
            for x in kernel:
                assert all(sum(v * x.get(c, 0) for c, v in row.items()) == 0 for row in rows)


def test_h1_twisted_structures():
    # free parts are stable; the torsion tracks n (equal to Z/4 only at n = 4)
    for n in range(3, 7):
        q = h1_twisted(builtin("bp", n), standard_action("bp", n))
        assert q == QuotientStructure(2, (n,)), (n, q)
        q = h1_twisted(builtin("braid", n), standard_action("braid", n))
        assert q == QuotientStructure(1, (n,)), (n, q)
        q = h1_twisted(builtin("symmetric", n), standard_action("symmetric", n))
        assert q == QuotientStructure(0, (n,)), (n, q)


@pytest.mark.parametrize("n", [9, 18, 30])
def test_h1_twisted_at_large_n(n):
    # sizes the dense Fox walk and Hermite kernel could not reach in seconds
    want = {"bp": QuotientStructure(2, (n,)), "braid": QuotientStructure(1, (n,)),
            "symmetric": QuotientStructure(0, (n,))}
    for kind, q in want.items():
        assert h1_twisted(builtin(kind, n), standard_action(kind, n)) == q, (kind, n)


def test_h1_invariant_under_relator_shuffle():
    rng = random.Random(21)
    p = builtin("bp", 4)
    act = standard_action("bp", 4)
    base = h1_twisted(p, act)
    for _ in range(3):
        rels = list(p.relators)
        rng.shuffle(rels)
        assert h1_twisted(Presentation(p.generators, tuple(rels)), act) == base


def test_h1_trivial_coefficients():
    # rank of Hom(G^ab, Z): 1 for the mixed presentation, n(n-1) free ones
    p = builtin("bp", 4)
    q = h1_twisted(p, trivial_action(p))
    assert q.free_rank == 1 and not q.torsion
    p = builtin("mccool", 3)
    q = h1_twisted(p, trivial_action(p))
    assert q == QuotientStructure(6)
    # H^1(G; Z) = Hom(G^ab, Z), read off the abelianization instead
    kinds = ("bp", "braid", "symmetric", "mccool")
    presentations = [builtin(kind, n) for kind in kinds for n in (3, 4, 5)]
    presentations.append(parse_presentation("a b c\na b a^-1 b^-1\nb^2 c^4\nc^6 a^3\n"))
    for p in presentations:
        assert h1_twisted(p, trivial_action(p)) == QuotientStructure(abelianization(p).free_rank), p


def test_abelianizations():
    for n in (3, 4, 5):
        assert abelianization(builtin("bp", n)) == QuotientStructure(1, (2,))
        assert abelianization(builtin("mccool", n)) == QuotientStructure(n * (n - 1))
        assert abelianization(builtin("braid", n)) == QuotientStructure(1)
        assert abelianization(builtin("symmetric", n)) == QuotientStructure(0, (2,))


def test_h2_values_and_consistency():
    assert h2_psigma_rank(3) == 9
    assert h2_psigma_rank(4) == 48
    assert h2_psigma_rank(5) == 150


def test_bad_action_detected(monkeypatch):
    p = builtin("symmetric", 3)
    bad = LatticeAction(1, {g: ((2,),) for g in p.generators})
    with pytest.raises(ValueError):
        bad.inverse("s1")
    assert LatticeAction(2, {"a": ((2, 1), (1, 1))}).inverse("a") == ((1, -1), (-1, 2))
    with pytest.raises(ValueError, match="singular"):
        LatticeAction(2, {"a": ((1, 2), (2, 4))}).inverse("a")
    bad2 = LatticeAction(1, {g: ((-1,),) for g in p.generators})
    # s_i^2 acts trivially, braid relation too: valid; now break it
    bad2.validate(p)
    p2 = Presentation(("a",), ((("a", 1),),))
    with pytest.raises(InconsistencyError):
        LatticeAction(1, {"a": ((-1,),)}).validate(p2)
    with pytest.raises(InconsistencyError):
        z1_basis(p2, LatticeAction(1, {"a": ((-1,),)}))
    with pytest.raises(InconsistencyError):
        h1_twisted(p2, LatticeAction(1, {"a": ((-1,),)}))
    # a cocycle lattice that misses the coboundaries is caught, not quotiented
    from lietrace import grouppres

    empty_z1 = lambda p, action: ([], len(p.generators) * action.rank)
    monkeypatch.setattr(grouppres, "z1_basis", empty_z1)
    with pytest.raises(InconsistencyError, match="outside the cocycle lattice"):
        h1_twisted(builtin("symmetric", 3), standard_action("symmetric", 3))


def _format_presentation(p):
    # the plain-text format: the generator line, then one relator per line
    lines = [" ".join(p.generators)]
    lines += [" ".join(g if e == 1 else f"{g}^-1" for g, e in rel) for rel in p.relators]
    return "\n".join(lines) + "\n"


def test_presentation_text_roundtrip():
    for kind in ("bp", "mccool", "braid", "symmetric"):
        p = builtin(kind, 4)
        assert parse_presentation(_format_presentation(p)) == p
    text = "a b\n# a comment line\na b a^-1 b^-1\nb^2\n"
    p = parse_presentation(text)
    assert p.generators == ("a", "b")
    assert p.relators[0] == (("a", 1), ("b", 1), ("a", -1), ("b", -1))
    assert p.relators[1] == (("b", 1), ("b", 1))
    assert abelianization(p) == QuotientStructure(1, (2,))


def _parse_by_definition(text):
    """The format read token by token into a checked Presentation: each
    name^k becomes |k| letters of sign k, a k that is no integer is refused
    with its token and file line, and Presentation refuses the rest."""
    lines = [(no, ln.strip()) for no, ln in enumerate(text.splitlines(), 1)]
    lines = [(no, ln) for no, ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty presentation file")
    rels = []
    for no, ln in lines[1:]:
        word = []
        for tok in ln.split():
            name, exp = (tok.split("^", 1)[0], tok.split("^", 1)[1]) if "^" in tok else (tok, "1")
            try:
                exp = int(exp)
            except ValueError:
                raise ValueError(f"line {no}: exponent of {tok!r} is not an integer") from None
            word += [(name, 1 if exp > 0 else -1)] * abs(exp)
        rels.append(word)
    return Presentation(lines[0][1].split(), rels)


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


_TOKENS = st.sampled_from(["a", "b", "c", "a^-1", "b^2", "c^-3", "a^0", "d", "b^x", "a^"])


@given(
    st.lists(st.sampled_from(["a", "b", "c", "a"]), min_size=0, max_size=4),
    st.lists(st.lists(_TOKENS, max_size=6), max_size=5),
)
def test_parse_presentation_matches_its_definition(gens, rels):
    text = "\n".join([" ".join(gens)] + [" ".join(r) for r in rels] + ["# a comment", ""])
    got = _outcome(parse_presentation, text)
    assert got == _outcome(_parse_by_definition, text)
    if isinstance(got, Presentation):
        # exponent-sum rows, dense, against the sparse one-pass rows
        dense = [[sum(e for g, e in rel if g == x) for x in got.generators] for rel in got.relators]
        assert abelianization(got) == quotient_structure(len(got.generators), dense)


def test_parse_presentation_refusals():
    # each refusal keeps its message; a bad exponent anywhere comes first, then
    # a repeated name, then the first undeclared generator
    cases = [
        ("", "empty presentation file"),
        ("# only a comment\n\n", "empty presentation file"),
        ("a b a\na\n", "repeated generator name 'a'"),
        ("a b\na c d\n", "relator uses undeclared generator 'c'"),
        ("a b\na^1.5\n", "line 2: exponent of 'a^1.5' is not an integer"),
        ("a b\nb^\n", "line 2: exponent of 'b^' is not an integer"),
        ("a a\nc\nb^x\n", "line 3: exponent of 'b^x' is not an integer"),
        # the line is the file's own: comments and blank lines count
        ("# gens\na b\n\n# rels\na b^x\n", "line 5: exponent of 'b^x' is not an integer"),
        ("a b\nb^x\na\nb^x\n", "line 2: exponent of 'b^x' is not an integer"),
        ("a\na^\n", "line 2: exponent of 'a^' is not an integer"),
        ("a b\nb a^1.5\n", "line 2: exponent of 'a^1.5' is not an integer"),
        ("a a\nc\n", "repeated generator name 'a'"),
        ("a\nc^0 b^2 d\n", "relator uses undeclared generator 'b'"),
    ]
    for text, message in cases:
        with pytest.raises(ValueError) as exc:
            parse_presentation(text)
        assert str(exc.value) == message, text
    # the ^0 letter of an undeclared name is dropped, not refused
    assert parse_presentation("a\nc^0 a^-2\n").relators == ((("a", -1), ("a", -1)),)
    # exponents other than +1/-1 are refused when a Presentation is built directly
    with pytest.raises(ValueError, match=r"store relators with exponents \+1/-1"):
        Presentation(("a",), ((("a", 2),),))

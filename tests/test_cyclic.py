import itertools

import pytest
from hypothesis import given, strategies as st

from _reference import rotations, rref
from lietrace import _words, cyclic, exactlin
from lietrace._words import InconsistencyError
from lietrace.cyclic import (
    CyclicElement,
    JElement,
    JModule,
    QuotientMode,
    cyclic_rank,
    j_project,
    j_rank,
    mode_width,
    project_cyclic,
    reduce,
)
from lietrace.exactlin import smith_normal_form
from lietrace.freelie import LieElement, embed_tensor, hall_basis


def test_canonicalize_examples():
    assert CyclicElement(2, 2, {(2, 1): 1}).terms == {(1, 2): 1}
    assert CyclicElement(2, 4, {(1, 2, 1, 2): 1}).terms == {(1, 2, 1, 2): 1}


@given(st.lists(st.integers(1, 3), min_size=1, max_size=7))
def test_canonicalize_rotation_invariant(letters):
    w = tuple(letters)
    canon = _words.min_rotation(w)
    for rot in rotations(w):
        assert _words.min_rotation(rot) == canon
        assert CyclicElement(3, len(w), {rot: 1}).terms == {canon: 1}
    # idempotent
    assert _words.min_rotation(canon) == canon


def test_necklace_keys_are_least_rotations():
    for degree, terms, text in [
        (3, {(2, 1, 2): 1}, "1*(1,2,2)"),
        (3, {(2, 1, 1): 2, (2, 2, 1): -1}, "2*(1,1,2) - 1*(1,2,2)"),
        (2, {(2, 1): -3}, "-3*(1,2)"),  # a leading negative term keeps its sign on the coefficient
    ]:
        assert repr(CyclicElement(2, degree, terms)) == text


def test_elements_refuse_keys_off_the_alphabet():
    # a letter outside 1..n, or a J column outside 0..size-1, is refused
    # rather than carried along (and, for J, failing only when printed)
    with pytest.raises(ValueError, match="letters out of range"):
        CyclicElement(2, 3, {(1, 2, 5): 1, (0, 0, 3): 2})
    for word in ((1, 2, 5), (0, 0, 3), (3, 1, 1)):
        with pytest.raises(ValueError, match="letters out of range"):
            CyclicElement(2, 3, {word: 1})
    assert CyclicElement(2, 3, {(2, 1, 2): 1}).terms == {(1, 2, 2): 1}
    size = JModule.get(3).size
    for col in (999, size, -1):
        with pytest.raises(ValueError, match="column out of range"):
            JElement(3, {col: 1})
    assert repr(JElement(3, {0: 0, size - 1: 0})) == "0"
    assert JElement(3, {col: 1 for col in range(size)}).n == 3


def test_rotations_of_one_necklace_add_up():
    e = CyclicElement(3, 2, {(1, 2): 1, (2, 1): 1})
    assert e.terms == {(1, 2): 2}
    assert CyclicElement(3, 2, [((1, 2), 1), ((2, 1), -1)]).is_zero()


def test_project_examples():
    e = LieElement(2, 2, {hall_basis(2, 2)[0]: 1})
    assert project_cyclic(embed_tensor(e)).is_zero()
    from lietrace.freelie import TensorElement

    t = TensorElement(2, 2, {(2, 1): 1})
    assert project_cyclic(t).terms == {(1, 2): 1}


@pytest.mark.parametrize("n,kmax", [(2, 6), (3, 6)])
def test_projection_kills_all_basis_monomials(n, kmax):
    for k in range(2, kmax + 1):
        for word in hall_basis(n, k):
            e = LieElement(n, k, {word: 1})
            assert project_cyclic(embed_tensor(e)).is_zero()


def test_cyclic_rank_examples():
    for n in (2, 3, 4, 5, 6):
        assert cyclic_rank(n, 2, "full") == n * (n + 1) // 2
        assert cyclic_rank(n, 3, "bar") == n * (n**2 - 1) // 3
    assert cyclic_rank(2, 4, "tilde") == 2


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cyclic_rank_vs_enumeration(n):
    for k in range(1, 9 if n < 4 else 7):
        necks = {
            _words.min_rotation(w)
            for w in itertools.product(range(1, n + 1), repeat=k)
        }
        assert cyclic_rank(n, k, "full") == len(necks)
        assert cyclic_rank(n, k, "bar") == sum(1 for w in necks if len(set(w)) > 1)
        assert cyclic_rank(n, k, "tilde") == sum(
            1 for w in necks if any(w.count(c) == 1 for c in set(w))
        )


def test_reduce_examples():
    power = CyclicElement(2, 4, {(1, 1, 1, 1): 1})
    assert reduce(power, "bar").is_zero()
    killed = CyclicElement(2, 4, {(1, 2, 1, 2): 1, (1, 1, 2, 2): 2})
    assert reduce(killed, "tilde").is_zero()
    survivor = CyclicElement(3, 3, {(1, 2, 3): 1})
    assert reduce(survivor, "tilde") == survivor
    assert reduce(survivor, QuotientMode.FULL) == survivor


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_reduce_keeps_the_classes_mode_width_counts(n):
    # one keep rule: reduce keeps a necklace iff its content class has a
    # positive mode_width, and the necklaces kept number cyclic_rank
    for k in range(1, 7):
        necks = {
            _words.min_rotation(w)
            for w in itertools.product(range(1, n + 1), repeat=k)
        }
        full = CyclicElement(n, k, {neck: 1 for neck in necks})
        for mode in QuotientMode:
            kept = reduce(full, mode).terms
            for neck in necks:
                width = mode_width(_words.word_content(neck, n), mode)
                assert (neck in kept) == (width > 0), (n, k, mode, neck)
            assert len(kept) == cyclic_rank(n, k, mode), (n, k, mode)


def test_necklace_count_matches_enumeration():
    for content in [(2, 2), (3, 1), (2, 2, 2), (3, 2, 1), (4, 2)]:
        assert _words.necklace_count(content) == len(
            _words.necklaces_of_content(content)
        )


def test_j_rank_closed_form():
    for n in range(2, 6):
        assert j_rank(n) == n * n * (n * n - 1) // 12


def test_j_degenerate_and_relations():
    assert j_project(3, 1, 1, 2, 3).is_zero()
    import random

    rng = random.Random(3)
    for _ in range(25):
        v, w, x, y = (rng.randint(1, 4) for _ in range(4))
        rel = (
            j_project(4, v, w, x, y)
            - j_project(4, x, w, v, y)
            - j_project(4, v, x, w, y)
        )
        assert rel.is_zero(), (v, w, x, y)
        sym = j_project(4, v, w, x, y) - j_project(4, x, y, v, w)
        assert sym.is_zero(), (v, w, x, y)


def test_j_rank_from_explicit_quotient():
    # spanning-set size minus relation rank, recomputed from the module itself
    for n in range(2, 6):
        mod = JModule.get(n)
        w = n * (n - 1) // 2
        assert mod.size == w * w
        assert mod.rank == j_rank(n)


def test_j_relation_lattice_saturated():
    # a second route to J's unit-pivot check: every Smith divisor of the
    # relation lattice is 1, so J is torsion free
    for n in range(2, 7):
        mod = JModule.get(n)
        divisors = smith_normal_form([dict(r) for r in mod._relations], ncols=mod.size)
        assert divisors == [1] * (mod.size - mod.rank), n


def test_j_refuses_a_relation_without_a_unit_pivot(monkeypatch):
    # a relation row left in the core could carry a Smith divisor above 1 and
    # make J's coordinates rational: JModule raises instead
    unit_pivots = exactlin._unit_pivots

    def one_core_row(rows):
        pivots, core = unit_pivots(rows)
        return pivots[:-1], [*core, pivots[-1][1]]

    monkeypatch.setattr(cyclic.exactlin, "_unit_pivots", one_core_row)
    with pytest.raises(InconsistencyError, match="no unit pivot"):
        JModule(3)


def test_j_pivot_rows_are_the_reference_rref():
    # a second route to J's reduced relations that shares no elimination code
    # with the unit pivots: the Fraction Gauss-Jordan of the tests
    for n in range(2, 8):
        mod = JModule.get(n)
        pivots, reduced = rref([dict(r) for r in mod._relations], mod.size)
        assert sorted(mod._pivot_rows) == pivots, n
        assert [mod._pivot_rows[c] for c in pivots] == reduced, n
        assert all(type(v) is int for row in mod._pivot_rows.values() for v in row.values())

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import given, strategies as st

from _reference import rank, rref
from lietrace import exactlin
from lietrace._words import InconsistencyError
from lietrace.exactlin import (
    IncrementalSpan,
    QuotientStructure,
    hermite_row_reduce,
    incremental_rank,
    invariant_factors_from_parts,
    kernel_basis,
    quotient_structure,
    smith_normal_form,
)

small_matrix = st.lists(
    st.lists(st.integers(-4, 4), min_size=1, max_size=4),
    min_size=1,
    max_size=4,
).filter(lambda rows: len({len(r) for r in rows}) == 1)

# tall and wide shapes whose first column is zero, so the first Hermite pivot
# lies off the diagonal and the Smith loop has to go through the transpose
zero_led_matrix = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(2, 3)),
    st.tuples(st.integers(1, 3), st.integers(2, 6)),
).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-4, 4), min_size=shape[1] - 1, max_size=shape[1] - 1),
        min_size=shape[0],
        max_size=shape[0],
    ).map(lambda rows: [[0, *r] for r in rows])
)


def test_rank_examples():
    assert rank([[1, 0], [0, 1]], 2) == 2
    assert rank([[0, 0], [0, 0]], 2) == 0
    assert rank([[1, 2], [2, 4], [0, 1]], 2) == 2
    assert rank([{0: 1, 3: 2}, {3: 4, 0: 2}], 4) == 1


def test_kernel_examples():
    kb = kernel_basis([[1, -1]], 2)
    assert len(kb) == 1
    assert kb[0].get(0) == kb[0].get(1) != 0
    assert kernel_basis([[1, 0], [0, 1]], 2) == []
    kb = kernel_basis([[2, 4]], 2)
    assert len(kb) == 1
    assert kb == [{1: 1, 0: -2}]


def _exact(rows):
    return all(type(v) in (int, Fraction) for row in rows for v in row.values())


def test_rational_reference_is_exact():
    # non-unit pivots: a float reciprocal would still pass the equalities
    # (2.0 == 2), so _exact pins the value types
    pivots, reduced = rref([[2, 4]], 2)
    assert pivots == [0] and reduced == [{0: 1, 1: 2}] and _exact(reduced)
    pivots, reduced = rref([[3, 1], [1, 2]], 2)
    assert pivots == [0, 1] and reduced == [{0: 1}, {1: 1}] and _exact(reduced)
    pivots, reduced = rref([{0: 3, 2: 1}, {1: 5, 2: 2}], 3)
    assert reduced == [{0: 1, 2: Fraction(1, 3)}, {1: 1, 2: Fraction(2, 5)}]
    assert _exact(reduced)
    assert type(rank([[3, 1], [1, 2]], 2)) is int
    # the kernel is that of the reduced rows, scaled to primitive integers:
    # (-1/3, -2/5, 1) times 15
    kb = kernel_basis([{0: 3, 2: 1}, {1: 5, 2: 2}], 3)
    assert _items(kb) == [[(2, int, 15), (0, int, -5), (1, int, -6)]]
    assert _items(kernel_basis([[2, 4]], 2)) == [[(1, int, 1), (0, int, -2)]]


def _kernel_by_rref(rows, ncols):
    # the rational reference: one vector per free column of the reduced rows,
    # scaled to its primitive integer multiple, positive at the free column
    pivots, reduced = rref(rows, ncols)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = {free: Fraction(1)}
        for p, row in zip(pivots, reduced):
            a = row.get(free)
            if a:
                vec[p] = -a
        den = lcm(*(v.denominator for v in vec.values()))
        num = gcd(*(v.numerator for v in vec.values()))
        basis.append({c: int(v * den) // num for c, v in vec.items()})
    return basis


def _items(basis):
    # values, value types and key order
    return [[(c, type(v), v) for c, v in vec.items()] for vec in basis]


@given(small_matrix)
def test_kernel_basis_is_the_rref_kernel(rows):
    ncols = len(rows[0])
    assert _items(kernel_basis(rows, ncols)) == _items(_kernel_by_rref(rows, ncols))


def test_kernel_basis_is_the_rref_kernel_on_t0530_blocks(monkeypatch):
    # every trace-block kernel that check_T0530 asks for at n = 3, k <= 7
    from lietrace import johnson

    calls = []

    def recorded(rows, ncols):
        calls.append((list(rows), ncols))
        return kernel_basis(*calls[-1])

    monkeypatch.setattr(exactlin, "kernel_basis", recorded)
    for k in range(1, 8):
        assert johnson.check_T0530(3, k).ok
    assert len(calls) == 16 and sum(ncols for _, ncols in calls) == 233  # one per orbit
    for rows, ncols in calls:
        assert _items(kernel_basis(rows, ncols)) == _items(_kernel_by_rref(rows, ncols))


@given(small_matrix)
def test_rank_plus_nullity(rows):
    ncols = len(rows[0])
    assert rank(rows, ncols) + len(kernel_basis(rows, ncols)) == ncols


@given(small_matrix)
def test_kernel_vectors_annihilate(rows):
    for vec in kernel_basis(rows, len(rows[0])):
        assert all(type(v) is int for v in vec.values())
        for row in rows:
            assert sum(row[c] * v for c, v in vec.items()) == 0


def test_span_insert_examples():
    s = IncrementalSpan(2)
    assert s.insert({0: 1})
    assert not s.insert({0: 1})
    assert s.dim == 1
    s = IncrementalSpan(2)
    assert s.insert({0: 1, 1: 1})
    assert s.insert({0: 1, 1: -1})
    assert s.dim == 2


def test_span_rejects_out_of_range():
    s = IncrementalSpan(2)
    with pytest.raises(ValueError):
        s.insert({5: 1})
    # a float or bool column is refused, not truncated to a valid one
    for col in (1.5, 1.0, True):
        with pytest.raises(ValueError):
            s.insert({col: 1})
        with pytest.raises(ValueError):
            rank([{col: 1}], 2)
    assert s.dim == 0


def test_span_sums_never_increase_dim():
    rng = random.Random(11)
    vecs = [
        {j: rng.randint(-3, 3) for j in range(6)}
        for _ in range(5)
    ]
    s = IncrementalSpan(6)
    for v in vecs:
        s.insert(dict(v))
    base = s.dim
    for a, b in combinations(range(len(vecs)), 2):
        sums = {j: vecs[a].get(j, 0) + vecs[b].get(j, 0) for j in range(6)}
        assert not s.insert(sums)
    assert s.dim == base


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=6),
       st.randoms(use_true_random=False))
def test_span_order_independence(rows, rnd):
    s1 = IncrementalSpan(4)
    for r in rows:
        s1.insert({i: v for i, v in enumerate(r)})
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    s2 = IncrementalSpan(4)
    for r in shuffled:
        s2.insert({i: v for i, v in enumerate(r)})
    assert s1.dim == s2.dim
    # same row space both ways
    for r in rows:
        assert s2.contains({i: v for i, v in enumerate(r)})


@given(st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=1, max_size=6))
def test_span_rows_are_a_basis_in_insertion_order(rows):
    s = IncrementalSpan(4)
    accepted = [r for r in rows if s.insert({i: v for i, v in enumerate(r) if v})]
    stored = s.rows()
    assert len(stored) == s.dim == rank(stored, 4)
    # row j is the j-th accepted vector reduced by the rows before it
    prefix = IncrementalSpan(4)
    for row, r in zip(stored, accepted):
        assert prefix.insert({i: v for i, v in enumerate(r) if v})
        assert prefix.contains(row)
    # a span of the stored rows alone is the same space
    again = IncrementalSpan(4)
    assert all(again.insert(dict(row)) for row in stored)
    assert all(again.contains({i: v for i, v in enumerate(r)}) for r in rows)


def _dot(a, b):
    return sum(v * b.get(c, 0) for c, v in a.items())


def test_span_kernel_certificate():
    rows = [{0: 2, 1: 4, 3: 6}, {1: 3, 2: -1, 5: 2}, {0: 1, 2: 5, 5: 1}]
    s = IncrementalSpan(7)
    for r in rows:
        s.insert(r)
    cols = {0, 1, 2, 3, 5, 6}
    ker = s.kernel(cols)
    assert len(ker) == len(cols) - s.dim == 3
    for x in ker:
        assert set(x) <= cols
        assert gcd(*x.values()) == 1
        assert all(_dot(r, x) == 0 for r in rows)
    assert rank(ker, 7) == len(ker)
    assert IncrementalSpan(3).kernel([2, 0]) == [{0: 1}, {2: 1}]


def test_span_kernel_rejects_rows_outside_cols():
    s = IncrementalSpan(4)
    s.insert({0: 1, 3: 2})
    with pytest.raises(ValueError):
        s.kernel({0, 1, 2})


def test_span_kernel_checks_its_basis():
    # a stored pivot changed after insertion gives back substitution a wrong
    # scale, so a vector comes out off the kernel; the final check catches it
    s = IncrementalSpan(4)
    for r in ({0: 1, 1: 1}, {1: 2, 2: 3, 3: 1}):
        s.insert(r)
    assert len(s.kernel(range(4))) == 2
    c, (p, row) = next(iter(s._rows.items()))
    s._rows[c] = (p + 1, row)
    with pytest.raises(InconsistencyError, match="not orthogonal"):
        s.kernel(range(4))


@st.composite
def low_rank_rows(draw):
    """Rows of B*C with a small inner dimension, plus duplicated and scaled rows."""
    ncols = draw(st.integers(1, 7))
    inner = draw(st.integers(1, 3))
    entries = st.integers(-3, 3)
    c = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols),
                      min_size=inner, max_size=inner))
    b = draw(st.lists(st.lists(entries, min_size=inner, max_size=inner),
                      min_size=1, max_size=10))
    rows = [[sum(x * ct[j] for x, ct in zip(brow, c)) for j in range(ncols)] for brow in b]
    copies = draw(st.lists(st.tuples(st.integers(0, len(rows) - 1),
                                     st.sampled_from([1, -1, 2, -3])), max_size=10))
    rows += [[f * v for v in rows[i]] for i, f in copies]
    return ncols, [{j: v for j, v in enumerate(r) if v} for r in rows]


@given(low_rank_rows())
def test_incremental_rank_matches_rational_rank(case):
    ncols, rows = case
    assert incremental_rank(rows, ncols) == rank(rows, ncols)


def test_incremental_rank_certificate_path(monkeypatch):
    calls = []
    kernel = IncrementalSpan.kernel

    def spy(self, cols):
        calls.append(self.dim)
        return kernel(self, cols)

    monkeypatch.setattr(IncrementalSpan, "kernel", spy)
    # two arithmetic progressions span every progression; four dependent rows
    # (more than the codimension 2) bring in the kernel, and the last row,
    # not a progression, must still be found independent
    rows = [(1, 1, 1, 1), (1, 2, 3, 4), (2, 3, 4, 5), (3, 4, 5, 6),
            (4, 5, 6, 7), (5, 7, 9, 11), (6, 9, 12, 15), (1, 2, 3, 5)]
    rows = [dict(enumerate(r)) for r in rows]
    assert incremental_rank(rows, 4) == 3
    assert calls == [2]


def test_incremental_rank_takes_dense_rows():
    # dense list rows are read as {col: int} dicts before their columns are
    # taken: the columns of [1, 2] are 0 and 1, not its values 1 and 2, and
    # the kernel skip reads the repeated rows as dicts
    assert incremental_rank([[1, 2], [1, 2], [1, 2]], 2) == 1
    assert incremental_rank([{0: 1, 1: 2}] * 3, 2) == 1
    rows = [[1, 1, 1, 1], [1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6],
            [4, 5, 6, 7], [5, 7, 9, 11], [6, 9, 12, 15], [1, 2, 3, 5], [0, 0, 0, 0]]
    assert incremental_rank(rows, 4) == 3 == rank(rows, 4)


def test_incremental_rank_inserts_through_the_span(monkeypatch):
    # every row reaches the span through IncrementalSpan.insert, which
    # checks it (perfbench times the span's inserts there), and a dict row
    # with a value that is not an int is refused, skipped by the kernel or not
    calls = []
    insert = IncrementalSpan.insert

    def spy(self, vec):
        calls.append(dict(vec))
        return insert(self, vec)

    monkeypatch.setattr(IncrementalSpan, "insert", spy)
    rows = [{0: 1, 1: 2}, {0: 2, 1: 4}, {0: 3, 1: 6}, {0: 1, 1: 3}]
    assert incremental_rank(rows, 2) == 2
    assert calls == rows
    bad = {0: 2, 1: 4.0}
    for given in ([rows[0], bad], rows[:3] + [bad]):  # inserted, then past the kernel
        with pytest.raises(ValueError):
            incremental_rank(given, 2)


@given(low_rank_rows())
def test_incremental_rank_with_its_rank_as_bound(case):
    # given a bound, the rows are read lazily in their own order and reading
    # stops at the bound: with the true rank as bound, the rank comes back
    # and no row after the one that reaches it is made
    ncols, rows = case
    r = rank(rows, ncols)
    read = []

    def lazily():
        for row in rows:
            read.append(row)
            yield row

    assert incremental_rank(lazily(), ncols, bound=r) == r
    assert rank(read, ncols) == r
    assert r == 0 or rank(read[:-1], ncols) == r - 1


def test_smith_examples():
    assert smith_normal_form([[2, 0], [0, 0]]) == [2]
    assert smith_normal_form([[2, 1], [1, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]


def _minors_gcd(rows, r):
    """gcd of the r x r minors of dense rows, by cofactor expansion."""
    g = 0
    for ris in combinations(range(len(rows)), r):
        for cis in combinations(range(len(rows[0])), r):
            g = gcd(g, _det([[rows[i][j] for j in cis] for i in ris]))
    return g


def _minor_gcd_divisors(rows):
    """Naive oracle: products of the first r divisors from r x r minor gcds."""
    prods = []
    for r in range(1, min(len(rows), len(rows[0])) + 1):
        g = _minors_gcd(rows, r)
        if g == 0:
            break
        prods.append(g)
    divisors = []
    prev = 1
    for p in prods:
        divisors.append(p // prev)
        prev = p
    return divisors


def _det(a):
    if len(a) == 1:
        return a[0][0]
    return sum(
        (-1) ** j * a[0][j] * _det([row[:j] + row[j + 1 :] for row in a[1:]])
        for j in range(len(a))
    )


@given(st.one_of(small_matrix, zero_led_matrix))
def test_smith_matches_minor_gcd_oracle(rows):
    got = smith_normal_form(rows)
    assert got == _minor_gcd_divisors(rows)
    for a, b in zip(got, got[1:]):
        assert b % a == 0


def test_normal_forms_reject_non_integer_entries():
    # every entry point takes int entries only: it never truncates a float,
    # reads a bool as 1 or clears a Fraction's denominator, even Fraction(4, 2)
    entry_points = (
        lambda bad: IncrementalSpan(2).insert({0: bad}),
        lambda bad: IncrementalSpan(2).contains({1: bad}),
        lambda bad: incremental_rank([{0: 1, 1: bad}], 2),
        # past the span kernel, where a row orthogonal to it is not inserted
        lambda bad: incremental_rank([{0: 1, 1: 1}, {0: 2, 1: 2}, {0: 3, 1: 3}, {0: bad, 1: bad}], 2),
        lambda bad: kernel_basis([{0: 1, 1: bad}], 2),
        lambda bad: smith_normal_form([{0: bad}], 2),
        lambda bad: hermite_row_reduce([[bad, 1]], 2),
        lambda bad: quotient_structure(2, [[bad, 0]]),
        lambda bad: rank([[bad, 1]], 2),
        lambda bad: rref([{0: bad}], 2),
    )
    for bad in (True, False, 0.5, 2.7, 0.0, 2.0, Fraction(1, 2), Fraction(4, 2)):
        for i, call in enumerate(entry_points):
            with pytest.raises(ValueError):
                call(bad)
                pytest.fail(f"entry point {i} accepted {bad!r}")


def test_quotient_examples():
    q = quotient_structure(2, [[2, 0]])
    assert q == QuotientStructure(1, (2,))
    assert quotient_structure(4, []) == QuotientStructure(4)
    # reconstruction of the twisted-cohomology coboundary matrix at n = 4
    b4 = [[0, -1, 0, -1, -1], [0, 1, -1, -1, 1], [0, 0, 1, -2, 0]]
    assert smith_normal_form(b4) == [1, 1, 4]
    assert quotient_structure(5, b4) == QuotientStructure(2, (4,))
    # at n = 3 the same construction carries 3-torsion, not 4-torsion
    b3 = [[0, -1, -1, -1], [0, 1, -2, 1]]
    assert smith_normal_form(b3) == [1, 3]
    assert quotient_structure(4, b3) == QuotientStructure(2, (3,))


def test_quotient_structure_validation():
    with pytest.raises(ValueError):
        QuotientStructure(1, (3, 2))
    with pytest.raises(ValueError):
        QuotientStructure(-1)
    assert str(QuotientStructure(2, (4,))) == "Z^2 + Z/4"


def test_invariant_factor_merge():
    assert invariant_factors_from_parts([2, 4, 3]) == (2, 12)
    assert invariant_factors_from_parts([]) == ()
    assert invariant_factors_from_parts([2, 2, 2]) == (2, 2, 2)
    assert invariant_factors_from_parts([6, 4]) == (2, 12)
    # a large prime part merges by gcd/lcm without being factored
    assert invariant_factors_from_parts([2**61 - 1, 6, 4]) == (2, 12 * (2**61 - 1))


def test_parallel_ranks_match_serial():
    # disjoint matrices ranked concurrently give bit-identical results
    from concurrent.futures import ThreadPoolExecutor

    rng = random.Random(19)
    mats = [
        [[rng.randint(-5, 5) for _ in range(6)] for _ in range(5)]
        for _ in range(12)
    ]
    serial = [rank(m, 6) for m in mats]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(rank, mats, [6] * len(mats)))
    assert serial == threaded
    serial_k = [kernel_basis(m, 6) for m in mats]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded_k = list(pool.map(kernel_basis, mats, [6] * len(mats)))
    assert serial_k == threaded_k


def test_hermite_examples():
    rows = hermite_row_reduce([[2, 4], [1, 3]], 2)
    assert rows == [[1, 1], [0, 2]]


def _seeded_matrices():
    """(family, dense rows) for seeded random matrices of up to 5 x 6.

    "units" rows take entries in -1..1, "core" rows in -4..4 without +-1 (so
    no unit pivot exists), "duplicates" repeat rows of -4..4 and "mixed" are
    plain -4..4.
    """
    rng = random.Random(2024)
    pools = {
        "units": (-1, 0, 1),
        "core": (-4, -3, -2, 0, 2, 3, 4),
        "duplicates": tuple(range(-4, 5)),
        "mixed": tuple(range(-4, 5)),
    }
    out = []
    for family, pool in pools.items():
        for _ in range(25):
            m, n = rng.randint(1, 5), rng.randint(1, 6)
            rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
            if family == "duplicates":
                rows = [list(rng.choice(rows)) for _ in range(rng.randint(2, 5))]
            out.append((family, rows))
    return out


def test_smith_second_route_by_determinantal_divisors():
    # d_1 ... d_i is the gcd of the i x i minors; that route reads every
    # minor, not the unit pivots or the Hermite core
    families = set()
    for family, rows in _seeded_matrices():
        assert smith_normal_form(rows, len(rows[0])) == _minor_gcd_divisors(rows), (family, rows)
        families.add(family)
    assert families == {"units", "core", "duplicates", "mixed"}


def test_unit_pivots_structure():
    rows = [{0: 2, 1: 4}, {0: 2, 1: 4}, {1: 3, 2: 1}, {1: 3, 2: 1}, {0: 1, 2: 5}]
    pivots, core = exactlin._unit_pivots(rows)
    # the duplicates go first; x_2 then x_0 are pivots, and the core is the
    # determinant 34 of the three distinct rows
    assert [col for col, _ in pivots] == [2, 0] and core == [{1: 34}]
    seen = set()
    for col, row in pivots:
        assert row[col] in (1, -1) and not seen.intersection(row)
        seen.add(col)
    assert not any(seen.intersection(row) for row in core)
    assert exactlin._unit_pivots([{0: 2, 1: 4}] * 3) == ([], [{0: 2, 1: 4}])

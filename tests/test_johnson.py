import gc
import os
import random
import subprocess
import sys
from collections import Counter
from itertools import permutations
from math import factorial
from pathlib import Path

import pytest

from _reference import from_p_coordinates, principal_cocycle, rank, trace_image_dim_direct
from lietrace import exactlin, freelie, johnson, tangent
from lietrace._words import (
    InconsistencyError,
    add_scaled,
    compositions,
    decode,
    encode,
    lyndon_words_of_content,
    partitions,
    word_content,
)
from lietrace.cli import main
from lietrace.cyclic import CyclicElement, cyclic_rank
from lietrace.exactlin import IncrementalSpan, QuotientStructure, smith_normal_form
from lietrace.freelie import LieElement, ad_enc, multidegree_rank, project_lyndon_enc
from lietrace.grouppres import Presentation, builtin, trivial_action
from lietrace.johnson import (
    _block_trace_rank,
    _p_index,
    c_alpha,
    check_T0530,
    coker_structure,
    johnson_image,
    section7_rows,
    trace_image_dim,
    trace_kernel_dim,
    trace_rank,
    verify_E_generators,
)
from lietrace.tangent import (
    AdSolver,
    NecklaceColumns,
    der_bracket,
    p_basis,
    p_coordinates,
    tangential,
    tau1_generator,
    trace,
    trace_row_enc,
)


def test_image_dims_small():
    dims = [johnson_image(3, k).dim for k in range(1, 6)]
    assert dims == [6, 6, 16, 36, 96]
    assert johnson_image(4, 1).dim == 12
    assert johnson_image(4, 2).dim == 18  # n(n-1)^2/2


def test_image_dims_pinned_n4_k6_and_n5_k5():
    # values of one global span over every composition of the degree, with no
    # orbit rule; a second route for the orbit sum of the block dimensions
    assert johnson_image(4, 6).dim == 2006
    assert johnson_image(5, 5).dim == 2496


def test_image_dims_pinned_n4_k7_and_n5_k6():
    # pinned from the engine that brackets the accepted candidates of each
    # level, before it was changed to bracket the stored span rows
    assert johnson_image(4, 7).dim == 6996
    assert trace_kernel_dim(4, 7) == 7020  # a gap of 24
    # the image is the whole trace kernel here: a second route
    assert johnson_image(5, 6).dim == 10310 == trace_kernel_dim(5, 6)


def test_kernel_dims_small():
    assert [trace_kernel_dim(3, k) for k in range(1, 6)] == [6, 6, 16, 36, 96]
    assert trace_kernel_dim(4, 2) == 18


def test_image_contained_in_kernel():
    for n in (3, 4):
        for k in range(1, 5):
            assert johnson_image(n, k).dim <= trace_kernel_dim(n, k)


def test_image_equals_kernel_through_degree_six():
    for k in range(1, 7):
        assert johnson_image(3, k).dim == trace_kernel_dim(3, k)


def test_c_alpha_rows_through_k6():
    assert (c_alpha(5, (3, 2)).c_alpha, c_alpha(5, (3, 2)).r_alpha) == (2, 0)
    assert (c_alpha(6, (4, 2)).c_alpha, c_alpha(6, (4, 2)).r_alpha) == (2, 0)
    assert (c_alpha(6, (3, 3)).c_alpha, c_alpha(6, (3, 3)).r_alpha) == (3, 0)
    assert (c_alpha(6, (2, 2, 2)).c_alpha, c_alpha(6, (2, 2, 2)).r_alpha) == (15, 1)
    # built on two letters (one has no degree-1 basis): the value at every
    # n >= 2, where trace_rank(n, 1, "full") == n
    assert c_alpha(1, (1,)) == johnson.AlphaReport((1,), 1, 0)


def test_c_alpha_order_insensitive_and_validated():
    assert c_alpha(5, (2, 3)) == c_alpha(5, (3, 2))
    with pytest.raises(ValueError):
        c_alpha(5, (3, 1, 0))
    with pytest.raises(ValueError):
        c_alpha(5, (3, 3))


def test_part_one_contents_are_full_rank(monkeypatch):
    # the singleton rule (r = 0 when a letter occurs once), block by block:
    # every partition of k <= 8 with a part 1 on at most 5 letters; the large
    # singleton stabilizers among them are ranked by pieces
    split = []
    by_pieces = johnson._split_rank
    monkeypatch.setattr(
        johnson, "_split_rank", lambda n, k, *rest: split.append(k) or by_pieces(n, k, *rest)
    )
    _block_trace_rank.cache_clear()  # so every block is ranked here
    blocks = 0
    for k in range(1, 9):
        for alpha in partitions(k, max_parts=5):
            if 1 in alpha:
                assert c_alpha(k, alpha).c_alpha == multidegree_rank(len(alpha), k, alpha), alpha
                blocks += 1
    assert (blocks, len(split)) == (38, 8)


def _split_blocks():
    """(k, content, runs): every partition of k <= 8 into at most six parts
    and of k = 9 into at most five with its runs, the symmetric group S_7 of
    (1^7), a composition whose run is inside, and (2,2,2,2) with three
    subgroups of S_4 in place of its run."""
    for k in range(2, 10):
        for alpha in partitions(k, max_parts=5 if k == 9 else 6):
            yield k, alpha, johnson._letter_runs(alpha)
    for alpha in [(1,) * 7, (1, 2, 2, 2, 1)]:
        yield sum(alpha), alpha, johnson._letter_runs(alpha)
    for runs in ([(1, 3)], [(1, 2), (3, 2)], [(2, 2)]):
        yield 8, (2, 2, 2, 2), runs


def test_split_rank_matches_the_plain_rank():
    # second route: the plain incremental_rank of the block's rows, on every
    # block of _split_blocks that _block_trace_rank would rank by pieces,
    # against the split given every row and, through k = 8, against the
    # split given the rows of _split_letters, with the others on demand
    checked, restricted, more = [], [], []
    for k, content, runs in _split_blocks():
        keys, rows, cols = johnson._trace_block(k, content)
        if cols.ncols < johnson._SPLIT_COLUMNS or not runs:
            continue
        plain = exactlin.incremental_rank(rows, cols.ncols)
        n = max(len(content), 2)
        assert johnson._split_rank(n, k, keys, rows, cols, runs) == plain, (content, runs)
        checked.append(content)
        if k > 8:
            continue
        letters = johnson._split_letters(n, runs)
        first = johnson._trace_block(k, content, letters)
        others = [row for (i, _), row in zip(keys, rows) if i not in letters]
        got = johnson._split_rank(n, k, *first, runs, lambda: more.append(content) or others)
        assert got == plain, (content, runs)
        restricted.append(content)
    assert len(checked) == 29
    assert {(2, 2, 2, 2), (3, 3, 3), (3, 2, 2, 2)} <= set(checked)  # the c/r blocks
    assert len(restricted) == 18 and (2, 2, 2, 2) in restricted
    assert not more  # the rows of _split_letters fill every piece here


def test_split_letters_are_one_per_run_and_the_letters_alone_less_the_least():
    assert johnson._split_letters(4, [(1, 4)]) == [4]
    assert johnson._split_letters(5, [(1, 4)]) == [4]  # letter 5 is the least alone
    assert johnson._split_letters(4, [(2, 2)]) == [3, 4]  # (3,2,2,1): letter 1 is left out
    assert johnson._split_letters(6, [(2, 2), (4, 3)]) == [3, 6]
    assert johnson._split_letters(5, [(2, 3)]) == [4, 5]  # (1,2,2,2,1)


def test_split_reads_the_other_letters_when_a_piece_stops_short(monkeypatch):
    # letter 1 alone gives the trivial and sign pieces of S_5 on (2,1,1,1,1,1)
    # their ranks, but leaves a piece of dimension > 1 below its
    # multiplicity: the split then builds the rows of letters 2..6, once,
    # and still finds the plain rank of all rows
    k, alpha = 7, (2, 1, 1, 1, 1, 1)
    _, rows, cols = johnson._trace_block(k, alpha)
    plain = exactlin.incremental_rank(rows, cols.ncols)
    built = []
    trace_block = johnson._trace_block
    monkeypatch.setattr(johnson, "_split_letters", lambda n, runs: [1])
    monkeypatch.setattr(
        johnson,
        "_trace_block",
        lambda k, content, letters=None: built.append(list(letters)) or trace_block(k, content, letters),
    )
    _block_trace_rank.cache_clear()
    try:
        assert cols.ncols >= johnson._SPLIT_COLUMNS
        assert _block_trace_rank(k, alpha) == plain == 360
    finally:
        _block_trace_rank.cache_clear()
    assert built == [[1], [2, 3, 4, 5, 6]]


def test_trace_rows_of_one_word_sum_to_zero():
    # above degree 1 the rows (i, u) of one Lyndon word u sum to zero over
    # i, the cyclic projection of u: so the plain rank leaves out letter 1,
    # and the split the least letter in no run
    words = 0
    blocks = [(k, c) for k in range(2, 8) for c in compositions(k, 4)] + [(8, (2, 2, 2, 2))]
    for k, content in blocks:
        keys, rows, _ = johnson._trace_block(k, content)
        total: dict = {}
        for (_, u), row in zip(keys, rows):
            add_scaled(total.setdefault(u, {}), row)
        assert not any(total.values()), content
        words += len(total)
    assert words == sum(freelie.witt_rank(4, k) for k in range(2, 8)) + 312


def test_characters_by_murnaghan_nakayama():
    classes = [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    s4 = {
        (4,): [1, 1, 1, 1, 1],
        (3, 1): [3, 1, -1, 0, -1],
        (2, 2): [2, 0, 2, -1, 0],
        (2, 1, 1): [3, -1, -1, 0, 1],
        (1, 1, 1, 1): [1, -1, 1, 1, -1],
    }
    for lam, row in s4.items():
        assert [johnson._character(lam, mu) for mu in classes] == row, lam
    assert [johnson._class_size(mu) for mu in classes] == [1, 6, 3, 8, 6]
    # second route: the rows are orthonormal, up to m!, for every m <= 7
    for m in range(1, 8):
        shapes = list(partitions(m))
        for lam in shapes:
            for nu in shapes:
                inner = sum(
                    johnson._class_size(mu) * johnson._character(lam, mu) * johnson._character(nu, mu)
                    for mu in shapes
                )
                assert inner == (factorial(m) if lam == nu else 0), (lam, nu)


def test_multiplicities_count_the_columns():
    # _multiplicities checks sum dim lam * m_lam == ncols; here it must pass
    # on every block of _split_blocks, whatever its size, and the trivial
    # piece must count the G-orbits of columns (a second route, Burnside)
    for k, content, runs in _split_blocks():
        if not runs:
            continue
        _, _, cols = johnson._trace_block(k, content)
        action = johnson._LetterAction(max(len(content), 2), k, cols, runs)
        sizes = [size for _, size in runs]
        mults = johnson._multiplicities(sizes, action.fixed_columns(), cols.ncols)
        orbit = list(range(cols.ncols))  # union-find by the adjacent transpositions
        for perm in action._swaps.values():
            for c, d in enumerate(perm):
                while orbit[c] != c:
                    c = orbit[c]
                while orbit[d] != d:
                    d = orbit[d]
                orbit[max(c, d)] = min(c, d)
        orbits = sum(c == root for c, root in enumerate(orbit))
        assert mults[tuple((m,) for m in sizes)] == (1, orbits), content
    # a fixed-point count that is no permutation character is refused
    with pytest.raises(InconsistencyError, match="not a count"):
        johnson._multiplicities([2], {((1, 1),): 3, ((2,),): 0}, 3)
    with pytest.raises(InconsistencyError, match="add up"):
        johnson._multiplicities([2], {((1, 1),): 4, ((2,),): 0}, 3)


def test_split_refuses_a_block_that_is_not_stable():
    # the necklace of 123 is a column but that of 213 = 132 is not, so the
    # swap of letters 1 and 2 misses a column
    cols = NecklaceColumns()
    cols.add(encode((1, 2, 3), 4), 3, 4)
    with pytest.raises(InconsistencyError, match="not stable under swapping letters 1 and 2"):
        johnson._split_rank(3, 3, [], [], cols, [(1, 3)])
    # with the necklace of 132 added the block is S_3-stable
    cols.add(encode((1, 3, 2), 4), 3, 4)
    assert johnson._split_rank(3, 3, [], [], cols, [(1, 3)]) == 0


@pytest.mark.parametrize("n,kmax", [(3, 6), (4, 5)])
def test_orbit_sum_matches_direct_rank(n, kmax):
    for k in range(2, kmax + 1):
        assert trace_image_dim(n, k) == trace_image_dim_direct(n, k), (n, k)


@pytest.mark.parametrize(
    "n,k",
    [(3, 1), (3, 2), (3, 3), (3, 4), (3, 5), (3, 6), (4, 1), (4, 2), (4, 3), (4, 4), (5, 3)],
)
def test_trace_rows_match_public_trace(n, k):
    # second route: the public contract -> project_cyclic trace of each basis
    # element, against trace_row_enc and against the block builder's rows
    expected = {
        label: trace(from_p_coordinates(n, k, {label: 1}), "full").terms
        for label in p_basis(n, k)
    }
    traces, necklace = {}, {}  # necklace: (content, column) -> its least code
    for content in compositions(k, n):
        cols, memo = NecklaceColumns.of_content(content), {}
        for w, col in cols.items():
            necklace[content, col] = min(w, necklace.get((content, col), w))
        for u in lyndon_words_of_content(content):
            traces[u] = content, trace_row_enc(n, k, u, cols, memo)
    assert sorted(traces) == sorted({u for _, u in expected})
    for u, (_, rows_of_u) in traces.items():
        assert all((i, u) in expected for i in rows_of_u), u  # rows of labels only
    for (i, u), terms in expected.items():
        content, rows_of_u = traces[u]
        row = rows_of_u.get(i, {})
        got = {decode(necklace[content, col], n + 1, k): c for col, c in row.items()}
        assert got == terms, (i, u)
    # the builder's block matrix is the same up to a permutation of columns
    order = {key: j for j, key in enumerate(expected)}
    seen = []
    for content in compositions(k, n):
        keys, rows, cols = johnson._trace_block(k, content)
        got, want = {}, {}
        for key, row in zip(keys, rows):
            for col, c in row.items():
                got.setdefault(col, set()).add((key, c))
            for neck, c in expected[key].items():
                want.setdefault(neck, set()).add((key, c))
        assert sorted(got) == list(range(cols.ncols))
        assert sorted(map(sorted, got.values())) == sorted(map(sorted, want.values()))
        assert keys == sorted(keys, key=order.get)  # global basis order
        seen += keys
    assert sorted(seen) == sorted(expected)


@pytest.mark.parametrize("n,kmax", [(3, 7), (4, 5), (5, 4)])
def test_coker_free_rank_is_bar_width_minus_image(n, kmax):
    # block widths minus Smith divisors against the rational trace rank
    for k in range(2, kmax + 1):
        free = cyclic_rank(n, k, "bar") - trace_image_dim(n, k)
        assert coker_structure(n, k).free_rank == free, (n, k)


def test_untouched_bar_necklaces_are_free(monkeypatch):
    # within the sizes above every bar necklace meets some trace row, so zero
    # every row: then each one is an untouched column and a free summand
    monkeypatch.setattr(johnson, "trace_row_enc", lambda n, k, u, cols, memo, letters=None: {})
    for n, k in [(3, 3), (4, 4)]:
        assert coker_structure(n, k) == QuotientStructure(cyclic_rank(n, k, "bar"))


def test_full_trace_rank():
    for n in (2, 3, 4):
        # degree 1: x_i* (x) [x_j, x_i] traces to the power necklace -(j)
        assert trace_rank(n, 1, "full") == trace_rank(n, 1, "tilde") == n
        assert trace_rank(n, 1, "bar") == 0
        # above it the trace never meets a power necklace
        for k in range(2, 6):
            assert trace_rank(n, k, "full") == trace_rank(n, k, "bar"), (n, k)
    # one letter has no tangential basis in any degree
    for k in range(1, 6):
        for mode in ("full", "bar", "tilde"):
            assert trace_rank(1, k, mode) == 0, (k, mode)


@pytest.mark.parametrize(
    "build",
    [
        lambda: c_alpha(4, (2.7, 2.2)),
        lambda: c_alpha(4.9, (2, 2)),
        lambda: LieElement(3, 2, {(1.5, 2): 1}),
        lambda: CyclicElement(3, 2, {(1.9, 2): 1}),
        lambda: c_alpha(4, (True, 3)),
        lambda: LieElement(2, 2, {(True, 2): 1}),
        lambda: CyclicElement(2, 2, {(1, True): 1}),
        lambda: QuotientStructure(True),
        lambda: tangential(3, (1, (2.5,))),
        lambda: QuotientStructure(1, (2.5,)),
        lambda: QuotientStructure(1.5),
        lambda: Presentation(("a",), ((("a", 1.5),),)),
        lambda: principal_cocycle(
            trivial_action(builtin("bp", 2)), builtin("bp", 2), (0.5,)
        ),
    ],
    ids=[
        "c_alpha-parts",
        "c_alpha-k",
        "LieElement-key",
        "CyclicElement-key",
        "c_alpha-bool",
        "LieElement-bool",
        "CyclicElement-bool",
        "QuotientStructure-bool",
        "tangential",
        "QuotientStructure-torsion",
        "QuotientStructure-free",
        "Presentation-exponent",
        "principal_cocycle",
    ],
)
def test_non_integral_inputs_raise(build):
    with pytest.raises(ValueError, match="not an integer"):
        build()


def test_integral_valued_inputs_still_accepted():
    assert c_alpha(4.0, (2.0, 2)) == c_alpha(4, (2, 2))
    assert QuotientStructure(1.0, (2.0,)) == QuotientStructure(1, (2,))
    # an integral float letter is stored as an int
    cyc = CyclicElement(2, 2, {(2.0, 1): 1})
    assert repr(cyc) == "1*(1,2)"
    lie = LieElement(2, 2, {(1.0, 2): 1})
    assert lie == LieElement(2, 2, {(1, 2): 1})
    for e in (cyc, lie):
        assert [type(c) for key in e.terms for c in key] == [int, int]


def test_orbit_sum_matches_direct_rank_n4_k6():
    assert trace_image_dim(4, 6) == trace_image_dim_direct(4, 6)


def test_tilde_trace_surjective_small():
    for n in (2, 3):
        for k in range(2, 7):
            assert trace_rank(n, k, "tilde") == cyclic_rank(n, k, "tilde")


def test_coker_degree_one_is_zero():
    # the degree-1 bar target is 0, so there is no block and no cokernel
    for n in range(2, 6):
        assert coker_structure(n, 1) == QuotientStructure(0)


def test_coker_structures_small():
    for n in (3, 4):
        assert coker_structure(n, 2) == QuotientStructure(0)
        assert coker_structure(n, 3) == QuotientStructure(0)
        q = coker_structure(n, 4)
        assert q == QuotientStructure(n * (n - 1) // 2)


def _local_smith_valuations(rows, p, e):
    """p-adic valuations of the Smith form of sparse integer rows over Z/p^e.

    Each step pivots on an entry of least valuation, clears its column with
    row operations and drops its row (the column operations that clear the
    rest of that row touch no other row).  Entries divisible by p^e are zero,
    so with e = 1 the number of valuations is the rank mod p.
    """

    def val(x):
        v = 0
        while x % p == 0:
            x //= p
            v += 1
        return v

    mod = p**e
    work = [{c: x % mod for c, x in row.items() if x % mod} for row in rows]
    work = [r for r in work if r]
    vals = []
    while work:
        # the least (valuation, row, column): the first row holding a unit
        # and its least unit column, else a scan of every valuation
        for i, r in enumerate(work):
            units = [c for c, x in r.items() if x % p]
            if units:
                v, c = 0, min(units)
                break
        else:
            v, i, c = min((val(x), i, c) for i, r in enumerate(work) for c, x in r.items())
        piv = work.pop(i)
        unit_inv = pow(piv[c] // p**v, -1, mod)
        for r in work:
            x = r.get(c)
            if not x:
                continue
            q = x // p**v * unit_inv % mod
            for cc, y in piv.items():
                nv = (r.get(cc, 0) - q * y) % mod
                if nv:
                    r[cc] = nv
                else:
                    r.pop(cc, None)
        work = [r for r in work if r]
        vals.append(v)
    return vals


@pytest.mark.parametrize(
    "k,structure,local",
    [
        (
            7,
            QuotientStructure(0, (2,) * 18 + (16,) * 6),
            {(2, 6): {0: 288, 1: 18, 4: 6}, (3, 1): {0: 312}, (5, 1): {0: 312},
             (7, 1): {0: 312}},
        ),
        (
            8,
            QuotientStructure(36, (2,) * 15 + (6,) * 3 + (12,) * 9),
            {(2, 6): {0: 768, 1: 18, 2: 9}, (3, 4): {0: 783, 1: 12}, (5, 1): {0: 795},
             (7, 1): {0: 795}},
        ),
        (
            9,
            QuotientStructure(
                6,
                (2,) * 75 + (4,) * 9 + (8,) + (24,) * 11 + (96,) + (864,) * 5 + (1728,),
            ),
            {(2, 7): {0: 2083, 1: 75, 2: 9, 3: 12, 5: 6, 6: 1}, (3, 4): {0: 2168, 1: 12, 3: 6},
             (5, 1): {0: 2186}},
        ),
    ],
    ids=["7", "8", "9"],
)
def test_coker_n3_second_route(k, structure, local):
    assert coker_structure(3, k) == structure
    # the same group from the raw trace blocks of every composition, without
    # exactlin and without the orbit rule
    blocks = [
        [row for row in johnson._trace_block(k, content)[1] if row]
        for content in compositions(k, 3)
    ]
    width = cyclic_rank(3, k, "bar")
    assert width == {7: 312, 8: 831, 9: 2192}[k]
    # Smith valuations over Z/p^e: at e = 1 the count is the rank mod p (so
    # no p-torsion), and where it reaches width - free rank every divisor is
    # seen, so the p-part is exact (864 = 2^5 * 3^3 needs p = 2 and p = 3)
    for (p, e), want in local.items():
        vals = Counter(v for rows in blocks for v in _local_smith_valuations(rows, p, e))
        assert vals == want, (p, e)
        assert sum(vals.values()) == width - structure.free_rank, (p, e)


def test_orbit_rule_matches_every_composition():
    # reference for the S_n orbit rule of trace_rank and coker_structure: each
    # block's rank and Smith divisors equal those of its sorted representative,
    # and the representative zero-padded to n letters equals its block on its
    # own letters, so one block serves every n
    def divisors(k, content):
        _, rows, cols = johnson._trace_block(k, content)
        rows = [row for row in rows if row]
        return smith_normal_form(rows, ncols=cols.ncols) if rows else []

    blocks = reps = 0
    for n, kmax in [(3, 7), (4, 6), (5, 5)]:
        for k in range(2, kmax + 1):
            for c in compositions(k, n):
                rep = tuple(sorted(c, reverse=True))
                assert _block_trace_rank(k, c) == _block_trace_rank(k, rep), c
                assert divisors(k, c) == divisors(k, rep), c
                blocks += 1
            for alpha in partitions(k, max_parts=n):
                padded = alpha + (0,) * (n - len(alpha))
                assert _block_trace_rank(k, padded) == _block_trace_rank(k, alpha), padded
                assert divisors(k, padded) == divisors(k, alpha), padded
                reps += 1
    assert (blocks, reps) == (567, 71)


def test_t0530_small():
    rep = check_T0530(3, 3)
    assert rep.ok
    checked_contents = {c for c, _ in rep.checked}
    assert all(1 in c for c in checked_contents)
    # the bar trace vanishes in degree 1: each block's kernel is all n - 1 keys
    assert [d for _, d in check_T0530(3, 1).checked] == [2, 2, 2]
    rep4 = check_T0530(3, 4)
    assert rep4.ok
    assert rep4.skipped  # e.g. content (2, 2, 0) has no isolated letter
    assert all(1 not in c for c in rep4.skipped)


@pytest.mark.parametrize("n,kmax", [(3, 7), (4, 5), (5, 4)])
def test_t0530_second_route_visits_every_composition(n, kmax):
    # check_T0530 builds one kernel per S_n orbit; here each composition with
    # a letter of multiplicity 1 gets its own kernel, tested against the image
    # through the relabelling in contains()
    for k in range(1, kmax + 1):
        image = johnson_image(n, k)
        dims = dict(check_T0530(n, k).checked)
        seen = []
        for content in compositions(k, n):
            if 1 not in content:
                continue
            kernel = johnson._block_kernel_pcoords(k, content)
            assert len(kernel) == dims[content], content
            assert all(image.contains(vec) for vec in kernel), content
            seen.append(content)
        assert seen == list(dims), (n, k)


# run in a fresh interpreter: the trace kernels come from the fraction-free
# span (IncrementalSpan) and J from its unit-pivot Hermite form, so neither
# t0530, coker nor J loads fractions
NO_FRACTIONS_PROBE = """
import sys
from lietrace import check_T0530, coker_structure, j_project, j_rank, tangential, trace_J
rep = check_T0530(3, 6)
print(rep.ok, len(rep.checked), sum(d for _, d in rep.checked))
rep = check_T0530(4, 5)
print(rep.ok, len(rep.checked), sum(d for _, d in rep.checked))
print(coker_structure(5, 6))
print(j_rank(7), trace_J(tangential(2, (1, (1, 2, 1, 2)))) == 5 * j_project(2, 1, 2, 1, 2))
print("fractions" in sys.modules)
"""


def test_kernel_check_cokernel_and_j_run_without_fractions():
    src = str(Path(johnson.__file__).resolve().parent.parent)
    probe = subprocess.run(
        [sys.executable, "-c", NO_FRACTIONS_PROBE],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert probe.stdout.splitlines() == [
        "True 15 162",
        "True 40 540",
        str(QuotientStructure(40, (6,) * 10 + (12,) * 10)),
        "196 True",
        "False",
    ]


def test_t0530_violations_are_kernel_vectors_of_each_composition(monkeypatch):
    # no pinned size has a violation, so an empty image makes every kernel
    # vector one: each representative's vectors, relabelled onto each
    # composition of its orbit, must be a basis of that block's own kernel
    monkeypatch.setattr(johnson, "johnson_image", lambda n, k: johnson.ImageBasis(n, k, {}))
    rep = check_T0530(3, 4)
    assert not rep.ok
    by_content: dict = {}
    for content, vec in rep.violations:
        by_content.setdefault(content, []).append(dict(vec))
    assert sum(map(len, by_content.values())) == sum(d for _, d in rep.checked) == 30
    for content, dim in rep.checked:
        vecs = by_content[content]
        assert len(vecs) == dim, content
        keys, rows, _ = johnson._trace_block(4, content)
        index = {key: j for j, key in enumerate(keys)}
        for vec in vecs:
            assert all(word_content(u, 3) == content for _, u in vec), content
            image: dict = {}
            for key, c in vec.items():
                add_scaled(image, rows[index[key]], c)
            assert not image, content
        columns = [{index[key]: c for key, c in vec.items()} for vec in vecs]
        assert rank(columns, len(keys)) == dim, content


def test_absent_letter_generators_lie_in_image():
    # x_i* (x) [w, x_i] with i absent from w is always in the bracket span
    for k in (3, 4, 5):
        image = johnson_image(3, k)
        rng = random.Random(41)
        for _ in range(12):
            i = rng.randint(1, 3)
            word = tuple(rng.choice([x for x in (1, 2, 3) if x != i]) for _ in range(k))
            f = tangential(3, (i, word))
            if f.is_zero():
                continue
            assert image.contains(p_coordinates(f)), (i, word)


def test_p_index_keys_are_the_p_basis_labels():
    for n, k in [(2, 1), (3, 1), (3, 2), (3, 4), (4, 3)]:
        labels = p_basis(n, k)
        assert list(_p_index(n, k)) == list(labels)
        assert list(_p_index(n, k).values()) == list(range(len(labels)))
        assert all(type(i) is int and type(u) is tuple for i, u in labels)
        assert sorted(labels) == list(labels)


def test_e_generators():
    rep3 = verify_E_generators(3)
    assert rep3.ok and rep3.total == 16 and rep3.span_dim == 16
    assert rep3.family_counts == (0, 6, 4, 6)
    rep5 = verify_E_generators(5)
    assert rep5.ok and rep5.total == 160 and rep5.span_dim == 160


def test_sign_convention_invariance():
    # negating every generator leaves all reported dimensions unchanged
    n = 3
    gens = [tau1_generator(n, i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    pidx = _p_index(n, 2)
    for flip in (1, -1):
        span = IncrementalSpan(len(pidx))
        for f in gens:
            for g in gens:
                br = der_bracket(flip * f, flip * g)
                if br.is_zero():
                    continue
                coords = p_coordinates(br)
                span.insert({pidx[key]: c for key, c in coords.items()})
        assert span.dim == johnson_image(n, 2).dim


def test_section7_rows():
    rows = section7_rows(3)
    assert [r[1] for r in rows] == [6, 6, 16, 36]
    assert [r[2] for r in rows] == [6, 9, 24, 54]
    assert [r[3] for r in rows] == [0, 3, 8, 21]
    assert [r[4] for r in rows] == ["0", "0", "0", "3"]


def test_section8_rows_through_k7(capsys):
    assert main(["table8", "--kmax", "7", "--format", "csv"]) == 0
    expect = [
        "5,(3 2),2,0",
        "6,(4 2),2,0",
        "6,(3 3),3,0",
        "6,(2 2 2),15,1",
        "7,(5 2),3,0",
        "7,(4 3),5,0",
        "7,(3 2 2),30,0",
    ]
    assert capsys.readouterr().out.splitlines() == expect


def test_degree7_gap_localizes_to_one_content_orbit():
    """The 6-dimensional kernel/span gap at (3, 7) sits entirely in the three
    compositions with letter counts {3, 2, 2}, two dimensions each."""
    from lietrace._words import lyndon_words_of_content
    from lietrace.johnson import _trace_block

    n, k = 3, 7
    image = johnson_image(n, k)
    gaps = {}
    for content in compositions(k, n):
        if not lyndon_words_of_content(content):
            continue
        block_p = len(_trace_block(k, content)[0])
        kernel = block_p - _block_trace_rank(k, content)
        gap = kernel - image.block_dim(content)
        if gap:
            gaps[content] = gap
    assert gaps == {(3, 2, 2): 2, (2, 3, 2): 2, (2, 2, 3): 2}


@pytest.mark.parametrize("content", [(3, 2, 2), (2, 2, 3)])
def test_contains_rejects_the_degree7_gap(content):
    # the trace kernel of the block exceeds the image by 2; the kernel vectors
    # contains() accepts are independent vectors of the image, so the image
    # and the rejected ones together must reach the kernel dimension.
    # (2, 2, 3) is relabelled onto its representative (3, 2, 2) to be tested
    image = johnson_image(3, 7)
    kernel = johnson._block_kernel_pcoords(7, content)
    rejected = [vec for vec in kernel if not image.contains(vec)]
    assert image.block_dim(content) == len(kernel) - 2
    assert rejected
    assert image.block_dim(content) + len(rejected) >= len(kernel)


@pytest.mark.parametrize("n,k", [(2, 4), (3, 1), (3, 6), (4, 4), (5, 3)])
def test_block_dims_sum_to_the_image(n, k):
    image = johnson_image(n, k)
    assert sum(image.block_dim(c) for c in compositions(k, n)) == image.dim


def test_image_basis_refuses_malformed_input():
    # a malformed label or content is refused, never answered as another question
    image = johnson_image(3, 4)
    assert not image.contains({(1, (1, 1, 2, 3)): 1})  # well formed: answered
    for label in (
        (0, (1, 1, 2, 3)),  # i outside 1..n
        (4, (1, 1, 2, 3)),
        (1, (1, 2)),  # a degree-2 label
        (1, (1, 1, 2, 3, 3)),
        (1, (1, 1, 2, 4)),  # letter 4 on 3 letters
        (1, (0, 1, 2, 3)),
        (1, (2, 1, 1, 3)),  # not a Lyndon word
        (1, (1, 2, 1, 2)),
    ):
        with pytest.raises(ValueError, match="basis label"):
            image.contains({label: 1})
    with pytest.raises(ValueError, match="basis label"):
        johnson_image(3, 1).contains({(2, (2,)): 1})  # [x_2, x_2] = 0
    assert johnson_image(3, 1).contains({(1, (2,)): 1})
    assert image.block_dim((2, 1, 1)) == image.block_dim((1, 2, 1))
    assert image.block_dim((2, 2)) == image.block_dim((2, 2, 0))
    for content in ((3, 2), (1, 1, 1, 1), (5, -1), (2, 1, 0)):
        with pytest.raises(ValueError, match="content"):
            image.block_dim(content)


def test_image_dim_independent_of_bracketing_order():
    # brute-force route for n=2, k<=4: all left-normed bracket words
    n = 2
    gens = {
        (i, j): tau1_generator(n, i, j)
        for i in (1, 2)
        for j in (1, 2)
        if i != j
    }
    elements = {1: list(gens.values())}
    for k in (2, 3, 4):
        new = []
        for f in elements[k - 1]:
            for g in gens.values():
                br = der_bracket(f, g)
                if not br.is_zero():
                    new.append(br)
        elements[k] = new
    for k in (1, 2, 3, 4):
        pidx = _p_index(n, k)
        span = IncrementalSpan(len(pidx))
        for f in elements[k]:
            coords = p_coordinates(f)
            span.insert({pidx[key]: c for key, c in coords.items()})
        assert span.dim == johnson_image(n, k).dim, k


@pytest.mark.parametrize("n,kmax", [(3, 6), (4, 5)])
def test_image_span_second_route(n, kmax):
    # level by level from the public bracket: a basis of the previous level,
    # bracketed with every degree-1 generator, must span the engine's level
    gens = [tau1_generator(n, i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    basis = gens
    for k in range(1, kmax + 1):
        if k > 1:
            basis = [der_bracket(f, g) for f in basis for g in gens]
        pos = {label: j for j, label in enumerate(p_basis(n, k))}
        coords = [p_coordinates(f) for f in basis]
        span = IncrementalSpan(len(pos))
        basis = [
            f for f, co in zip(basis, coords) if span.insert({pos[key]: c for key, c in co.items()})
        ]
        image = johnson_image(n, k)
        assert span.dim == image.dim, (n, k)
        assert all(image.contains(co) for co in coords), (n, k)


@pytest.mark.parametrize("n,mmax", [(2, 4), (3, 4), (4, 3)])
def test_label_bracket_matches_der_bracket(n, mmax):
    # the engine's Jacobi closed form against the public tensor route, for
    # every basis label (i, u) of degree m <= mmax and every generator D_ab;
    # one solver and one memo per degree, shared by every label as in the engine
    cases = Counter()
    for m in range(1, mmax + 1):
        solver = AdSolver(n)
        memo: dict = {}
        for label in p_basis(n, m):
            f = from_p_coordinates(n, m, {label: 1})
            for a in range(1, n + 1):
                for b in range(1, n + 1):
                    if a == b:
                        continue
                    want = p_coordinates(der_bracket(f, tau1_generator(n, a, b)))
                    dab = ad_enc(n, (b,), a)
                    got = johnson._label_bracket(solver, label, a, b, dab, memo)
                    assert got == want, (label, a, b)
                    cases["i = a" if label[0] == a else "i = b" if label[0] == b else "other"] += 1
    assert set(cases) == ({"i = a", "i = b", "other"} if n > 2 else {"i = a", "i = b"})


def test_trace_blocks_leave_the_shared_expansion_cache_alone():
    # each trace block expands its words in a memo of its own, so the trace
    # path neither reads nor grows freelie's process-wide expansion cache
    _block_trace_rank.cache_clear()  # so c_alpha builds its block here
    before = dict(freelie._IOTA_CACHE)
    assert c_alpha(8, (2, 2, 2, 2)) == johnson.AlphaReport((2, 2, 2, 2), 316, 4)
    assert coker_structure(3, 6) == QuotientStructure(10, (6, 6, 6, 12, 12, 12))
    assert trace_image_dim_direct(3, 5) == tangent.p_rank(3, 5) - 96  # the pinned kernel
    assert freelie._IOTA_CACHE == before


def test_image_leaves_the_shared_expansion_cache_alone():
    # each image level expands into the memo of its own solver and each
    # ImageBasis into a memo of its own, so building the image and testing
    # membership neither read nor grow freelie's process-wide expansion cache
    johnson._orbit_image.cache_clear()  # so the levels are built here
    before = dict(freelie._IOTA_CACHE)
    assert johnson_image(3, 7).dim == 618
    assert check_T0530(3, 5).ok
    assert freelie._IOTA_CACHE == before


def test_ad_blocks_live_only_as_long_as_their_solver():
    # each image level, each p_coordinates call, each ImageBasis and each
    # check_T0530 owns its identity blocks, so none of them outlives its owner
    johnson_image(3, 6)
    p_coordinates(der_bracket(tau1_generator(3, 1, 2), tau1_generator(3, 2, 3)))
    # content (1, 0, 1) is relabelled onto its representative (1, 1, 0)
    vec = p_coordinates(der_bracket(tau1_generator(3, 2, 3), tau1_generator(3, 3, 1)))
    assert {word_content(u, 3) for _, u in vec} == {(1, 0, 1)}
    image = johnson_image(3, 2)
    assert image.contains(vec) and image._solver.blocks
    assert check_T0530(3, 5).ok
    del image
    gc.collect()
    assert not [obj for obj in gc.get_objects() if isinstance(obj, tangent._AdBlock)]


def test_relabel_through_a_solver_matches_projection():
    # _relabel solves each relabelled expansion on an identity block; the
    # lead-by-lead projection is a second route, for every permutation of
    # the letters on every label with k <= 5 at n = 3 and k <= 4 at n = 4
    for n, kmax in ((3, 5), (4, 4)):
        base = n + 1
        for perm in permutations(range(1, n + 1)):
            solver = tangent.AdSolver(n)
            memo: dict = {}  # the projection route's expansions
            for k in range(1, kmax + 1):
                total: dict = {}
                want_total: dict = {}
                for c, (i, u) in enumerate(p_basis(n, k), 1):
                    moved = {
                        encode([perm[x - 1] for x in decode(w, base, k)], base): d
                        for w, d in freelie.iota_enc(n, u, memo).items()
                    }
                    coords = project_lyndon_enc(n, k, moved, memo)
                    want = {(perm[i - 1], w): d for w, d in coords.items()}
                    assert johnson._relabel(solver, perm, {(i, u): 1}) == want, (perm, i, u)
                    add_scaled(total, {(i, u): c})
                    add_scaled(want_total, want, c)
                assert johnson._relabel(solver, perm, total) == want_total, (perm, k)

"""The integer-encoded tensor layer: products, brackets and zero-free sums.

Every encoded dict a caller sees must hold no zero value: readers test
``if not enc``, compare dicts with ``!=`` and sort rows by their length.  The
inputs below are chosen so that terms cancel.
"""

import pytest

from lietrace._words import (
    InconsistencyError,
    compositions,
    decode,
    encode,
    lyndon_words,
    lyndon_words_of_content,
    min_rotation,
    necklace_count,
    standard_factorization,
    word_content,
)
from lietrace.cyclic import Necklace, project_cyclic
from lietrace.freelie import (
    LieElement,
    TensorElement,
    _cat,
    _commutator,
    ad_enc,
    bracket,
    factor_enc,
    iota_enc,
    normalize,
)
from lietrace.tangent import (
    Derivation,
    NecklaceColumns,
    _apply_values_enc,
    contract,
    trace_row_enc,
)


def _zero_free(d):
    return all(c != 0 for c in d.values())


@pytest.mark.parametrize("n, kmax", [(1, 5), (2, 5), (3, 5), (4, 4)])
def test_ad_enc_is_the_bracket_with_a_generator(n, kmax):
    for k in range(1, kmax + 1):
        for u in lyndon_words(n, k):
            for i in range(1, n + 1):
                got = ad_enc(n, u, i)
                want = bracket(LieElement(n, k, {u: 1}), LieElement.generator(n, i))
                assert got == want._enc_tensor(), (u, i)
                assert _zero_free(got)


def test_cat_is_word_concatenation():
    n, base = 3, 4
    a, b = iota_enc(n, (1, 1, 2)), iota_enc(n, (2, 3))
    got = _cat(a, b, 2, base)
    assert len(got) == len(a) * len(b)
    for w, c in got.items():
        word = decode(w, base, 5)
        assert c == a[encode(word[:3], base)] * b[encode(word[3:], base)]


def test_brackets_that_cancel_are_empty():
    assert _commutator({1: 1}, 1, {1: 1}, 1, 4) == {}
    for n in (1, 3):
        assert ad_enc(n, (1,), 1) == {}
    # [[x1,x2],[x1,x2]] cancels at every word of the two products
    e = iota_enc(2, (1, 2))
    assert _commutator(e, 2, e, 2, 3) == {}


def test_leibniz_pass_drops_cancelled_words():
    # D_12 on x1 x1: [x2,x1] x1 + x1 [x2,x1] = 211 - 112, the two 121 cancel
    n, base = 3, 4
    gen = {1: (ad_enc(n, (2,), 1), 2)}
    got = _apply_values_enc(n, gen, {encode((1, 1), base): 1}, 2)
    assert got == {encode((2, 1, 1), base): 1, encode((1, 1, 2), base): -1}


def test_contraction_that_cancels_is_zero():
    # x1 -> [x1,x3] contracts to +(3), x2 -> [x3,x2] to -(3)
    f = Derivation(3, 1, {1: normalize((1, 3), 3), 2: normalize((3, 2), 3)})
    assert contract(f).terms == {}


def test_cyclic_projection_that_cancels_is_zero():
    t = TensorElement(2, 2, {(1, 2): 1, (2, 1): -1})
    assert project_cyclic(t).terms == {}
    t = TensorElement(3, 3, {(1, 2, 3): 2, (2, 3, 1): -2, (3, 2, 1): 1})
    assert project_cyclic(t).terms == {Necklace((1, 3, 2)): 1}


def test_trace_rows_that_cancel_are_zero_free():
    # degree 1: the trace of [x1, x1] = 0, so letter 1 has no row, while
    # every other letter i keeps the -(1) of x_i* (x) [x1, x_i]
    cols = NecklaceColumns.of_content((1, 0, 0))
    got = trace_row_enc(3, 1, (1,), cols, {})
    assert got == {2: {cols[1]: -1}, 3: {cols[1]: -1}}
    # degree 4: two closed words of the expansion of 1132 meet one necklace and cancel
    cols = NecklaceColumns.of_content((2, 1, 1))
    rows = trace_row_enc(3, 4, (1, 1, 3, 2), cols, {})
    assert all(row and _zero_free(row) for row in rows.values())
    got = rows[1]
    seen = {}
    base, shift = 4, 4**3
    for w, c in iota_enc(3, (1, 1, 3, 2)).items():
        if w // shift == 1:
            col = cols[(w - shift) * base + 1]
            seen[col] = seen.get(col, 0) + c
    assert 0 in seen.values()
    assert got == {w: c for w, c in seen.items() if c}


def _rows_from_expansion(n, k, u, full, cols):
    """Trace rows of u from its full expansion: bucketed by leading letter and necklace."""
    shift = (n + 1) ** (k - 1)
    rows: dict = {}
    for w, c in full.items():
        row = rows.setdefault(w // shift, {})
        row[cols[w]] = row.get(cols[w], 0) + c
    if k == 1:  # the bracket part -x_i u of every contraction leaves -(u)
        for i in range(1, n + 1):
            row = rows.setdefault(i, {})
            row[cols[u[0]]] = row.get(cols[u[0]], 0) - 1
    rows = {i: {col: c for col, c in row.items() if c} for i, row in rows.items()}
    return {i: row for i, row in rows.items() if row}


@pytest.mark.parametrize("n, kmax", [(3, 8), (4, 6), (5, 5)])
def test_trace_rows_from_factor_pairs_match_the_full_expansion(n, kmax):
    # second route: every Lyndon word of every content block, one column map
    # and one factor memo per block, against its full expansion bucketed by
    # leading letter and necklace column
    seen = 0
    for k in range(1, kmax + 1):
        shift = (n + 1) ** (k - 1)
        for content in compositions(k, n):
            cols, memo = NecklaceColumns.of_content(content), {}
            # one column per necklace of the content, each word on its necklace's
            necklaces: dict = {}
            for w, col in cols.items():
                necklaces.setdefault(col, set()).add(min_rotation(decode(w, n + 1, k)))
            assert sorted(necklaces) == list(range(cols.ncols))
            assert all(len(necks) == 1 for necks in necklaces.values())
            if lyndon_words_of_content(content):
                assert cols.ncols == necklace_count(content)
            for u in lyndon_words_of_content(content):
                full = iota_enc(n, u, {})
                got = trace_row_enc(n, k, u, cols, memo)
                assert got == _rows_from_expansion(n, k, u, full, cols), (k, u)
                # the columns the rows touch are the necklaces of the words
                # whose (leading letter, necklace) total stays nonzero
                touched = {col for row in got.values() for col in row}
                kept = {cols[w] for w in full if got.get(w // shift, {}).get(cols[w])}
                if k == 1:  # u closes on its own necklace in every other row
                    kept = {cols[u[0]]}
                assert touched == kept, (k, u)
                # every word of the expansion finds its column, those whose
                # totals cancel too
                assert all(w in cols for w in full), (k, u)
                seen += 1
    assert seen == sum(len(lyndon_words(n, k)) for k in range(1, kmax + 1))


@pytest.mark.parametrize("n, kmax", [(3, 7), (4, 6), (5, 5)])
def test_trace_rows_of_some_letters_match_the_full_expansion(n, kmax):
    # second route for a call given letters: the rows of those letters from
    # the full expansion
    for k in range(1, kmax + 1):
        for content in compositions(k, n):
            cols, memo = NecklaceColumns.of_content(content), {}
            for u in lyndon_words_of_content(content):
                want = _rows_from_expansion(n, k, u, iota_enc(n, u, {}), cols)
                for letters in ([1], [n], range(2, n + 1), {n, 1}, []):
                    got = trace_row_enc(n, k, u, cols, memo, letters)
                    assert got == {i: row for i, row in want.items() if i in letters}, (u, letters)
                    assert list(got) == sorted(got)


def test_trace_rows_of_some_letters_visit_only_their_pairs():
    # 1123 = [1, 123] expands over the pairs of 1 with 123, 132, 231 and 321.
    # Given letter 2, only the pair of 1 with 231 is visited: it looks up
    # the column of its closed word 1231, and letter 2's row is +1 there.
    # Given every letter, the pairs of 1 with 123 and 132 add nothing and
    # are passed over unread
    looked = []

    class Columns(NecklaceColumns):
        def __getitem__(self, w):
            looked.append(decode(w, 4, 4))
            return super().__getitem__(w)

    cols = Columns.of_content((2, 1, 1))
    col = cols[encode((1, 1, 2, 3), 4)]
    looked.clear()
    assert trace_row_enc(3, 4, (1, 1, 2, 3), cols, {}, [2]) == {2: {col: 1}}
    assert looked == [(1, 2, 3, 1)]
    looked.clear()
    trace_row_enc(3, 4, (1, 1, 2, 3), cols, {})
    assert looked == [(1, 2, 3, 1), (1, 3, 2, 1)]


@pytest.mark.parametrize(
    "n, u", [(2, (1, 2)), (3, (1, 1, 3, 2)), (3, (1, 2, 1, 3, 3)), (4, (1, 3, 2, 4))]
)
def test_lead_check_guards_both_expansion_routes(n, u):
    # a clean memo: the trace rows read the factor expansions and never
    # store the expansion of u itself
    memo = {}
    cols = NecklaceColumns.of_content(word_content(u, n))
    trace_row_enc(n, len(u), u, cols, memo)
    a, b = standard_factorization(u)
    assert (n, a) in memo and (n, b) in memo
    assert (n, u) not in memo
    assert factor_enc(n, u, memo) == (memo[(n, a)], len(a), memo[(n, b)], len(b))
    # a factor expansion whose lead coefficient is 2 breaks unitriangularity,
    # and both the pairing route and the full expansion refuse it
    for factor in (a, b):
        bad = dict(memo)
        enc = dict(bad[(n, factor)])
        enc[min(enc)] = 2
        bad[(n, factor)] = enc
        with pytest.raises(InconsistencyError):
            trace_row_enc(n, len(u), u, cols, dict(bad))
        with pytest.raises(InconsistencyError):
            iota_enc(n, u, dict(bad))

"""The integer-encoded tensor layer: products, brackets and zero-free sums.

Every encoded dict a caller sees must hold no zero value: readers test
``if not enc``, compare dicts with ``!=`` and sort rows by their length.  The
inputs below are chosen so that terms cancel.
"""

import pytest

from lietrace._words import decode, encode, lyndon_words
from lietrace.cyclic import Necklace, project_cyclic
from lietrace.freelie import (
    LieElement,
    TensorElement,
    _cat,
    _commutator,
    ad_enc,
    bracket,
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
    cols = NecklaceColumns()
    got = trace_row_enc(3, 1, (1,), cols, {})
    assert got == {2: {cols[1]: -1}, 3: {cols[1]: -1}}
    # degree 4: two closed words of the expansion of 1132 meet one necklace and cancel
    cols = NecklaceColumns()
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

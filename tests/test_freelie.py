import pytest
from hypothesis import given, settings, strategies as st

from _reference import rotations
from lietrace import _words
from lietrace.exactlin import IncrementalSpan
from lietrace.freelie import (
    LieElement,
    bracket,
    embed_tensor,
    hall_basis,
    iota_enc,
    multidegree_rank,
    normalize,
    project_lyndon_enc,
    witt_rank,
)


def test_witt_examples():
    for n in (1, 2, 3, 5):
        assert witt_rank(n, 1) == n
    assert witt_rank(2, 11) == 186
    assert witt_rank(3, 3) == 8
    assert witt_rank(3, 4) == 18
    assert witt_rank(3, 6) == 116


def test_hall_basis_examples():
    assert len(hall_basis(2, 2)) == 1
    assert len(hall_basis(2, 3)) == 2
    assert len(hall_basis(3, 4)) == 18


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_hall_basis_size_matches_witt(n):
    # full sweep up to degree 10; Duval's words are counted as they come, so
    # the list of about a million words at n = 5, k = 10 is never built
    for k in range(1, 11):
        assert sum(1 for _ in _words._duval(n, k)) == witt_rank(n, k), (n, k)


@pytest.mark.parametrize("n,k", [(0, 1), (0, 3), (-1, 2), (2, 0)])
def test_lyndon_words_refuse_n_or_k_below_one(n, k):
    # Duval's loop never ends over no letters, so it must refuse at once
    for f in (_words.lyndon_words, hall_basis):
        with pytest.raises(ValueError, match="need n >= 1"):
            f(n, k)


def test_multidegree_examples():
    assert multidegree_rank(3, 3, (1, 1, 1)) == 2
    assert multidegree_rank(1, 2, (2,)) == 0
    assert multidegree_rank(2, 5, (5, 0)) == 0
    assert multidegree_rank(2, 8, (6, 2)) == 3


@pytest.mark.parametrize("n", [2, 3, 4])
def test_multidegree_sums_to_witt(n):
    for k in range(1, 10):
        total = sum(
            multidegree_rank(n, k, alpha) for alpha in _words.compositions(k, n)
        )
        assert total == witt_rank(n, k)


@pytest.mark.parametrize("n,kmax", [(2, 7), (3, 6)])
def test_multidegree_three_way_oracle(n, kmax):
    """Closed form == Lyndon word count == rank of embedded basis vectors.

    The words of each content are also Duval's list of the degree, filtered by
    content, word for word and in order.
    """
    for k in range(1, kmax + 1):
        duval = _words.lyndon_words(n, k)
        for alpha in _words.compositions(k, n):
            words = _words.lyndon_words_of_content(alpha)
            assert words == tuple(w for w in duval if _words.word_content(w, n) == alpha)
            expected = multidegree_rank(n, k, alpha)
            assert len(words) == expected
            span = IncrementalSpan((n + 1) ** k)
            for w in words:
                elt = LieElement(n, k, {w: 1})
                enc = {_words.encode(t, n + 1): c for t, c in embed_tensor(elt).terms.items()}
                assert span.insert(enc)
            assert span.dim == expected


def test_lyndon_words_of_content_match_the_filtered_permutations():
    # every content of degree <= 9 on <= 4 letters, zero and unsorted parts included
    for n in range(1, 5):
        for k in range(10):
            for content in _words.compositions(k, n):
                words = _words.lyndon_words_of_content(content)
                want = tuple(
                    w for w in _words.multiset_permutations(content) if _words.is_lyndon(w)
                )
                assert words == want, content
                assert len(words) == _words.content_divisor_sum(content, _words.mobius)
    assert _words.lyndon_words_of_content(()) == ()


@given(st.lists(st.integers(0, 4), min_size=1, max_size=5).filter(lambda c: sum(c) <= 10))
def test_lyndon_words_of_content_property(content):
    n = len(content)
    words = _words.lyndon_words_of_content(content)
    # distinct Lyndon words of the content, as many as there are: all of them
    assert len(words) == _words.content_divisor_sum(content, _words.mobius)
    assert list(words) == sorted(set(words))
    for w in words:
        assert _words.is_lyndon(w) and _words.word_content(w, n) == tuple(content)


@settings(max_examples=150)
@given(st.data())
def test_project_lyndon_enc_reads_back_coordinates(data):
    """A combination of Lyndon expansions projects back to its coefficients;
    one extra word of degree >= 2, or a key that is no word, makes it non-Lie."""
    n = data.draw(st.integers(1, 4), label="n")
    k = data.draw(st.integers(1, 7), label="k")
    base = n + 1
    words = _words.lyndon_words(n, k)
    coeff = st.integers(-5, 5).filter(bool)
    coords = data.draw(st.dictionaries(st.sampled_from(words), coeff, max_size=6)) if words else {}
    enc: dict = {}
    for w, c in coords.items():
        _words.add_scaled(enc, iota_enc(n, w), c)
    assert project_lyndon_enc(n, k, enc) == coords
    if k >= 2:
        # every Lie element of degree >= 2 has coefficient sum 0 on each content
        word = data.draw(st.tuples(*[st.integers(1, n)] * k), label="word")
        extra = {_words.encode(word, base): data.draw(coeff, label="c")}
        with pytest.raises(ValueError):
            project_lyndon_enc(n, k, _words.add_scaled(dict(enc), extra))
    # codes of no word over 1..n whose k low digits may still spell a Lyndon word
    for bad in (-1, _words.encode((0,) + (n,) * (k - 1), base), base**k + n):
        with pytest.raises(ValueError):
            project_lyndon_enc(n, k, _words.add_scaled(dict(enc), {bad: 1}))


def test_embedded_basis_independent():
    for n in (2, 3):
        for k in range(1, 8 if n == 2 else 7):
            span = IncrementalSpan((n + 1) ** k)
            for word in hall_basis(n, k):
                elt = LieElement(n, k, {word: 1})
                enc = {_words.encode(t, n + 1): c for t, c in embed_tensor(elt).terms.items()}
                assert span.insert(enc)
            assert span.dim == witt_rank(n, k)


def test_normalize_examples():
    assert normalize((1, 1), n=2).is_zero()
    assert normalize((1, 2), n=2) == -1 * normalize((2, 1), n=2)
    s = normalize(((2, 1), 1), n=2) + normalize(((1, 2), 1), n=2)
    assert s.is_zero()


def test_embed_examples():
    n = 3
    x1 = LieElement.generator(n, 1)
    assert embed_tensor(x1).terms == {(1,): 1}
    e = normalize((1, 2), n=n)
    assert embed_tensor(e).terms == {(1, 2): 1, (2, 1): -1}
    e = normalize(((1, 2), 1), n=n)
    assert embed_tensor(e).terms == {(1, 2, 1): 2, (2, 1, 1): -1, (1, 1, 2): -1}


def test_normalize_agrees_with_embedding():
    # the embedding of the normalized tree equals raw tensor expansion
    trees = [((1, 2), (2, 1)), (((1, 2), 2), 1), ((1, (2, 3)), (1, 2))]
    for tree in trees:
        elt = normalize(tree, n=3)
        raw_enc, deg = _tree_expand(tree, 3)
        assert {_words.encode(t, 4): c for t, c in embed_tensor(elt).terms.items()} == raw_enc


def _tree_expand(tree, n):
    from lietrace.freelie import _tree_enc

    return _tree_enc(tree, n)


def test_coefficients_are_exact_not_truncated():
    from fractions import Fraction

    from lietrace.cyclic import JElement, j_project
    from lietrace.freelie import TensorElement

    # a Lie element, and an element of J (integer coordinates too)
    for e in (normalize((1, 2), 3), j_project(4, 1, 2, 3, 4)):
        for scalar in (0.5, 2.7, Fraction(1, 2)):
            with pytest.raises(ValueError):
                scalar * e
        with pytest.raises(TypeError):
            "2" * e
        # integral values of other numeric types are exact and accepted
        assert 2.0 * e == Fraction(4, 2) * e == e + e
    with pytest.raises(ValueError):
        TensorElement(3, 2, {(1, 2): 1.7})
    with pytest.raises(ValueError):
        LieElement(3, 2, {(1, 2): Fraction(3, 2)})
    for scalar in (0.5, Fraction(1, 2)):
        with pytest.raises(ValueError):
            JElement(4, {0: scalar})
    assert JElement(4, {0: 2.0}) == 2 * JElement(4, {0: 1})
    assert TensorElement(3, 2, {(1, 2): 3.0}).terms == {(1, 2): 3}


def test_tensor_element_refuses_letters_off_the_alphabet():
    from lietrace.freelie import TensorElement

    for word in ((1, 7), (0, 1), (3, 2), (-1, 1)):
        with pytest.raises(ValueError, match="letters out of range"):
            TensorElement(2, 2, {word: 1})
    assert TensorElement(2, 2, {(2, 1): 1, (1, 2): -1}).terms == {(2, 1): 1, (1, 2): -1}


def test_mixed_element_types_do_not_add():
    from lietrace.cyclic import CyclicElement
    from lietrace.freelie import TensorElement

    lie = normalize((1, 2), 3)
    tensor = TensorElement(3, 2, {(1, 2): 1})
    cyc = CyclicElement(3, 2, {(1, 2): 1})
    for a, b in ((lie, tensor), (tensor, lie), (tensor, cyc), (cyc, tensor)):
        with pytest.raises(TypeError):
            a + b
        with pytest.raises(TypeError):
            a - b
        assert a != b
    with pytest.raises(ValueError):
        lie + normalize((1, 2), 4)  # same type, other alphabet
    with pytest.raises(ValueError):
        tensor + TensorElement(3, 3, {(1, 2, 3): 1})  # same type, other degree


def test_element_operators_share_one_meaning():
    from lietrace.cyclic import CyclicElement
    from lietrace.freelie import TensorElement

    for elt in (
        normalize(((1, 2), 3), 3),
        TensorElement(3, 2, {(1, 2): 2, (2, 1): -1}),
        CyclicElement(3, 3, {(1, 2, 3): 2, (2, 1, 3): -5}),
    ):
        assert (elt - elt).is_zero() and not (elt - elt)
        assert elt + elt == 2 * elt == -(-2 * elt)
        assert hash(elt + elt) == hash(2 * elt)
        assert (0 * elt).is_zero() and repr(0 * elt) == "0"
    for terms, text in [
        ({(2, 1): -2, (1, 2): 1}, "1*12 - 2*21"),
        ({(2, 1): 1, (1, 2): -2}, "-2*12 + 1*21"),
    ]:
        assert repr(TensorElement(3, 2, terms)) == text


def test_lie_elements_are_keyed_by_lyndon_word():
    e = (
        normalize((((1, 2), 3), (1, 2)), 3)
        - 2 * normalize(((1, (1, 3)), (2, 3)), 3)
        + normalize(((((3, 1), 2), 1), 2), 3)
    )
    assert set(e.terms) == {(1, 1, 3, 2, 2), (1, 1, 3, 2, 3), (1, 2, 1, 2, 3), (1, 2, 3, 1, 3)}
    # each term prints in the standard bracketing of its word
    assert repr(e) == (
        "1*[x1,[[[x1,x3],x2],x2]] - 2*[x1,[[x1,x3],[x2,x3]]]"
        " - 1*[[x1,x2],[x1,[x2,x3]]] - 2*[[x1,[x2,x3]],[x1,x3]]"
    )
    # a word given as a list names the same basis element, stored as a tuple
    by_list = LieElement(3, 5, [(list(w), c) for w, c in e.terms.items()])
    assert by_list == e and by_list.terms == e.terms
    assert LieElement(3, 5, {w: c for w, c in e.terms.items()}) == e
    for bad, message in [
        ((2, 1, 1, 1, 3), "not a basis word"),
        ((1, 1, 3, 2, 4), "letters out of range"),  # a word of another alphabet
        ((1, 2, 3), "does not match element degree"),
    ]:
        with pytest.raises(ValueError, match=message):
            LieElement(3, 5, {bad: 1})


small_elt = st.builds(
    lambda coeffs: _random_elt(3, 2, coeffs),
    st.lists(st.integers(-3, 3), min_size=3, max_size=3),
)


def _random_elt(n, k, coeffs):
    basis = hall_basis(n, k)
    return LieElement(n, k, {m: c for m, c in zip(basis, coeffs)})


@given(small_elt, small_elt)
def test_bracket_antisymmetric(a, b):
    assert bracket(a, b) == -1 * bracket(b, a)
    assert bracket(a, a).is_zero()


@given(small_elt, small_elt, small_elt)
def test_bracket_jacobi(a, b, c):
    total = (
        bracket(a, bracket(b, c))
        + bracket(b, bracket(c, a))
        + bracket(c, bracket(a, b))
    )
    assert total.is_zero()


def test_bracket_degrees():
    a = normalize((1, 2), n=3)
    b = LieElement.generator(3, 3)
    assert bracket(a, b).degree == 3


def test_concurrent_basis_reads_are_consistent():
    from concurrent.futures import ThreadPoolExecutor

    def grab(_):
        return hall_basis(3, 5)

    with ThreadPoolExecutor(max_workers=6) as pool:
        results = list(pool.map(grab, range(12)))
    assert all(r == results[0] for r in results)
    assert len(results[0]) == witt_rank(3, 5)


def test_monomial_bracket_structure():
    mono = LieElement(3, 3, {(1, 1, 2): 1})
    assert mono.degree == 3 and mono.terms == {(1, 1, 2): 1}
    assert repr(mono) == "1*[x1,[x1,x2]]"
    with pytest.raises(ValueError, match="not a basis word"):
        LieElement(3, 2, {(2, 1): 1})


def test_booth_matches_bruteforce():
    import random

    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(1, 9)
        w = tuple(rng.randint(1, 3) for _ in range(k))
        assert _words.min_rotation(w) == min(rotations(w))


@given(st.lists(st.integers(1, 4), min_size=1, max_size=8))
def test_booth_property(letters):
    w = tuple(letters)
    assert _words.min_rotation(w) == min(rotations(w))


@given(st.integers(2, 6), st.lists(st.integers(1, 6), min_size=1, max_size=9))
def test_word_codec_roundtrip(n, letters):
    w = tuple(min(c, n) for c in letters)
    base = n + 1
    code = _words.encode(w, base)
    assert _words.decode(code, base, len(w)) == w


@given(
    st.integers(2, 5),
    st.lists(st.integers(1, 5), min_size=3, max_size=3),
    st.lists(st.integers(1, 5), min_size=3, max_size=3),
)
def test_word_codec_preserves_lex_order(n, a, b):
    a = tuple(min(c, n) for c in a)
    b = tuple(min(c, n) for c in b)
    base = n + 1
    assert (a < b) == (_words.encode(a, base) < _words.encode(b, base))

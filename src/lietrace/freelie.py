"""Free Lie algebra on n generators over Z.

The basis of the degree-k part is indexed by Lyndon words of length k over
``1..n``, plain tuples; each word is bracketed through its standard
factorization.  Elements are sparse integer combinations of basis monomials,
keyed by their words; the tensor-algebra embedding expands brackets as
``u (x) v - v (x) u`` and is the workhorse used for normalization,
bracketing and all trace computations downstream.  Encoded
words are multiplied (``_cat``) and bracketed (``_commutator``) here, and
``factor_enc`` hands out the checked factor expansions of a Lyndon word for
``tangent.trace_row_enc``, which pairs their words itself without forming the
product.
Encoded dicts are zero-free: ``add_scaled`` never stores a zero, and a local
accumulator drops its zeros once, on return.
"""

from __future__ import annotations

from . import _words
from ._words import (
    InconsistencyError,
    SparseCombination,
    add_scaled,
    decode,
    encode,
    exact_int,
    is_lyndon,
    lyndon_words,
    standard_factorization,
)


def witt_rank(n: int, k: int) -> int:
    """Rank of the degree-k part: (1/k) sum over d|k of mu(d) n^(k/d)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    total = sum(_words.mobius(d) * n ** (k // d) for d in _words.divisors(k))
    if total % k:
        raise InconsistencyError("Witt rank is not an integer")
    return total // k


def multidegree_rank(n: int, k: int, alpha) -> int:
    """Rank of the multidegree-alpha component of degree k.

    Equals the number of Lyndon words with letter counts alpha:
    (1/k) sum over d | gcd(alpha) of mu(d) (k/d)! / prod (alpha_i/d)!.
    """
    counts = list(alpha)
    if len(counts) > n:
        raise ValueError("alpha longer than the alphabet")
    if any(a < 0 for a in counts):
        raise ValueError("negative multidegree entry")
    if sum(counts) != k:
        raise ValueError("alpha must sum to k")
    if k < 1:
        raise ValueError("need k >= 1")
    return _words.content_divisor_sum(counts, _words.mobius)


def _bracketed(word) -> str:
    """The standard bracketing of a Lyndon word, e.g. [x1,[x1,x2]] for 112."""
    if len(word) == 1:
        return f"x{word[0]}"
    u, v = standard_factorization(word)
    return f"[{_bracketed(u)},{_bracketed(v)}]"


def hall_basis(n: int, k: int) -> tuple:
    """The degree-k basis: its Lyndon words, in lexicographic order."""
    return lyndon_words(n, k)


# ---------------------------------------------------------------------------
# tensor expansions (integer-encoded words; see _words.encode)

# read by the element types and direct calls; trace blocks and image levels
# pass memos of their own, which go with them
_IOTA_CACHE: dict = {}


def _cat(a, b, len_b, base):
    """Encoded product a(x)b of zero-free a and b, every word of b of length len_b.

    Distinct pairs (wa, wb) give distinct keys wa * base**len_b + wb, so no
    product cancels and the result is zero-free.
    """
    shift = base**len_b
    return {wa * shift + wb: ca * cb for wa, ca in a.items() for wb, cb in b.items()}


def _commutator(a, la, b, lb, base):
    """Encoded expansion of [a, b] = a(x)b - b(x)a, for a of length la and b of lb."""
    return add_scaled(_cat(a, b, lb, base), _cat(b, a, la, base), -1)


def factor_enc(n: int, word, memo=None):
    """Checked expansions (A, len a, B, len b) of the standard factors a, b of word.

    word, a Lyndon word of length >= 2, expands as A(x)B - B(x)A.  Its least
    word must be `word` itself with coefficient 1: the least word of A(x)B is
    min(A).min(B), with coefficient the product of theirs, and it must lie
    strictly below min(B).min(A), the least word of B(x)A, so that nothing
    cancels it.  This is the triangularity that makes coordinate extraction
    below terminate, checked in O(|A| + |B|) without forming the product.
    The factor expansions come from iota_enc and its memo.
    """
    base = n + 1
    a, b = standard_factorization(word)
    A, B = iota_enc(n, a, memo), iota_enc(n, b, memo)
    la, lb = len(a), len(b)
    ma, mb = min(A), min(B)
    lead = ma * base**lb + mb
    if lead != encode(word, base) or A[ma] * B[mb] != 1 or lead >= mb * base**la + ma:
        raise InconsistencyError(f"expansion of {word!r} is not unitriangular")
    return A, la, B, lb


def iota_enc(n: int, word, memo=None) -> dict:
    """Tensor expansion of the basis monomial of `word`, encoded base n + 1.

    The least word of the expansion is `word` itself with coefficient 1
    (checked by factor_enc).  The expansions of `word` and of its factors are
    memoized in `memo`, a dict whose lifetime the caller decides, or else in
    the process-wide _IOTA_CACHE.  A returned dict is shared with the memo:
    never mutate it.
    """
    if memo is None:
        memo = _IOTA_CACHE
    key = (n, word)
    got = memo.get(key)
    if got is not None:
        return got
    if len(word) == 1:
        got = {word[0]: 1}
    else:
        got = _commutator(*factor_enc(n, word, memo), n + 1)
    memo[key] = got
    return got


def ad_enc(n: int, word, i: int, memo=None) -> dict:
    """Tensor expansion of [basis(word), x_i]; memo as for iota_enc."""
    return _commutator(iota_enc(n, word, memo), len(word), {i: 1}, 1, n + 1)


def project_lyndon_enc(n: int, k: int, tdict: dict, memo=None) -> dict:
    """Coordinates of an encoded degree-k tensor element on the Lyndon basis.

    Each step removes the least remaining word.  The expansion of a Lyndon
    word starts at that word with coefficient 1, so the element lies in the
    Lie subspace exactly when every such least word is a Lyndon word of
    degree k over 1..n, its coordinate being the word's coefficient; any
    other least word raises ValueError.  The expansions it subtracts are
    memoized in memo, as for iota_enc.
    """
    base = n + 1
    work = {w: c for w, c in tdict.items() if c}  # so each step removes its lead
    coords = {}
    while work:
        lead = min(work)
        w = decode(lead, base, k)
        if 0 in w or encode(w, base) != lead or not is_lyndon(w):
            raise ValueError("element is not in the free Lie algebra")
        c = coords[w] = work[lead]
        add_scaled(work, iota_enc(n, w, memo), -c)
    return coords


# ---------------------------------------------------------------------------
# public element types


class TensorElement(SparseCombination):
    """Integer combination of degree-k tensor words (tuples over 1..n)."""

    __slots__ = ()

    def _key(self, word):
        word = tuple(word)
        if len(word) != self.degree:
            raise ValueError("word length does not match degree")
        if not all(1 <= c <= self.n for c in word):
            raise ValueError("letters out of range")
        return word

    def _label(self, word):
        return "".join(map(str, word))

    @classmethod
    def _from_enc(cls, n, degree, enc_terms):
        base = n + 1
        terms = {decode(w, base, degree): c for w, c in enc_terms.items() if c}
        return cls._unchecked(n, degree, terms)


class LieElement(SparseCombination):
    """Integer combination of degree-k basis monomials, keyed by Lyndon word."""

    __slots__ = ()

    def _key(self, word):
        word = tuple(exact_int(c) for c in word)
        if not word or min(word) < 1 or max(word) > self.n:
            raise ValueError("letters out of range")
        if not is_lyndon(word):
            raise ValueError(f"{word!r} is not a basis word")
        if len(word) != self.degree:
            raise ValueError("monomial does not match element degree")
        return word

    def _label(self, word):
        return _bracketed(word)

    @classmethod
    def generator(cls, n: int, i: int):
        return cls(n, 1, {(i,): 1})

    @classmethod
    def _from_enc(cls, n, degree, enc):
        """The element whose tensor expansion is `enc`; ValueError off the Lie subspace."""
        return cls._unchecked(n, degree, project_lyndon_enc(n, degree, enc))

    def _enc_tensor(self) -> dict:
        out: dict = {}
        for word, coeff in self.terms.items():
            add_scaled(out, iota_enc(self.n, word), coeff)
        return out


def embed_tensor(a: LieElement) -> TensorElement:
    """Expand every bracket as u(x)v - v(x)u; injective on each degree."""
    return TensorElement._from_enc(a.n, a.degree, a._enc_tensor())


def _tree_max_letter(tree):
    if isinstance(tree, int):
        return tree
    return max(_tree_max_letter(tree[0]), _tree_max_letter(tree[1]))


def _tree_enc(tree, n):
    if isinstance(tree, int):
        if not 1 <= tree <= n:
            raise ValueError("generator index out of range")
        return {tree: 1}, 1
    if len(tree) != 2:
        raise ValueError("bracket tree nodes must be pairs")
    a, la = _tree_enc(tree[0], n)
    b, lb = _tree_enc(tree[1], n)
    return _commutator(a, la, b, lb, n + 1), la + lb


def normalize(tree, n: int = None) -> LieElement:
    """Coordinates of an arbitrary bracket tree in the monomial basis.

    The tree is a generator index or a nested pair, e.g. ``((1, 2), 1)``
    for [[x1,x2],x1].  Expansion goes through the tensor algebra and is read
    back through the triangular leading-word correspondence, so antisymmetry
    and the Jacobi identity hold automatically.
    """
    if n is None:
        n = _tree_max_letter(tree)
    enc, degree = _tree_enc(tree, n)
    return LieElement._from_enc(n, degree, enc)


def bracket(a: LieElement, b: LieElement) -> LieElement:
    """Lie bracket [a, b], computed in the tensor algebra."""
    if a.n != b.n:
        raise ValueError("mixed alphabets")
    n = a.n
    out = _commutator(a._enc_tensor(), a.degree, b._enc_tensor(), b.degree, n + 1)
    return LieElement._from_enc(n, a.degree + b.degree, out)

"""Tangential derivations of the free Lie algebra and their trace maps.

A degree-k derivation is stored by the images of the generators, each a
degree-(k+1) Lie element.  The tangential subalgebra is spanned by the
elements sending x_i to [u, x_i] (u a Lyndon word of length k) and all other
generators to zero, named by the p_basis labels (i, u) that key p_coordinates.
They are a basis: l -> [l, x_i] kills only the multiples of x_i, and the
Lyndon words u of each content are certified independent by the rank check
of its identity block.  An identity block reads the Lyndon coordinates of a
Lie element of its content off the element itself; p_coordinates reads l off
[l, x_i] first and solves l there, and the image engine solves its own
elements there.  Blocks belong to the AdSolver of their caller (one image
level, one ImageBasis, one check_T0530 or one p_coordinates call) and go
with it, and so does the one expansion memo that the solver owns: its
blocks expand their words there, and an image level passes it to every
expansion it makes.

Degree and multidegree are both respected by every operation here, which lets
all of the heavy linear algebra run block by block: a derivation whose values
have content ``beta + e_i`` at key i never mixes with any other block.
"""

from __future__ import annotations

from math import gcd

from . import cyclic, exactlin, freelie
from ._words import (
    InconsistencyError,
    SparseCombination,
    add_scaled,
    decode,
    divisors,
    exact_int,
    encode,
    lyndon_words,
    lyndon_words_of_content,
    word_content,
)
from .cyclic import CyclicElement, JElement, QuotientMode
from .freelie import (
    LieElement,
    TensorElement,
    factor_enc,
    iota_enc,
    witt_rank,
)


class Derivation(SparseCombination):
    """Degree-k derivation, stored sparsely by generator index.

    ``values`` maps i to the nonzero image of x_i, a degree-(k+1) LieElement.
    """

    __slots__ = ()

    @property
    def values(self) -> dict:
        return self.terms

    def _key(self, i):
        i = exact_int(i)
        if not 1 <= i <= self.n:
            raise ValueError("generator index out of range")
        return i

    def _coeff(self, elt):
        if not isinstance(elt, LieElement):
            raise TypeError("values must be LieElements")
        if elt.n != self.n or elt.degree != self.degree + 1:
            raise ValueError("value degree must be derivation degree + 1")
        return elt

    def _term(self, i, elt):
        return f"+ x{i}* (x) ({elt})"

    def value(self, i: int) -> LieElement:
        got = self.terms.get(i)
        if got is None:
            return LieElement(self.n, self.degree + 1)
        return got


def tangential(n: int, label) -> Derivation:
    """Normalize [x_{w_1}, ..., x_{w_k}, x_i] for the label (i, w); store it at key i."""
    i, word = label
    i, word = exact_int(i), tuple(exact_int(c) for c in word)
    if not word:
        raise ValueError("empty word")
    tree = word[0]
    for letter in word[1:] + (i,):
        tree = (tree, letter)
    return Derivation(n, len(word), {i: freelie.normalize(tree, n)})


def tau1_generator(n: int, i: int, j: int) -> Derivation:
    """The degree-1 generator x_i* (x) [x_j, x_i]."""
    if i == j:
        raise ValueError("indices must differ")
    return tangential(n, (i, (j,)))


def p_basis(n: int, k: int):
    """Ordered labels (i, u) of the degree-k basis x_i* (x) [u, x_i], the keys of p_coordinates.

    (i, (i,)) is skipped since [x_i, x_i] = 0: n(n-1) labels at k = 1, n * witt_rank(n, k) above.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2, k >= 1")
    return tuple(basis_labels(n, lyndon_words(n, k)))


def basis_labels(n: int, words) -> list:
    """The labels (i, u) of p_basis on the Lyndon words u of words, in its order."""
    return [(i, u) for i in range(1, n + 1) for u in words if u != (i,)]


def p_rank(n: int, k: int) -> int:
    if k == 1:
        return n * (n - 1)
    return n * witt_rank(n, k)


# ---------------------------------------------------------------------------
# applying derivations through the tensor algebra


def _values_enc(f: Derivation) -> dict:
    return {i: (e._enc_tensor(), e.degree) for i, e in f.values.items()}


def _apply_values_enc(n, values_enc, tdict, length):
    """Extend a derivation to tensor words and apply it to an encoded element.

    Each occurrence of a generator with a nonzero image is replaced in turn by
    the image's expansion; the output degree is length + derivation degree.
    """
    base = n + 1
    out: dict = {}
    if not tdict or not values_enc:
        return out
    for word, coeff in tdict.items():
        rest = word
        for pos in range(length - 1, -1, -1):
            rest, letter = divmod(rest, base)
            hit = values_enc.get(letter)
            if hit is None:
                continue
            repl, rlen = hit
            # word = high | letter | low with len(low) = length - 1 - pos
            lowlen = length - 1 - pos
            lowmod = base**lowlen
            low = word % lowmod
            high = word // (lowmod * base)
            hshift = base**rlen * lowmod
            for rw, rc in repl.items():
                key = high * hshift + rw * lowmod + low
                out[key] = out.get(key, 0) + coeff * rc
    return {w: c for w, c in out.items() if c}


def apply(f: Derivation, a: LieElement) -> LieElement:
    """Leibniz extension of f; output degree is deg(a) + deg(f)."""
    if f.n != a.n:
        raise ValueError("mixed alphabets")
    if a.degree < 1:
        raise ValueError("need degree >= 1")
    enc = _apply_values_enc(f.n, _values_enc(f), a._enc_tensor(), a.degree)
    return LieElement._from_enc(f.n, a.degree + f.degree, enc)


def der_bracket(f: Derivation, g: Derivation) -> Derivation:
    """Commutator bracket [f, g] = f o g - g o f on generator images."""
    if f.n != g.n:
        raise ValueError("mixed alphabets")
    n = f.n
    degree = f.degree + g.degree
    fe, ge = _values_enc(f), _values_enc(g)
    values = {}
    for i in range(1, n + 1):
        acc: dict = {}
        hit = ge.get(i)
        if hit is not None:
            acc = _apply_values_enc(n, fe, hit[0], hit[1])
        hit = fe.get(i)
        if hit is not None:
            add_scaled(acc, _apply_values_enc(n, ge, hit[0], hit[1]), -1)
        if acc:
            values[i] = LieElement._from_enc(n, degree + 1, acc)
    return Derivation._unchecked(n, degree, values)


def contract(f: Derivation) -> TensorElement:
    """Pair each x_i* with the leading tensor slot of the image of x_i."""
    n = f.n
    base = n + 1
    k = f.degree
    out: dict = {}
    for i, elt in f.values.items():
        shift = base ** (elt.degree - 1)
        for w, c in elt._enc_tensor().items():
            if w // shift == i:
                key = w - i * shift
                out[key] = out.get(key, 0) + c
    return TensorElement._from_enc(n, k, out)  # _from_enc drops the zeros


def trace(f: Derivation, mode=QuotientMode.FULL) -> CyclicElement:
    """Contraction followed by the cyclic projection and the mode's quotient."""
    return cyclic.reduce(cyclic.project_cyclic(contract(f)), mode)


def trace_J(f: Derivation) -> JElement:
    """The degree-4 refinement detecting what bar and tilde both miss."""
    if f.degree != 4:
        raise ValueError("trace_J needs a degree-4 derivation")
    n = f.n
    acc: dict = {}
    mod = cyclic.JModule.get(n)
    for (v, w, x, y), coeff in contract(f).terms.items():
        add_scaled(acc, mod.monomial(v, x, w, y), coeff)
        add_scaled(acc, mod.monomial(v, y, w, x), -2 * coeff)
    return JElement(n, acc)


# ---------------------------------------------------------------------------
# block solver: coordinates of tangential elements on the (i, u) basis


class _AdBlock:
    """The identity block of one content: the Lyndon basis u of its Lie elements.

    The block's Lyndon words u have content content, of degree k =
    sum(content), and its rows are their expansions.  A Lie element l of that
    content is read at u's own code, and the coordinates follow by forward
    substitution through the unitriangular matrix of the rows (the least
    word of the expansion of u is u, with coefficient 1: freelie.factor_enc).
    The rows are certified independent by an IncrementalSpan, and every
    solve re-multiplies them.  The expansions go to memo, the solver's (see
    AdSolver).
    """

    __slots__ = ("us", "codes", "rows", "lower")

    def __init__(self, n, content, memo):
        base = n + 1
        self.us = us = lyndon_words_of_content(content)
        self.codes = codes = [encode(u, base) for u in us]
        self.rows = [iota_enc(n, u, memo) for u in us]
        span = exactlin.IncrementalSpan(base ** sum(content))
        for row in self.rows:
            if not span.insert(dict(row)):
                raise InconsistencyError("block rows unexpectedly dependent")
        col_of = {w: col for col, w in enumerate(codes)}
        self.lower = [[] for _ in codes]
        for j, row in enumerate(self.rows):
            for w, m in row.items():
                col = col_of.get(w)
                if col is not None and col > j:
                    self.lower[col].append((j, m))

    def solve(self, tdict):
        """Integer coordinates c with sum c_u u equal to tdict, verified;
        ArithmeticError if there are none."""
        if not tdict:
            return {}
        coeffs = []
        for w, lower in zip(self.codes, self.lower):
            c = tdict.get(w, 0)
            for j, m in lower:
                c -= m * coeffs[j]
            coeffs.append(c)
        # full verification: the solved combination must reproduce the input
        check: dict = {}
        for c, row in zip(coeffs, self.rows):
            add_scaled(check, row, c)
        if check != tdict:
            raise ArithmeticError("input is outside the span of the block's rows")
        return {u: c for u, c in zip(self.us, coeffs) if c}


class AdSolver:
    """The identity blocks (_AdBlock) of one caller, built lazily per content.

    A block reads its degree off its content, so one solver serves every
    degree: an image level solves its relabellings (degree m) and its
    brackets (degree m + 1) on blocks of one solver.  Its blocks and its
    expansion memo (memo, see freelie.iota_enc) live as long as the solver:
    the caller makes one and drops it when it is done.
    """

    def __init__(self, n):
        self.n = n
        self.blocks: dict = {}
        self.memo: dict = {}

    def block(self, content) -> _AdBlock:
        got = self.blocks.get(content)
        if got is None:
            got = self.blocks[content] = _AdBlock(self.n, content, self.memo)
        return got


def p_coordinates(f: Derivation) -> dict:
    """Coordinates {(i, u): c} of a tangential derivation, keyed by p_basis labels.

    Each value at x_i is split by content, and each part T is [l, x_i] =
    l.x_i - x_i.l for one tensor l, read off T: the coefficient of v.i in T
    is l[v] - l[v'.i] when v = i.v', and l[v] otherwise.  One check that
    [l, x_i] is T, and l's solve on the identity block of its content, which
    verifies that l is Lie, give the coordinates of l, those of T at the
    labels (i, u).  Raises ArithmeticError when f is not an integer
    combination of the basis, so this doubles as the membership check for
    the tangential subalgebra.
    """
    n, k = f.n, f.degree
    base = n + 1
    shift = base ** (k - 1)
    solver = AdSolver(n)
    out = {}
    for i, elt in f.values.items():
        by_content: dict = {}
        for w, c in elt._enc_tensor().items():
            by_content.setdefault(word_content(decode(w, base, k + 1), n), {})[w] = c
        for content, T in by_content.items():
            if content[i - 1] == 0:
                raise ArithmeticError("component missing its own generator letter")
            # T[v.i] adds to l[v] and, while v = v'.i ends in i, to l[i.v'].  The
            # chain ends: l's content has a letter other than i, as no Lie
            # element has content m e_i for m >= 2.
            l: dict = {}
            for w, c in T.items():
                v, last = divmod(w, base)
                if last != i:
                    continue
                l[v] = l.get(v, 0) + c
                while v % base == i:
                    v = i * shift + v // base
                    l[v] = l.get(v, 0) + c
            l = {v: c for v, c in l.items() if c}
            if freelie._commutator(l, k, {i: 1}, 1, base) != T:
                raise ArithmeticError("value is not a bracket with its own generator")
            lcontent = list(content)
            lcontent[i - 1] -= 1
            for u, c in solver.block(tuple(lcontent)).solve(l).items():
                out[(i, u)] = c
    return out


# ---------------------------------------------------------------------------
# trace rows of basis elements, used by every rank computation downstream


class NecklaceColumns(dict):
    """Closed-word codes of one content block -> block-local necklace columns.

    Columns are numbered 0..ncols-1 in the order their necklaces are added,
    and every rotation of an added word maps to its column.
    """

    def __init__(self):
        super().__init__()
        self.ncols = 0

    @classmethod
    def of_content(cls, content, words=None):
        """Every necklace of the words of content on letters 1..len(content).

        Each is a power v^d of a Lyndon word v of content/d, for d dividing
        the gcd of content; columns go by d and then by v, in the order of
        lyndon_words_of_content.  words, if given, are the Lyndon words of
        content, so a caller that has them need not make them again.  A
        content with no Lyndon word has no trace row, and gets no column.
        """
        cols = cls()
        if words is None:
            words = lyndon_words_of_content(content)
        base, k = len(content) + 1, sum(content)
        for d in divisors(gcd(*content)) if words else ():
            for v in lyndon_words_of_content(tuple(c // d for c in content)) if d > 1 else words:
                cols.add(encode(v * d, base), k, base)
        return cols

    def add(self, w, k, base):
        """Give the necklace of the length-k code w a new column; return it."""
        col = self.ncols
        self.ncols += 1
        shift = base ** (k - 1)
        for _ in range(k):
            self[w] = col
            w = (w % shift) * base + w // shift
        return col


def trace_row_enc(n: int, k: int, u, cols: NecklaceColumns, memo: dict, letters=None) -> dict:
    """Trace rows {i: {col: c}} of x_i* (x) [u, x_i] for each letter i of letters
    (every letter if None), from the factor pairs of u.

    The contraction pairs x_i* with each word i.v of the expansion of u and
    closes the cycle as v.i, a rotation of i.v; the bracket part -x_i u dies
    under the cyclic projection, except in degree 1, where it leaves -(u) in
    every row.  Above degree 1, u expands as A(x)B - B(x)A over its standard
    factors (freelie.factor_enc), and wb.wa is a rotation of wa.wb, so each
    pair (wa, wb) of factor words adds ca*cb to the row of the first letter
    i of wa and subtracts it from the row of the first letter j of wb, both
    at the necklace of wa.wb: one pass over the pairs, and the expansion of
    u itself is never formed.  Only the pairs whose i or j is in letters are
    visited, and a pair with i == j adds nothing.  cols is the column map of
    u's content (NecklaceColumns.of_content), which it only reads; memo
    holds the expansions of the factors of u and theirs (freelie.iota_enc).
    The caller decides how long both live.  Rows are zero-free, and a letter
    whose row is zero is left out.  Above degree 1 the rows of all the
    letters sum to zero, the cyclic projection of u.
    """
    base = n + 1
    letters = range(1, base) if letters is None else sorted(letters)
    if k == 1:
        # the row of u[0] is +(u) - (u)
        return {i: {cols[u[0]]: -1} for i in letters if i != u[0]}
    A, la, B, lb = factor_enc(n, u, memo)
    shift_a = base ** (la - 1)
    shift_b = base ** (lb - 1)
    high = base**lb
    sink: dict = {}  # the row of every letter outside letters; what it gathers is dropped
    row_of = [sink] * base
    for i in letters:
        row_of[i] = {}
    touching = None  # the (wb, cb, row) of the words of B that start in letters
    for wa, ca in A.items():
        row_i = row_of[wa // shift_a]
        wa *= high
        if row_i is sink:
            if touching is None:
                touching = [(wb, cb, row_of[wb // shift_b]) for wb, cb in B.items()]
                touching = [pair for pair in touching if pair[2] is not sink]
            for wb, cb, row_j in touching:
                col = cols[wa + wb]
                row_j[col] = row_j.get(col, 0) - ca * cb
            continue
        for wb, cb in B.items():
            row_j = row_of[wb // shift_b]
            if row_j is row_i:  # wa and wb start with one letter: nothing to add
                continue
            col = cols[wa + wb]
            c = ca * cb
            row_i[col] = row_i.get(col, 0) + c
            row_j[col] = row_j.get(col, 0) - c
    rows = {}
    for i in letters:
        row = {col: c for col, c in row_of[i].items() if c}
        if row:
            rows[i] = row
    return rows

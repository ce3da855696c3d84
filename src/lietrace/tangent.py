"""Tangential derivations of the free Lie algebra and their trace maps.

A degree-k derivation is stored by the images of the generators, each a
degree-(k+1) Lie element.  The tangential subalgebra is spanned by the
elements sending x_i to [u, x_i] (u a Lyndon word of length k) and all other
generators to zero, named by the p_basis labels (i, u) that key p_coordinates:
a basis, certified by an explicit rank check per (i, content) block solved on.
Blocks belong to the AdSolver of their caller (one image level, or one
p_coordinates call) and go with it, and so does the one expansion memo that
the solver owns: its blocks expand their words there, and an image level
passes it to every expansion it makes.

Degree and multidegree are both respected by every operation here, which lets
all of the heavy linear algebra run block by block: a derivation whose values
have content ``beta + e_i`` at key i never mixes with any other block.
"""

from __future__ import annotations

from . import cyclic, exactlin, freelie
from ._words import (
    InconsistencyError,
    SparseCombination,
    add_scaled,
    decode,
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
    ad_enc,
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
    """One (i, content) block of the basis [u, x_i], ready to solve against.

    T = [l, x_i] = l.x_i - x_i.l gives l[w] = T[w.i] + l[rot(w)] for a word w
    that starts with i, where rot(i.v) = v.i, and l[w] = T[w.i] otherwise; so
    l is read off T at each Lyndon word u of the block as a sum over the
    rotation chain of u.  Its coordinates then follow by forward substitution
    through the unitriangular iota_enc matrix of the block's Lyndon words.
    The expansions go to memo, the solver's (see AdSolver).
    """

    __slots__ = ("n", "i", "k", "us", "rows", "reads", "lower")

    def __init__(self, n, k, i, content, memo):
        self.n = n
        self.i = i
        self.k = k
        # [x_i, x_i] = 0
        self.us = us = tuple(u for u in lyndon_words_of_content(content) if u != (i,))
        self.rows = [ad_enc(n, u, i, memo) for u in self.us]
        span = exactlin.IncrementalSpan((n + 1) ** (k + 1))
        for row in self.rows:
            if not span.insert(dict(row)):
                raise InconsistencyError("ad rows unexpectedly dependent")
        base = n + 1
        shift = base ** (k - 1)
        codes = [encode(u, base) for u in us]
        self.reads = []
        for w in codes:
            keys = [w * base + i]
            while w // shift == i:  # terminates: no block word is i^k
                w = (w - i * shift) * base + i
                keys.append(w * base + i)
            self.reads.append(keys)
        col_of = {w: col for col, w in enumerate(codes)}
        self.lower = [[] for _ in codes]
        for j, u in enumerate(us):
            for w, m in iota_enc(n, u, memo).items():
                col = col_of.get(w)
                if col is not None and col > j:
                    self.lower[col].append((j, m))

    def solve(self, tdict):
        """Integer coordinates c with sum c_u [u, x_i] equal to tdict, verified."""
        if not tdict:
            return {}
        coeffs = []
        for keys, lower in zip(self.reads, self.lower):
            c = sum(tdict.get(w, 0) for w in keys)
            for j, m in lower:
                c -= m * coeffs[j]
            coeffs.append(c)
        # full verification: the solved combination must reproduce the input
        check: dict = {}
        for c, row in zip(coeffs, self.rows):
            add_scaled(check, row, c)
        if check != tdict:
            raise ArithmeticError("component is outside the tangential block")
        return {u: c for u, c in zip(self.us, coeffs) if c}


class AdSolver:
    """The _AdBlocks of one degree k, built lazily per (i, content).

    Its blocks and its expansion memo (memo, see freelie.iota_enc) live as
    long as the solver: the caller that solves on degree k makes one and
    drops it when it is done.
    """

    def __init__(self, n, k):
        self.n = n
        self.k = k
        self.blocks: dict = {}
        self.memo: dict = {}

    def block(self, i, content) -> _AdBlock:
        key = (i, content)
        got = self.blocks.get(key)
        if got is None:
            got = _AdBlock(self.n, self.k, i, content, self.memo)
            self.blocks[key] = got
        return got


def p_coordinates(f: Derivation) -> dict:
    """Coordinates {(i, u): c} of a tangential derivation, keyed by p_basis labels.

    Each value is split by content and solved on its (i, content) block.
    Raises ArithmeticError when f is not an integer combination of the basis,
    so this doubles as the membership check for the tangential subalgebra.
    """
    n, k = f.n, f.degree
    solver = AdSolver(n, k)
    out = {}
    for i, elt in f.values.items():
        by_content: dict = {}
        for w, c in elt._enc_tensor().items():
            by_content.setdefault(word_content(decode(w, n + 1, k + 1), n), {})[w] = c
        for content, chunk in by_content.items():
            if content[i - 1] == 0:
                raise ArithmeticError("component missing its own generator letter")
            ucontent = list(content)
            ucontent[i - 1] -= 1
            for u, c in solver.block(i, tuple(ucontent)).solve(chunk).items():
                out[(i, u)] = c
    return out


# ---------------------------------------------------------------------------
# trace rows of basis elements, used by every rank computation downstream


class NecklaceColumns(dict):
    """Closed-word codes of one content block -> block-local necklace columns.

    Columns are numbered 0..ncols-1 in the order their necklaces first
    arrive, and every rotation of an arrived word maps to its column.
    """

    def __init__(self):
        super().__init__()
        self.ncols = 0

    def add(self, w, k, base):
        """Give the necklace of the length-k code w a new column; return it."""
        col = self.ncols
        self.ncols += 1
        shift = base ** (k - 1)
        for _ in range(k):
            self[w] = col
            w = (w % shift) * base + w // shift
        return col


def trace_row_enc(n: int, k: int, u, cols: NecklaceColumns, memo: dict) -> dict:
    """Trace rows {i: {col: c}} of every x_i* (x) [u, x_i], from the factor pairs of u.

    The contraction pairs x_i* with each word i.v of the expansion of u and
    closes the cycle as v.i, a rotation of i.v; the bracket part -x_i u dies
    under the cyclic projection, except in degree 1, where it leaves -(u) in
    every row.  Above degree 1, u expands as A(x)B - B(x)A over its standard
    factors (freelie.factor_enc), and wb.wa is a rotation of wa.wb, so each
    pair (wa, wb) of factor words adds ca*cb to the row of the first letter
    of wa and subtracts it from the row of the first letter of wb, both at
    the necklace of wa.wb: one pass over the pairs, and the expansion of u
    itself is never formed.  cols sends each word to its necklace column,
    and a word seen for the first time registers all its rotations there,
    for every pair, so every word of the expansion of u finds its column;
    memo holds the expansions of the factors of u and theirs
    (freelie.iota_enc).  The caller decides how long both live.  Rows are
    zero-free, and a letter whose row is zero is left out.
    """
    base = n + 1
    if k == 1:
        col = cols.get(u[0])
        if col is None:
            col = cols.add(u[0], 1, base)
        # the row of u[0] is +(u) - (u)
        return {i: {col: -1} for i in range(1, n + 1) if i != u[0]}
    A, la, B, lb = factor_enc(n, u, memo)
    shift_a = base ** (la - 1)
    shift_b = base ** (lb - 1)
    high = base**lb
    out: dict = {}
    for wa, ca in A.items():
        i = wa // shift_a
        wa *= high
        row_i = out.get(i)
        if row_i is None:
            row_i = out[i] = {}
        for wb, cb in B.items():
            w = wa + wb
            col = cols.get(w)
            if col is None:  # registered for every pair, even one that adds nothing
                col = cols.add(w, k, base)
            j = wb // shift_b
            if i != j:
                row_j = out.get(j)
                if row_j is None:
                    row_j = out[j] = {}
                c = ca * cb
                row_i[col] = row_i.get(col, 0) + c
                row_j[col] = row_j.get(col, 0) - c
    rows = {}
    for i, row in out.items():
        row = {col: c for col, c in row.items() if c}
        if row:
            rows[i] = row
    return rows

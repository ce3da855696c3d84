"""Reference routines for the tests: second routes, independent of the package's
fraction-free elimination (``exactlin.IncrementalSpan``).

``rref`` is a plain Gauss-Jordan elimination over ``Fraction``; ``rank`` reads
its pivots, and ``trace_image_dim_direct`` ranks every content block on n
letters with it, with no S_n orbits.  ``from_p_coordinates`` inverts
``tangent.p_coordinates``: it builds a derivation from its labels, and
``rotations`` lists every rotation of a word, against ``_words.min_rotation``.
``principal_cocycle`` multiplies each action matrix by a vector, where
``grouppres._coboundaries`` reads the coboundaries off the matrix columns.
"""

from fractions import Fraction

from lietrace._words import add_scaled, compositions, exact_int
from lietrace.cyclic import QuotientMode, mode_width
from lietrace.exactlin import _to_int_vec
from lietrace.freelie import LieElement, ad_enc
from lietrace.grouppres import CrossedHom
from lietrace.johnson import _trace_block
from lietrace.tangent import Derivation


def rref(rows, ncols):
    """Reduced row echelon form over Q: (pivot columns, reduced rows).

    Each row is checked by ``_to_int_vec`` (``int`` entries only), then
    eliminated over ``Fraction``; the RREF of a row space is unique.  The
    reduced rows are {col: Fraction} dicts with pivot entry 1, fully reduced
    against each other.
    Pivot rows are chosen by sparsity (fewest stored entries), ties broken by
    leading column and then input order.
    """
    work = [{c: Fraction(v) for c, v in _to_int_vec(r, ncols).items()} for r in rows]
    work = [r for r in work if r]
    pivots, done = [], []
    for col in range(ncols):
        cand = [r for r in work if col in r]
        if not cand:
            continue
        cand.sort(key=lambda r: (len(r), min(r)))
        piv = cand[0]
        work.remove(piv)
        inv = 1 / piv[col]
        piv = {c: v * inv for c, v in piv.items()}
        for other in work + done:
            a = other.get(col)
            if a:
                add_scaled(other, piv, -a)
        work = [r for r in work if r]
        pivots.append(col)
        done.append(piv)
    return pivots, done


def rank(rows, ncols) -> int:
    """Rank over Q, by exact rational elimination."""
    return len(rref(rows, ncols)[0])


def trace_image_dim_direct(n: int, k: int) -> int:
    """Independent route: exact rational rank of every content block (no orbits)."""
    total = 0
    for content in compositions(k, n):
        if mode_width(content, QuotientMode.BAR):
            _, rows, cols = _trace_block(k, content)
            total += rank(rows, cols.ncols)
    return total


def rotations(word):
    """Every rotation of word, the brute-force route to _words.min_rotation."""
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


def from_p_coordinates(n: int, k: int, coords: dict) -> Derivation:
    """Inverse of p_coordinates: the values sum c [u, x_i] over {(i, u): c}."""
    by_i: dict = {}
    for (i, u), c in coords.items():
        add_scaled(by_i.setdefault(i, {}), ad_enc(n, u, i), c)
    values = {i: LieElement._from_enc(n, k + 1, enc) for i, enc in by_i.items() if enc}
    return Derivation._unchecked(n, k, values)


def principal_cocycle(action, p, v) -> CrossedHom:
    """The coboundary g -> g.v - v."""
    v = tuple(exact_int(x) for x in v)
    images = {}
    for g in p.generators:
        gv = tuple(sum(a * x for a, x in zip(row, v)) for row in action.matrix(g))
        images[g] = tuple(a - b for a, b in zip(gv, v))
    return CrossedHom(images)

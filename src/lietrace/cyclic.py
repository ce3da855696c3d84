"""Cyclic words (necklaces) and their quotients, plus the degree-4 module J.

The degree-k cyclic space has the necklaces of length k over ``1..n`` as a
basis, each named by its least rotation, a plain tuple (``min_rotation``).
Two quotients show up downstream: ``bar`` kills the power necklaces x_i^k,
and ``tilde`` kills every necklace in which each occurring letter repeats.  Both killed sets are unions of basis necklaces, so reduction is a
coordinate projection.
"""

from __future__ import annotations

import enum
from functools import cache

from . import _words, exactlin
from ._words import (
    InconsistencyError,
    SparseCombination,
    add_scaled,
    exact_int,
    min_rotation,
    word_content,
)
from .freelie import TensorElement


class QuotientMode(enum.Enum):
    FULL = "full"
    BAR = "bar"
    TILDE = "tilde"

    @classmethod
    def coerce(cls, mode):
        if isinstance(mode, cls):
            return mode
        return cls(str(mode).lower())


class CyclicElement(SparseCombination):
    """Integer combination of length-k necklaces, keyed by least rotation."""

    __slots__ = ()

    def _key(self, word):
        word = tuple(exact_int(c) for c in word)
        if len(word) != self.degree:
            raise ValueError("necklace length does not match degree")
        if not all(1 <= c <= self.n for c in word):
            raise ValueError("letters out of range")
        return min_rotation(word)

    def _label(self, word):
        return "(" + ",".join(map(str, word)) + ")"


def project_cyclic(t: TensorElement) -> CyclicElement:
    """Send each tensor word to its necklace; linear, kills every bracket."""
    acc: dict = {}
    for word, coeff in t.terms.items():
        neck = min_rotation(word)
        acc[neck] = acc.get(neck, 0) + coeff
    return CyclicElement._unchecked(t.n, t.degree, {k: c for k, c in acc.items() if c})


def _keeps(content, mode) -> bool:
    """Whether the mode's quotient keeps a content class: each quotient keeps
    or kills a class whole, bar the class of a power x_i^k and tilde every
    class in which no letter occurs once."""
    if mode is QuotientMode.BAR:
        return sum(1 for c in content if c) != 1
    if mode is QuotientMode.TILDE:
        return 1 in content
    return True


def reduce(e: CyclicElement, mode) -> CyclicElement:
    """Apply the bar/tilde coordinate projection (full is the identity)."""
    mode = QuotientMode.coerce(mode)
    if mode is QuotientMode.FULL:
        return e
    terms = {k: c for k, c in e.terms.items() if _keeps(word_content(k, e.n), mode)}
    return CyclicElement._unchecked(e.n, e.degree, terms)


def mode_width(content, mode) -> int:
    """Number of necklaces of one content class that survive the mode's quotient."""
    return _words.necklace_count(content) if _keeps(content, QuotientMode.coerce(mode)) else 0


def cyclic_rank(n: int, k: int, mode=QuotientMode.FULL) -> int:
    """Rank of the degree-k cyclic space or of its bar/tilde quotient."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    mode = QuotientMode.coerce(mode)
    if mode is QuotientMode.FULL:
        total = sum(
            _words.euler_phi(d) * n ** (k // d) for d in _words.divisors(k)
        )
        if total % k:
            raise InconsistencyError("necklace count is not an integer")
        return total // k
    if mode is QuotientMode.BAR:
        return cyclic_rank(n, k, QuotientMode.FULL) - n
    return sum(mode_width(c, mode) for c in _words.compositions(k, n))


# ---------------------------------------------------------------------------
# the degree-4 module J: quotient of wedge (x) wedge by symmetry and a
# three-term shuffle relation


def _wedge(a, b):
    """(sign, sorted pair) of x_a ^ x_b, or None when degenerate."""
    if a == b:
        return None
    return (1, (a, b)) if a < b else (-1, (b, a))


class JModule:
    """Concrete presentation of J for one n: spanning pairs modulo relations."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("need n >= 2")
        self.n = n
        self.pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        w = len(self.pairs)
        self.size = w * w
        rows = set()
        for ia in range(w):
            for ib in range(ia + 1, w):
                rows.add(((ia * w + ib, 1), (ib * w + ia, -1)))
        rng = range(1, n + 1)
        for v in rng:
            for x in rng:
                for ww in rng:
                    for y in rng:
                        row = self._relation_row(v, ww, x, y)
                        if row:
                            rows.add(row)
        self._relations = sorted(rows)
        # +-1 pivots with no core left are a Z-basis of the relation lattice,
        # so it is saturated (J torsion free); each pivot row, reduced against
        # the later ones and scaled to pivot 1, holds no other pivot column
        pivots, core = exactlin._unit_pivots([dict(r) for r in self._relations])
        if core:
            raise InconsistencyError(f"{len(core)} J relation rows have no unit pivot")
        self._pivot_rows = {}
        for col, row in reversed(pivots):
            row = {c: v * row[col] for c, v in row.items()}
            for c in [c for c in row if c in self._pivot_rows]:
                add_scaled(row, self._pivot_rows[c], -row[c])
            self._pivot_rows[col] = {c: row[c] for c in sorted(row)}
        self.rank = self.size - len(self._pivot_rows)

    def monomial(self, a, b, c, d) -> dict:
        """Coordinates {column: +-1} of (x_a ^ x_b)(x_c ^ x_d); empty when it vanishes."""
        wa, wb = _wedge(a, b), _wedge(c, d)
        if wa is None or wb is None:
            return {}
        (s1, p1), (s2, p2) = wa, wb
        return {self.pair_index[p1] * len(self.pairs) + self.pair_index[p2]: s1 * s2}

    def _relation_row(self, v, w, x, y):
        """Row of the three-term relation (v^w)(x^y) - (x^w)(v^y) - (v^x)(w^y)."""
        acc = self.monomial(v, w, x, y)
        add_scaled(acc, self.monomial(x, w, v, y), -1)
        add_scaled(acc, self.monomial(v, x, w, y), -1)
        return tuple(sorted(acc.items())) if acc else None

    @classmethod
    @cache
    def get(cls, n: int) -> "JModule":
        return cls(n)

    def reduce_coords(self, coords: dict) -> dict:
        """Canonical residue of an integer coordinate vector modulo the relation space."""
        work = {c: v for c, v in coords.items() if v}
        for col in sorted(work):
            a = work.get(col)
            if not a:
                continue
            row = self._pivot_rows.get(col)
            if row is None:
                continue
            add_scaled(work, row, -a)
        return work

    def describe_coord(self, col):
        w = len(self.pairs)
        return self.pairs[col // w], self.pairs[col % w]


class JElement(SparseCombination):
    """Element of J in canonical reduced coordinates (``coords``, integer)."""

    __slots__ = ()

    def __init__(self, n: int, coords=()):
        super().__init__(n, 4, coords)

    @property
    def coords(self) -> dict:
        return self.terms

    def _key(self, col):
        col = exact_int(col)
        if not 0 <= col < JModule.get(self.n).size:
            raise ValueError("column out of range")
        return col

    def _canonical(self, terms):
        return JModule.get(self.n).reduce_coords(terms)

    def _label(self, col):
        (a, b), (c, d) = JModule.get(self.n).describe_coord(col)
        return f"(x{a}^x{b})(x{c}^x{d})"


def j_rank(n: int) -> int:
    """Rank of J; the closed form n^2(n^2-1)/12 is asserted in the tests."""
    return JModule.get(n).rank


def j_project(n: int, a: int, b: int, c: int, d: int) -> JElement:
    """Canonical coordinates of (x_a ^ x_b)(x_c ^ x_d) in J."""
    return JElement(n, JModule.get(n).monomial(a, b, c, d))

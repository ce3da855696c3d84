"""Exact sparse linear algebra over the rationals and the integers.

Ranks, kernels, incremental row spans, Smith and Hermite normal forms, and
structures of finitely generated abelian quotients.  Every elimination is
fraction-free over ``int``, at arbitrary precision; no floating point is used
anywhere, so every reported number is exact.

Every entry point takes plain rows: {col: int} dicts or dense lists of
``int``.  They are checked in one place, ``_to_int_vec``: columns and values
must be ``int``, columns in 0..ncols-1, so a float, a bool or a ``Fraction``
raises ``ValueError``.
"""

from __future__ import annotations

import heapq
from math import gcd

from ._words import InconsistencyError, exact_int, record


def kernel_basis(rows, ncols):
    """Primitive integer basis of the right null space over Q as {col: int}
    dicts; one vector per free column, in increasing order.

    The vectors are those of IncrementalSpan.kernel, keyed free column first,
    then pivot columns ascending; each is positive at its free column.  The
    kernel vector on one free column and the pivot columns is unique up to
    scale, so these are the primitive multiples of the rational kernel read
    off the reduced row echelon form.
    """
    span = IncrementalSpan(ncols)
    for row in rows:
        span.insert(row)
    basis = []
    for x in span.kernel(range(ncols)):
        free = next(iter(x))
        basis.append({free: x.pop(free), **{c: x[c] for c in sorted(x)}})
    return basis


def _to_int_vec(vec, ncols):
    """Check a {col: value} dict or dense list; return a plain {col: int} dict.

    Every column must be an ``int`` in 0..ncols-1 and every value an ``int``;
    a float, a bool or a ``Fraction`` raises ``ValueError``.  Zeros are dropped.
    """
    items = vec.items() if isinstance(vec, dict) else enumerate(vec)
    out = {}
    for col, val in items:
        if type(val) is not int:
            val = _as_int(val)
        if type(col) is not int or col < 0 or col >= ncols:
            raise ValueError(f"index {col!r} out of range 0..{ncols - 1}")
        if val:
            out[col] = val
    return out


def _make_primitive(v):
    g = 0
    for val in v.values():
        g = gcd(g, val)
        if g == 1:
            return
    if g > 1:
        for col in v:
            v[col] //= g


class IncrementalSpan:
    """A growing row space with exact incremental membership tests.

    Rows are held internally as primitive integer vectors in row echelon form,
    one per pivot column; insertion order never changes the row space or the
    final dimension.
    """

    __slots__ = ("ncols", "_rows")

    def __init__(self, ncols: int):
        self.ncols = int(ncols)
        self._rows: dict = {}  # pivot column -> (pivot value > 0, {col: int})

    @property
    def dim(self) -> int:
        return len(self._rows)

    def rows(self) -> list:
        """The stored rows, a basis of the span, in insertion order.

        Each is a {col: int} dict shared with the span: never mutate it.
        """
        return [row for _, row in self._rows.values()]

    def _reduce(self, v):
        """Reduce v (mutated) against the stored rows; returns the remainder."""
        rows = self._rows
        if not v:
            return v
        heap = list(v)
        heapq.heapify(heap)
        steps = 0
        while heap:
            c = heapq.heappop(heap)
            a = v.get(c)
            if not a:
                v.pop(c, None)
                continue
            hit = rows.get(c)
            if hit is None:
                break  # c is the live leading column
            p, row = hit
            del v[c]
            g = gcd(a, p)
            mv, ma = p // g, a // g
            if mv != 1:
                for cc in v:
                    v[cc] *= mv
            for cc, val in row.items():
                if cc == c:
                    continue
                old = v.get(cc)
                if old is None:
                    v[cc] = -ma * val
                    heapq.heappush(heap, cc)
                else:
                    nv = old - ma * val
                    if nv:
                        v[cc] = nv
                    else:
                        del v[cc]
            steps += 1
            if mv != 1 and steps % 8 == 0:
                _make_primitive(v)
        return v

    def insert(self, vec) -> bool:
        """Insert a vector; True iff it was independent of the current span."""
        v = self._reduce(_to_int_vec(vec, self.ncols))
        if not v:
            return False
        _make_primitive(v)
        lead = min(v)
        if v[lead] < 0:
            for col in v:
                v[col] = -v[col]
        self._rows[lead] = (v[lead], v)
        return True

    def contains(self, vec) -> bool:
        return not self._reduce(_to_int_vec(vec, self.ncols))

    def kernel(self, cols):
        """Primitive integer basis of the right kernel of the stored rows on cols.

        One vector per column of cols that holds no pivot, in increasing
        order, each keyed by that free column first and nonzero there; found by
        fraction-free back substitution in decreasing pivot order.  Over Q the
        stored rows span exactly the vectors on cols orthogonal to the result.
        """
        cols = set(cols)
        rows = self._rows
        if any(not cols.issuperset(row) for _, row in rows.values()):
            raise ValueError("a stored row has a column outside cols")
        order = sorted(rows, reverse=True)
        basis = []
        for free in sorted(cols.difference(rows)):
            x = {free: 1}
            for c in order:
                p, row = rows[c]
                s = _dot(row, x)
                if s:
                    g = gcd(s, p)
                    if p != g:
                        for cc in x:
                            x[cc] *= p // g
                    x[c] = -(s // g)
            _make_primitive(x)
            basis.append(x)
        if len(basis) != len(cols) - self.dim or any(
            _dot(row, x) for _, row in rows.values() for x in basis
        ):
            raise InconsistencyError("span kernel is not orthogonal to the span")
        return basis


def _dot(a, b):
    """Dot product of two sparse {col: value} vectors."""
    if len(a) > len(b):
        a, b = b, a
    return sum(v * b[c] for c, v in a.items() if c in b)


def incremental_rank(rows, ncols, bound=None) -> int:
    """Rank over Q of sparse integer rows, inserted sparsest first.

    Stops once the span fills every column the rows touch.  After more
    consecutive dependent rows than the span's codimension, a verified kernel
    K of the span (``IncrementalSpan.kernel``) certifies every later row
    orthogonal to K as dependent, so it is skipped unreduced; a row not
    orthogonal to K is independent: it is inserted and K is dropped.

    bound, if given, is an upper bound on the rank that the caller
    guarantees.  The rows are then read lazily in the order given (a
    generator may make each one on demand), insertion stops once the span
    reaches bound, and the codimension is taken against all ncols columns.
    """
    if bound is None:
        # a dense row is read into a {col: int} dict here, so its columns are
        # its indices; a dict row is checked where the loop first reads it
        rows = [r if isinstance(r, dict) else _to_int_vec(r, ncols) for r in rows]
        rows = sorted(filter(None, rows), key=len)
        cols = set().union(*rows)
        bound = len(cols)
    else:
        cols = range(ncols)
    span = IncrementalSpan(ncols)
    kernel, rejected = None, 0
    for row in rows if bound > 0 else ():
        if not row:
            continue
        if kernel is not None:
            row = _to_int_vec(row, ncols)  # a skipped row is checked too
            if not any(_dot(row, x) for x in kernel):
                continue
            kernel, rejected = None, 0
            if not span.insert(row):
                raise InconsistencyError("row off the span kernel reduced to zero")
        elif span.insert(row):
            rejected = 0
        else:
            rejected += 1
            if rejected > len(cols) - span.dim:
                kernel = span.kernel(cols)
        if span.dim >= bound:
            break
    return span.dim


@record
class QuotientStructure:
    """Isomorphism type of a f.g. abelian group: Z^free_rank + sum of Z/d."""

    free_rank: int
    torsion: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "free_rank", exact_int(self.free_rank))
        object.__setattr__(self, "torsion", tuple(exact_int(d) for d in self.torsion))
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("torsion is not a divisibility chain")
        if any(d <= 1 for d in self.torsion):
            raise ValueError("torsion entries must exceed 1")

    def describe(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __str__(self):
        return self.describe()


def _as_int(v):
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"entry {v!r} is not an integer")
    return v


def _int_rows(rows, ncols=None):
    """Zero-free {col: int} rows of {col: int} dicts or dense int lists,
    checked by _to_int_vec; returns (rows, ncols).  Without ncols the width is
    the widest row.
    """
    rows = list(rows)
    if ncols is None:
        ncols = max(
            (max(r, default=-1) + 1 if isinstance(r, dict) else len(r) for r in rows),
            default=0,
        )
    return [_to_int_vec(row, ncols) for row in rows], ncols


def _unit_pivots(rows):
    """Sparse elimination on +-1 entries (Havas-Holt-Rees): (pivots, core).

    rows are zero-free {col: int} dicts; duplicates are dropped.  Each step
    takes the shortest live row with a +-1 entry (from a lazy heap) and, in
    it, the unit column held by the fewest live rows (then the least column),
    and clears that column from every other live row; a row that cancels to
    zero is dropped.  pivots lists (col, row) in order, each row as it stood
    when chosen: it holds no earlier pivot column.  core is the live rows
    left, which hold no pivot column.  Only integral row operations are used,
    so over Z the pivot rows and the core span the input rows, and each pivot
    splits off a Smith divisor 1 (the column operations that clear the rest
    of its row touch no other row).
    """
    live: dict = {}
    seen = set()
    for row in rows:
        key = frozenset(row.items())
        if key not in seen:
            seen.add(key)
            live[len(live)] = dict(row)
    where: dict = {}  # column -> ids of the live rows holding it
    for i, row in live.items():
        for c in row:
            where.setdefault(c, set()).add(i)
    heap = [(len(row), i) for i, row in live.items()]
    heapq.heapify(heap)
    pivots = []
    while heap:
        size, i = heapq.heappop(heap)
        row = live.get(i)
        if row is None or len(row) != size:
            continue  # a stale entry: the row was pivoted, dropped or changed
        units = [c for c, v in row.items() if v == 1 or v == -1]
        if not units:
            continue  # pushed again if an elimination changes it
        col = min(units, key=lambda c: (len(where[c]), c))
        del live[i]
        for c in row:
            where[c].discard(i)
        u = row[col]
        for j in where.pop(col):
            other = live[j]
            q = other.pop(col) * u  # u * u = 1, so other - q * row clears col
            for c, v in row.items():
                if c == col:
                    continue
                x = other.get(c, 0) - q * v
                if x:
                    if c not in other:
                        where[c].add(j)
                    other[c] = x
                elif c in other:
                    del other[c]
                    where[c].discard(j)
            if other:
                heapq.heappush(heap, (len(other), j))
            else:
                del live[j]
        pivots.append((col, row))
    return pivots, list(live.values())


def smith_normal_form(rows, ncols=None):
    """Elementary divisors d1 | d2 | ... of an integer matrix, all positive.

    Unit pivots first (_unit_pivots): each gives one divisor 1.  The core
    left over, on the columns it touches, goes through alternating Hermite
    forms of the matrix and of its transpose until every row has one nonzero
    entry (Kannan-Bachem); that diagonal is then merged into a divisibility
    chain.
    """
    rows, ncols = _int_rows(rows, ncols)
    pivots, core = _unit_pivots(rows)
    cols = sorted(set().union(*core))
    a, ncols = [[row.get(c, 0) for c in cols] for row in core], len(cols)
    while True:
        a = _hermite(a, ncols)
        if all(row.count(0) == ncols - 1 for row in a):
            break
        a, ncols = [list(col) for col in zip(*a)], len(a)
    divisors = [1] * len(pivots) + _divisor_chain(x for row in a for x in row)
    for x, y in zip(divisors, divisors[1:]):
        if y % x:
            raise InconsistencyError("Smith invariant factors do not divide in chain")
    return divisors


def _divisor_chain(diagonal):
    """Invariant-factor chain of a diagonal: Z/a + Z/b = Z/gcd + Z/lcm pairwise."""
    d = [abs(int(x)) for x in diagonal if x]
    for i, di in enumerate(d):
        if di == 1:
            continue
        for j in range(i + 1, len(d)):
            g = gcd(di, d[j])
            d[j] = di // g * d[j]
            di = g
        d[i] = di
    return d


def quotient_structure(ambient_dim: int, subgroup_gens) -> QuotientStructure:
    """Structure of Z^ambient_dim modulo the row span of subgroup_gens."""
    gens = list(subgroup_gens)
    if not gens:
        return QuotientStructure(ambient_dim, ())
    divisors = smith_normal_form(gens, ncols=ambient_dim)
    if len(divisors) > ambient_dim:
        raise ValueError("subgroup rank exceeds ambient dimension")
    return QuotientStructure(
        ambient_dim - len(divisors), tuple(d for d in divisors if d > 1)
    )


def invariant_factors_from_parts(parts) -> tuple:
    """Invariant-factor chain of a direct sum of cyclic groups Z/d."""
    return tuple(d for d in _divisor_chain(parts) if d > 1)


def hermite_row_reduce(rows, ncols):
    """Row-style Hermite normal form of an integer matrix.

    Returns dense rows with positive pivots, entries above each pivot reduced
    to the range [0, pivot).  Zero rows are dropped.
    """
    rows, ncols = _int_rows(rows, ncols)
    return _hermite([[row.get(c, 0) for c in range(ncols)] for row in rows], ncols)


def _hermite(a, ncols):
    """Hermite form of the dense int rows a, reduced in place; see hermite_row_reduce."""
    a = [row for row in a if any(row)]
    m = len(a)
    r = 0
    for c in range(ncols):
        while True:
            live = [i for i in range(r, m) if a[i][c]]
            if len(live) <= 1:
                break
            live.sort(key=lambda i: abs(a[i][c]))
            base = live[0]
            for i in live[1:]:
                q = a[i][c] // a[base][c]
                ai, ab = a[i], a[base]
                for j in range(ncols):
                    ai[j] -= q * ab[j]
        if not live:
            continue
        i = live[0]
        a[r], a[i] = a[i], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        piv = a[r][c]
        for i in range(r):
            if a[i][c]:
                q = a[i][c] // piv
                ai, ar = a[i], a[r]
                for j in range(ncols):
                    ai[j] -= q * ar[j]
        r += 1
    return a[:r]


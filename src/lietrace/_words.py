"""Word-level combinatorics shared by the algebra modules.

Words are tuples of generator indices in ``1..n``.  Hot loops elsewhere pack
words into single integers (most-significant letter first, base ``n + 1``) so
that lexicographic order on words of equal length coincides with integer
order.  Each word rule is written once, by its definition: Lyndon words of a
degree come from one Duval generator (``lyndon_words``), those of one content
from the FKM recursion restricted to that content
(``lyndon_words_of_content``), a necklace is the least rotation of its words,
and the necklace and Lyndon-word counts of a content are one divisor sum,
``content_divisor_sum``, under Euler's phi and Moebius's mu.  Nothing here
caches a word list.  The sparse-dict arithmetic every algebra module uses
(``add_scaled`` and the element base ``SparseCombination``) lives here too,
below them all.  No sparse dict a caller sees holds a zero: ``add_scaled``
never stores one, and a local accumulator drops its zeros once, on return.
``record``, the decorator of every value class in the package
(``Necklace``, ``HallMonomial``, ``QuotientStructure``, the reports, ...),
lives here as well.  It builds ``__init__``, ``__repr__``, ``__eq__``,
``__hash__`` and the comparisons from closures over the field names, where
``dataclasses`` would import ``inspect``, ``ast`` and ``dis`` and ``exec``
generated source for each class, which was more than half of what a
fresh CLI process spends importing the package.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial, gcd
from numbers import Number
from operator import attrgetter, ge, gt, le, lt


class InconsistencyError(RuntimeError):
    """A cross-checked quantity failed to agree with its second computation."""


def add_scaled(into: dict, src: dict, c=1) -> dict:
    """Add c * src to the sparse dict `into` in place and return it.

    Keys whose value cancels are deleted, so zero is never stored.  The values
    may be numbers or any ring elements whose truth value says "nonzero".
    """
    if not c:
        return into
    for k, x in src.items():
        if k in into:
            x = into[k] + c * x
            if x:
                into[k] = x
            else:
                del into[k]
        else:
            into[k] = c * x
    return into


def exact_int(x) -> int:
    """x as an int: TypeError for a non-number, ValueError rather than truncation."""
    if isinstance(x, int):
        return int(x)
    if not isinstance(x, Number):
        raise TypeError(f"{x!r} is not a number")
    v = int(x)
    if v != x:
        raise ValueError(f"{x!r} is not an integer")
    return v


def record(cls=None, *, frozen=True, order=False):
    """Class decorator for a value class whose fields are its annotations.

    It gives what ``dataclasses.dataclass(frozen=frozen, order=order)`` gives
    these classes: ``__init__`` taking the fields positionally or by keyword
    (a class attribute is the field's default), then ``__post_init__`` if the
    class has one; ``__repr__`` as ``Name(f1=..., f2=...)``; ``__eq__`` on the
    field tuple, within one class only; if frozen, ``hash`` of the field tuple
    and ``AttributeError`` on every assignment or deletion (``__post_init__``
    stores with ``object.__setattr__``), else no hash; if order, the four
    comparisons on the field tuple.  Every method is a closure over the field
    names; nothing is compiled from source.
    """
    if cls is None:
        return lambda c: record(c, frozen=frozen, order=order)
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    title = cls.__name__
    fields = get = attrgetter(*names)
    if len(names) == 1:  # one name: attrgetter gives the bare value

        def fields(obj):
            return (get(obj),)

    post_init = getattr(cls, "__post_init__", None)
    put = object.__setattr__

    def bind(args, kwargs):
        if len(args) > len(names):
            raise TypeError(f"{title}() takes {len(names)} arguments, got {len(args)}")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{title}() got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{title}() got multiple values for argument {name!r}")
            values[name] = value
        for name in names:
            if name not in values and name not in defaults:
                raise TypeError(f"{title}() missing required argument {name!r}")
        return [values[name] if name in values else defaults[name] for name in names]

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):
            args = bind(args, kwargs)
        for name, value in zip(names, args):
            put(self, name, value)
        if post_init is not None:
            post_init(self)

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields(self)))
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return fields(self) == fields(other)
        return NotImplemented

    def __hash__(self):
        return hash(fields(self))

    cls.__init__, cls.__repr__, cls.__eq__ = __init__, __repr__, __eq__
    cls.__hash__ = __hash__ if frozen else None
    if frozen:

        def __setattr__(self, name, value):
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name):
            raise AttributeError(f"cannot delete field {name!r}")

        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
    if order:
        for op in (lt, le, gt, ge):
            setattr(cls, f"__{op.__name__}__", _field_order(op, fields))
    return cls


def _field_order(op, fields):
    def compare(self, other):
        if other.__class__ is self.__class__:
            return op(fields(self), fields(other))
        return NotImplemented

    return compare


class SparseCombination:
    """A finite combination sum c * key in one degree of one graded space.

    ``terms`` maps each key to a nonzero coefficient.  Subclasses differ only
    in the hooks: ``_key`` checks or canonicalises a key, ``_coeff`` coerces a
    coefficient (by default into the scalar ring ``_scalar``), ``_canonical``
    normalises a whole coefficient dict, and ``_label``/``_term`` print.  Only
    combinations of one type, alphabet and degree add; anything else raises.
    """

    __slots__ = ("n", "degree", "terms")
    _scalar = staticmethod(exact_int)

    def __init__(self, n: int, degree: int, terms=()):
        self.n = n
        self.degree = degree
        data = terms.items() if isinstance(terms, dict) else terms
        out = {}
        for key, coeff in data:
            key = self._key(key)
            coeff = self._coeff(coeff)
            if coeff:  # terms whose keys canonicalise alike add up
                add_scaled(out, {key: coeff})
        self.terms = self._canonical(out)

    @classmethod
    def _unchecked(cls, n, degree, terms):
        """Wrap a dict whose keys are canonical and whose values are nonzero."""
        obj = cls.__new__(cls)
        obj.n = n
        obj.degree = degree
        obj.terms = terms
        return obj

    def _key(self, key):
        return key

    def _coeff(self, coeff):
        return self._scalar(coeff)

    def _canonical(self, terms):
        return terms

    def _label(self, key):
        return str(key)

    def _term(self, key, coeff):
        return f"{'+' if coeff > 0 else '-'} {abs(coeff)}*{self._label(key)}"

    def _combine(self, other, c):
        if type(other) is not type(self):
            return NotImplemented
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("mixed alphabets or degrees")
        out = add_scaled(dict(self.terms), other.terms, c)
        return self._unchecked(self.n, self.degree, out)

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        # nonzero test used by add_scaled when combinations are coefficients
        return bool(self.terms)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self._unchecked(self.n, self.degree, {k: -c for k, c in self.terms.items()})

    def __rmul__(self, c):
        c = self._scalar(c)
        out = {k: c * v for k, v in self.terms.items()} if c else {}
        return self._unchecked(self.n, self.degree, out)

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, self.degree, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = [self._term(k, self.terms[k]) for k in sorted(self.terms)]
        return " ".join(bits).lstrip("+ ")


def encode(word, base: int) -> int:
    code = 0
    for letter in word:
        code = code * base + letter
    return code


def decode(code: int, base: int, length: int) -> tuple:
    out = [0] * length
    for pos in range(length - 1, -1, -1):
        code, out[pos] = divmod(code, base)
    return tuple(out)


def word_content(word, n: int) -> tuple:
    counts = [0] * n
    for letter in word:
        counts[letter - 1] += 1
    return tuple(counts)


def is_lyndon(word) -> bool:
    """True iff the word is strictly smaller than all of its proper suffixes."""
    k = len(word)
    if k == 0:
        return False
    for p in range(1, k):
        if word[p:] <= word:
            return False
    return True


def _duval(n: int, k: int):
    """Lyndon words of length k over 1..n in lexicographic order (Duval's algorithm)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    w = [1]
    while w:
        if len(w) == k:
            yield tuple(w)
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) % m])
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1


def lyndon_words(n: int, k: int) -> tuple:
    """All Lyndon words of length k over 1..n, in lexicographic order."""
    return tuple(_duval(n, k))


def standard_factorization(word) -> tuple:
    """Split a Lyndon word w = uv at its lexicographically least proper suffix.

    Both factors are again Lyndon and u < v; this is the factorization used to
    bracket basis words.
    """
    k = len(word)
    if k < 2:
        raise ValueError("factorization needs length >= 2")
    best = 1
    for p in range(2, k):
        if word[p:] < word[best:]:
            best = p
    u, v = word[:best], word[best:]
    if not (is_lyndon(u) and is_lyndon(v) and u < v):
        raise ValueError(f"{word!r} is not a Lyndon word")
    return u, v


def min_rotation(word) -> tuple:
    """Lexicographically least rotation of a nonempty word."""
    s = tuple(word)
    k = len(s)
    if k == 0:
        raise ValueError("empty word")
    s += s
    return min(s[i : i + k] for i in range(k))


def multiset_permutations(counts):
    """All words with the given letter counts (letter j has counts[j-1] copies)."""
    total = sum(counts)
    word = [0] * total
    counts = list(counts)

    def rec(pos):
        if pos == total:
            yield tuple(word)
            return
        for j, c in enumerate(counts):
            if c:
                counts[j] -= 1
                word[pos] = j + 1
                yield from rec(pos + 1)
                counts[j] = c

    yield from rec(0)


def lyndon_words_of_content(counts) -> tuple:
    """Lyndon words with the given letter counts, in lexicographic order.

    The FKM recursion restricted to one content (Sawada, "A fast algorithm to
    generate necklaces with fixed content", TCS 301, 2003): the prefix
    a[1..t-1] is a prenecklace whose longest Lyndon prefix has length p, and
    position t takes, in increasing order, each letter at least a[t - p] that
    the content has left.  A full word is Lyndon exactly when p is its
    length.  Every Lyndon word starts with the least letter of its content.
    """
    left = list(counts)
    if any(c < 0 for c in left):
        raise ValueError(f"negative letter count in {tuple(counts)!r}")
    k = sum(left)
    if k == 0:
        return ()
    letters = [j + 1 for j, c in enumerate(left) if c]
    a = [0] * (k + 1)  # a[1..k], 1-based as in the recursion
    a[1] = letters[0]
    left[letters[0] - 1] -= 1
    out = []

    def rec(t, p):
        if t > k:
            if p == k:
                out.append(tuple(a[1:]))
            return
        low = a[t - p]
        for j in letters:
            if j < low or not left[j - 1]:
                continue
            left[j - 1] -= 1
            a[t] = j
            rec(t + 1, p if j == low else t)
            left[j - 1] += 1

    rec(2, 1)
    return tuple(out)


def necklaces_of_content(counts) -> tuple:
    """Canonical (minimal-rotation) representatives of the words of a content class."""
    seen = set()
    for w in multiset_permutations(counts):
        seen.add(min_rotation(w))
    return tuple(sorted(seen))


def necklace_count(counts) -> int:
    """Number of necklaces with the given content, by Burnside over rotations."""
    return content_divisor_sum(counts, euler_phi)


def content_divisor_sum(counts, weight) -> int:
    """(1/k) sum over d | gcd(counts) of weight(d) (k/d)! / prod (c/d)!, k = sum(counts).

    Zero counts are dropped, and the empty content gives 0.  With weight
    ``euler_phi`` this counts the necklaces of the content (Burnside over the
    rotations); with ``mobius`` it counts the aperiodic ones, which are its
    Lyndon words.
    """
    counts = [c for c in counts if c]
    k = sum(counts)
    if k == 0:
        return 0
    total = 0
    for d in divisors(gcd(*counts)):
        m = factorial(k // d)
        for c in counts:
            m //= factorial(c // d)
        total += weight(d) * m
    if total % k:
        raise InconsistencyError(f"divisor sum over content {tuple(counts)} is not an integer")
    return total // k


def compositions(k: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to k."""
    if parts < 1:
        raise ValueError(f"compositions need at least one part, got {parts}")
    if parts == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, parts - 1):
            yield (first,) + rest


def partitions(k: int, max_parts: int = None, min_part: int = 1):
    """Partitions of k as descending tuples, in reverse-lexicographic order."""
    if max_parts is None:
        max_parts = k

    def rec(rem, cap, slots):
        if rem == 0:
            yield ()
            return
        if slots == 0:
            return
        for first in range(min(rem, cap), min_part - 1, -1):
            for rest in rec(rem - first, first, slots - 1):
                yield (first,) + rest

    yield from rec(k, k, max_parts)


def divisors(m: int) -> list:
    if m <= 0:
        return [1] if m == 0 else []
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d != m // d:
                large.append(m // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def mobius(m: int) -> int:
    if m < 1:
        raise ValueError("mobius needs m >= 1")
    result = 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            result = -result
        p += 1
    if m > 1:
        result = -result
    return result


@lru_cache(maxsize=None)
def euler_phi(m: int) -> int:
    if m < 1:
        raise ValueError("phi needs m >= 1")
    result = m
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result

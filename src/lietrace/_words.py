"""Word-level combinatorics shared by the algebra modules.

Words are tuples of generator indices in ``1..n``.  Hot loops elsewhere pack
words into single integers (most-significant letter first, base ``n + 1``) so
that lexicographic order on words of equal length coincides with integer
order.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from math import factorial, gcd


class InconsistencyError(RuntimeError):
    """A cross-checked quantity failed to agree with its second computation."""


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


_LYNDON_CACHE: dict = {}
_LYNDON_LOCK = threading.Lock()


def lyndon_words(n: int, k: int) -> tuple:
    """All Lyndon words of length k over 1..n, in lexicographic order (Duval)."""
    key = (n, k)
    got = _LYNDON_CACHE.get(key)
    if got is not None:
        return got
    with _LYNDON_LOCK:
        got = _LYNDON_CACHE.get(key)
        if got is not None:
            return got
        out = []
        w = [1]
        while w:
            if len(w) == k:
                out.append(tuple(w))
            m = len(w)
            while len(w) < k:
                w.append(w[len(w) % m])
            while w and w[-1] == n:
                w.pop()
            if w:
                w[-1] += 1
        got = tuple(out)
        _LYNDON_CACHE[key] = got
        return got


def lyndon_count(n: int, k: int) -> int:
    """Number of Lyndon words of length k, counted without caching the list."""
    count = 0
    w = [1]
    while w:
        if len(w) == k:
            count += 1
        m = len(w)
        while len(w) < k:
            w.append(w[len(w) % m])
        while w and w[-1] == n:
            w.pop()
        if w:
            w[-1] += 1
    return count


_BY_CONTENT_CACHE: dict = {}


def lyndon_by_content(n: int, k: int) -> dict:
    """Lyndon words of length k grouped by content vector."""
    key = (n, k)
    got = _BY_CONTENT_CACHE.get(key)
    if got is None:
        words = lyndon_words(n, k)  # outside the lock; it locks internally
        with _LYNDON_LOCK:
            got = _BY_CONTENT_CACHE.get(key)
            if got is None:
                grouped: dict = {}
                for w in words:
                    grouped.setdefault(word_content(w, n), []).append(w)
                got = {c: tuple(ws) for c, ws in grouped.items()}
                _BY_CONTENT_CACHE[key] = got
    return got


@lru_cache(maxsize=None)
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
    """Lexicographically minimal rotation, via Booth's algorithm."""
    s = tuple(word)
    n = len(s)
    if n == 0:
        raise ValueError("empty word")
    f = [-1] * (2 * n)
    k = 0
    for j in range(1, 2 * n):
        sj = s[j % n]
        i = f[j - k - 1]
        while i != -1 and sj != s[(k + i + 1) % n]:
            if sj < s[(k + i + 1) % n]:
                k = j - i - 1
            i = f[i]
        if sj != s[(k + i + 1) % n]:
            if sj < s[k % n]:
                k = j
            f[j - k] = -1
        else:
            f[j - k] = i + 1
    k %= n
    return s[k:] + s[:k]


def rotations(word):
    w = tuple(word)
    return [w[i:] + w[:i] for i in range(len(w))]


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


def necklaces_of_content(counts) -> tuple:
    """Canonical (minimal-rotation) representatives of the words of a content class."""
    seen = set()
    for w in multiset_permutations(counts):
        seen.add(min_rotation(w))
    return tuple(sorted(seen))


def necklace_count(counts) -> int:
    """Number of necklaces with the given content, by Burnside over rotations."""
    counts = [c for c in counts if c]
    k = sum(counts)
    if k == 0:
        return 0
    g = 0
    for c in counts:
        g = gcd(g, c)
    total = 0
    for d in divisors(g):
        m = factorial(k // d)
        for c in counts:
            m //= factorial(c // d)
        total += euler_phi(d) * m
    if total % k:
        raise InconsistencyError("necklace count is not an integer")
    return total // k


def compositions(k: int, parts: int):
    """All tuples of `parts` nonnegative integers summing to k."""
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


def factor(m: int) -> dict:
    """Prime factorization as {prime: exponent}; trial division is plenty here."""
    if m < 1:
        raise ValueError("factor needs m >= 1")
    out: dict = {}
    p = 2
    while p * p <= m:
        while m % p == 0:
            out[p] = out.get(p, 0) + 1
            m //= p
        p += 1
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out

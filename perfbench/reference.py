"""Fixed reference program for calibrating wall times to host speed.

Usage: python3 perfbench/reference.py

run.py times this script in a fresh child process after every lietrace
invocation, and before the first of a pass, and scales each invocation's
wall time by REF_NOMINAL_S over the mean of the two reference times around
it. It runs pure-Python work in the CLI's mix: Fraction Gauss-Jordan (like the
ad-block inverse), fraction-free integer elimination (like span insert and
HNF/SNF) and tuple-keyed dicts (like the word and encoding tables). It never
imports lietrace, so no change to the program under test can change it.
It prints a checksum that run.py compares with REF_CHECKSUM.
"""

import random
from fractions import Fraction

ROUNDS = 5


def fraction_gauss_jordan(rng, n=16):
    m = [[Fraction(rng.randint(-5, 5)) for _ in range(n)] for _ in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if m[r][c]), None)
        if p is None:
            continue
        m[c], m[p] = m[p], m[c]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c] / m[c][c]
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return sum(m[i][i].numerator for i in range(n))


def bareiss(rng, n=44):
    a = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    prev = 1
    for c in range(n - 1):
        p = next((r for r in range(c, n) if a[r][c]), None)
        if p is None:
            return 0
        a[c], a[p] = a[p], a[c]
        for r in range(c + 1, n):
            a[r] = [(a[c][c] * a[r][j] - a[r][c] * a[c][j]) // prev for j in range(n)]
        prev = a[c][c]
    return a[n - 1][n - 1]


def word_table(rng, count=5000):
    table = {}
    for _ in range(count):
        word = tuple(rng.randrange(3) for _ in range(6))
        table[word] = table.get(word, 0) + 1
    return len(table)


def main():
    rng = random.Random(20240307)
    total = 0
    for _ in range(ROUNDS):
        total += fraction_gauss_jordan(rng) + bareiss(rng) + word_table(rng)
    print(total % 1000003)


if __name__ == "__main__":
    main()

"""Spans of iterated brackets of degree-1 tangential generators, trace ranks,
kernels and cokernels, and the consistency checks tying them together.

Everything multihomogeneous is computed block by block: a bracket of
generators indexed by letters b_1..b_k lives in the multidegree
e_{b_1}+...+e_{b_k} block, and trace matrices never mix content classes.
Relabelling letters permutes the blocks, so both the image and the trace are
computed on one block per S_n orbit of contents: the representative, a
partition of the degree.

The image (``_OrbitImage``) keeps one span per representative alpha, padded
to n letters, on block-local columns.  The generators D_ab form one
S_n-stable set, so the image in the block of sigma(alpha) is sigma applied
to that of alpha: ``ImageBasis.dim`` is the orbit sum, and ``contains``
relabels each content part of a vector onto its representative
(``_relabel``).  Level m + 1 of alpha is built from the rows that the spans
of the representatives one letter below store, relabelled, bracketing each
basis label (i, u) with each generator D_ab once per letter and combining
the results linearly; a level is its span and nothing else.  A label's
bracket is a closed form by the Jacobi identity (``_label_bracket``): it
needs D_ab(u), one Leibniz pass in degree m, and [u, x_b], whose Lyndon
coordinates every label (i, u) shares.  Every Lyndon coordinate in the
image, of a relabelled basis element or of a bracket, is one verified
forward substitution on the identity block of its content
(``_lie_coordinates``, ``tangent._AdBlock``), read off the Lie element
itself.  Each level owns the identity blocks of its degree-m
relabellings and degree-(m+1) brackets and one expansion memo (one
``tangent.AdSolver``) and drops them when it is done: no later level solves
in those contents again, and the image never fills the process-wide
expansion cache.

One builder, ``_trace_block``, makes the trace matrix of a content block on
the block's own letters and on block-local necklace columns; the block rank,
the integral cokernel and the kernel checks all read it, and so does the
rational second route of the tests.  Every necklace of the block gets its
column up front (``tangent.NecklaceColumns.of_content``), so the columns do
not depend on which letters' rows are built.  It never expands a Lyndon word of
the block: one pass over the pairs of words of its two standard factors'
expansions, kept in a memo that goes with the block, gives the trace rows of
the letters asked for (``tangent.trace_row_enc``), visiting only the pairs
that touch them; a pair finds its necklace column by its integer code.  The
Smith forms and kernels read the rows of every letter.  The rank reads
fewer: above degree 1 the rows (i, u) of one Lyndon word u sum to zero over
i, since the cyclic projection of a Lie element vanishes, so the rows of
one letter are never needed.  The bar/tilde quotient only decides which
blocks count (``cyclic.mode_width``).  Relabelling letters permutes the trace blocks
without changing their ranks or Smith divisors, so ``trace_rank`` and
``coker_structure`` compute one block per S_n orbit (``_orbits``), keyed by
its partition alone: n only counts the copies; ``check_T0530`` builds one
trace kernel per orbit too.

A block's rank has a second symmetry: the letters of equal multiplicity
are permuted by the letter stabilizer G, a product of symmetric groups, and
the span W of the trace rows is a G-module.  ``_block_trace_rank`` ranks a
block of at least ``_SPLIT_COLUMNS`` necklace columns with a nontrivial G
piece by piece (``_split_rank``): rank W = sum over the irreducibles lam of
G of dim lam * rank(e_lam W), with e_lam a Young symmetrizer acting through
the block's own action on its columns (``_LetterAction``), and each piece's
rank stops at the multiplicity of lam among the columns, from the
Murnaghan-Nakayama rule.  A piece whose every factor is trivial or sign
needs the rows of one letter per run (``_split_letters``); any other piece
reads those first and builds the other letters' rows only if it stops below
its multiplicity.  Smaller blocks are ranked on the rows of every letter but
the first; the Smith forms and kernels read the rows of every letter.
"""

from __future__ import annotations

from functools import cache, lru_cache
from itertools import product
from math import factorial

from . import exactlin, tangent
from ._words import (
    InconsistencyError,
    add_scaled,
    compositions,
    decode,
    encode,
    exact_int,
    lyndon_words_of_content,
    necklace_count,
    partitions,
    record,
    word_content,
)
from .cyclic import QuotientMode, cyclic_rank, mode_width
from .exactlin import IncrementalSpan, QuotientStructure
from .freelie import ad_enc, iota_enc, multidegree_rank
from .tangent import AdSolver, NecklaceColumns, basis_labels, p_basis, p_rank, trace_row_enc


class ImageBasis:
    """Degree-k part of the subalgebra generated in degree 1.

    blocks maps each representative content alpha, a partition of k padded to
    n letters, to the image in its block (a _Block); blocks without image are
    left out.  The image in the block of a content sigma(alpha) is sigma
    applied to that of alpha, so dim is the orbit sum, and contains() and
    block_dim() relabel each content to its representative.
    """

    def __init__(self, n: int, k: int, blocks: dict):
        self.n = n
        self.k = k
        self.blocks = blocks
        self._solver = AdSolver(n)  # the identity blocks and expansions of contains()

    def __repr__(self):
        return f"ImageBasis(n={self.n!r}, k={self.k!r})"

    @property
    def dim(self) -> int:
        return sum(_orbit_size(self.n, alpha) * b.span.dim for alpha, b in self.blocks.items())

    def block_dim(self, content) -> int:
        """Dimension of the image in the block of one content on the n letters;
        ValueError for anything but a degree-k content on at most n letters."""
        content = tuple(content)
        if len(content) > self.n or any(c < 0 for c in content) or sum(content) != self.k:
            raise ValueError(f"{content!r} is not a degree-{self.k} content on {self.n} letters")
        alpha, _ = _representative(content + (0,) * (self.n - len(content)))
        got = self.blocks.get(alpha)
        return got.span.dim if got else 0

    def contains(self, vec) -> bool:
        """Whether {(i, u): c}, on degree-k basis labels, lies in the image.

        Each content part of vec is relabelled onto its representative block
        and tested there.  A key that is not a p_basis label raises ValueError.
        """
        labels = _p_index(self.n, self.k)
        parts: dict = {}
        for (i, u), c in vec.items():
            if (i, u) not in labels:
                raise ValueError(
                    f"{(i, u)!r} is not a degree-{self.k} basis label on {self.n} letters"
                )
            if c:
                parts.setdefault(word_content(u, self.n), {})[(i, u)] = c
        for content, part in parts.items():
            alpha, perm = _representative(content)
            got = self.blocks.get(alpha)
            if got is None:
                return False
            inverse = tuple(perm.index(x) + 1 for x in range(1, self.n + 1))
            moved = _relabel(self._solver, inverse, part)
            if not got.span.contains({got.index[key]: c for key, c in moved.items()}):
                return False
        return True


@record
class AlphaReport:
    alpha: tuple
    c_alpha: int
    r_alpha: int


@record
class T0530Report:
    n: int
    k: int
    checked: tuple  # (alpha, kernel_dim) pairs
    skipped: tuple  # compositions with no part equal to 1
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@record
class EGeneratorReport:
    n: int
    family_counts: tuple  # counts of the four bracket families
    total: int
    expected: int
    span_dim: int
    image_dim: int

    @property
    def ok(self) -> bool:
        return self.total == self.expected == self.span_dim == self.image_dim


@cache
def _p_index(n, k):
    """Position of each basis label (i, u) in p_basis(n, k)."""
    return {label: j for j, label in enumerate(p_basis(n, k))}


def _lie_coordinates(solver, enc, content):
    """Lyndon coordinates of a Lie element L of content content, given encoded.

    One forward substitution on the identity block of content of solver
    reads them off L at the codes of the Lyndon words of content; the
    solve's re-multiply check on L itself raises ArithmeticError if L is
    off the Lie subspace.
    """
    return solver.block(content).solve(enc) if enc else {}


def _label_bracket(solver, label, a, b, dab, memo):
    """p-coordinates {(t, w): c} of [f, D_ab] for the basis label (i, u).

    f: x_i -> [u, x_i] and D_ab: x_a -> [x_b, x_a], the value dab being
    [x_b, x_a] encoded.  By the Jacobi identity [f, D_ab] sends
    x_t -> [L_t, x_t], with L_i = -D_ab(u) and, when i is a or b, L_a
    gaining -[u, x_b] (i = a) or [u, x_b] (i = b).  So the
    degree-(m+1) tensor of [u, x_i] is never formed: D_ab(u) is one Leibniz
    pass over the length-m expansion of u.  The Lyndon coordinates of D_ab(u)
    and of [u, x_b] are read off each of them, with no bracket with a further
    letter, on the identity block of their content (_lie_coordinates) of
    solver, an AdSolver, and are memoized in memo under (u, a, b) and (u, b),
    which every label (i, u) shares; the expansions go to solver.memo.  The
    caller decides how long solver and memo live.
    """
    i, u = label
    n = solver.n
    content = word_content(u + (b,), n)  # the content of D_ab(u) and [u, x_b]
    du = memo.get((u, a, b))
    if du is None:
        gen = {a: (dab, 2)}
        enc = tangent._apply_values_enc(n, gen, iota_enc(n, u, solver.memo), len(u))
        du = memo[(u, a, b)] = _lie_coordinates(solver, enc, content)
    out = {(i, w): -c for w, c in du.items()}
    if i == a or i == b:
        ub = memo.get((u, b))
        if ub is None:
            ub = memo[(u, b)] = _lie_coordinates(solver, ad_enc(n, u, b, solver.memo), content)
        add_scaled(out, {(a, w): c for w, c in ub.items()}, 1 if i == b else -1)
    return out


def _orbit_size(n, alpha):
    """Number of compositions on n letters that sort to the partition alpha.

    alpha may be zero-padded to n parts: n!/((n - len(alpha))! prod mult!).
    """
    orbit = factorial(n) // factorial(n - len(alpha))
    for v in set(alpha):
        orbit //= factorial(alpha.count(v))
    return orbit


def _representative(content):
    """(alpha, perm): content sorted into a partition, and the relabelling back.

    Part t of alpha is the count of letter perm[t - 1] of content, so the
    letter map x -> perm[x - 1] carries the block of alpha onto that of
    content.
    """
    order = sorted(range(len(content)), key=lambda x: -content[x])
    return tuple(content[x] for x in order), tuple(x + 1 for x in order)


def _relabel(solver, perm, vec):
    """vec {(i, u): c} with every letter x made perm[x - 1], on Lyndon labels.

    The label (i, u) goes to perm(i) and to the Lyndon coordinates of the
    relabelled basis element of u, solved on the identity block of its
    content (_lie_coordinates) of solver, an AdSolver.  They are memoized
    in solver.memo under (perm, u), next to the expansions of u
    (freelie.iota_enc, keys (n, word)).  The caller decides how long solver
    lives.
    """
    n = solver.n
    if perm == tuple(range(1, n + 1)):
        return vec
    base = n + 1
    memo = solver.memo
    out: dict = {}
    for (i, u), c in vec.items():
        coords = memo.get((perm, u))
        if coords is None:
            k = len(u)
            moved = {
                encode([perm[x - 1] for x in decode(w, base, k)], base): d
                for w, d in iota_enc(n, u, memo).items()
            }
            content = word_content([perm[x - 1] for x in u], n)
            coords = memo[(perm, u)] = _lie_coordinates(solver, moved, content)
        j = perm[i - 1]
        add_scaled(out, {(j, w): d for w, d in coords.items()}, c)
    return out


class _Block:
    """The image in one content block, on block-local columns.

    labels lists the block's basis labels in global basis order
    (tangent.basis_labels); index inverts it.
    """

    __slots__ = ("labels", "index", "span")

    def __init__(self, n, content):
        self.labels = basis_labels(n, lyndon_words_of_content(content))
        self.index = {key: col for col, key in enumerate(self.labels)}
        self.span = IncrementalSpan(len(self.labels))


class _OrbitImage:
    """The degree-1 generated subalgebra on n letters, one block per S_n orbit.

    The generators D_ab form one S_n-stable set, so the image in the block of
    content sigma(alpha) is sigma applied to that of alpha.  levels[k - 1]
    maps each representative alpha of degree k (a partition padded to n
    letters) with a nonzero image to its _Block.  Level m + 1 of alpha is
    spanned by [sigma v, D_ab] for each letter b of alpha, each a != b and
    each row v that the span of the representative rho of alpha - e_b
    stores, sigma being the relabelling with sigma(rho) = alpha - e_b
    (_representative): those rows are a basis of the level below, and the
    bracket is linear.  A level keeps only its blocks, which johnson_image
    reads at any degree.  The n(n - 1) generator values [x_b, x_a] are
    expanded once.  extend() grows the store in place with no lock: no
    caller in the package reaches it from more than one thread (the CLI
    runs every command in one thread).
    """

    def __init__(self, n: int):
        self.n = n
        # (a, b) -> [x_b, x_a] encoded, the value of the generator D_ab
        self.gens = {
            (a, b): ad_enc(n, (b,), a, {})
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        }
        alpha = (1,) + (0,) * (n - 1)
        block = _Block(n, alpha)  # the labels (a, (1,)) of D_a1, a > 1
        for col in range(len(block.labels)):
            block.span.insert({col: 1})
        self.levels = [{alpha: block}]

    def extend(self, k: int):
        while len(self.levels) < k:
            self._advance()

    def _advance(self):
        n = self.n
        m = len(self.levels)  # degree of the current top level
        below = self.levels[-1]
        solver = AdSolver(n)  # the identity blocks and expansions of this level alone
        level = {}
        for part in partitions(m + 1, max_parts=n):
            alpha = part + (0,) * (n - len(part))
            block = _Block(n, alpha)
            for b in range(1, len(part) + 1):
                beta = alpha[: b - 1] + (alpha[b - 1] - 1,) + alpha[b:]
                rho, perm = _representative(beta)
                if rho in below:
                    self._bracket_block(block, below[rho], perm, b, solver)
            if block.span.dim:
                level[alpha] = block
        self.levels.append(level)

    def _bracket_block(self, block, source, perm, b, solver):
        """Insert [perm(v), D_ab] into block for each row v of source and a != b.

        source is a _Block of the level below; its span's rows are on the
        columns of its labels.  The bracket is linear in v, so each
        relabelled basis label is bracketed with each D_ab once
        (_label_bracket, by the Jacobi identity) and every candidate is the
        integer combination of those images.  The coordinate memos live for
        this one pair (alpha, b): the relabelled labels have content
        alpha - e_b, which no other pair brackets.  The relabellings, solved
        on the degree-m identity blocks of solver (_relabel), and every
        expansion go to solver.memo; solver lives for the level.
        """
        n = self.n
        labels = source.labels
        memo: dict = {}  # shared by the labels (i, u), see _label_bracket
        images: dict = {}  # (label, a) -> block columns of [label, D_ab]
        for row in source.span.rows():
            moved = _relabel(solver, perm, {labels[j]: c for j, c in row.items()})
            for a in range(1, n + 1):
                if a == b:
                    continue
                cand: dict = {}
                for label, c in moved.items():
                    img = images.get((label, a))
                    if img is None:
                        got = _label_bracket(solver, label, a, b, self.gens[(a, b)], memo)
                        img = images[(label, a)] = {block.index[key]: v for key, v in got.items()}
                    add_scaled(cand, img, c)
                block.span.insert(cand)


@cache
def _orbit_image(n: int) -> _OrbitImage:
    return _OrbitImage(n)


def johnson_image(n: int, k: int) -> ImageBasis:
    """Degree-k span of iterated brackets of the degree-1 generators."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2, k >= 1")
    store = _orbit_image(n)
    store.extend(k)
    return ImageBasis(n, k, store.levels[k - 1])


# ---------------------------------------------------------------------------
# trace matrices by content block


def _trace_block(k, content, letters=None):
    """Trace matrix of one content block on its own letters: (keys, rows, cols).

    The block's letters are 1..len(content), at least two (one letter has no
    degree-1 basis); a zero entry is a letter the block's words do not use.
    keys are the basis labels (i, u) of the block in global basis order, i
    in letters (every letter if None), and rows[j] is the full trace of
    keys[j] on block-local necklace columns; cols is the map that numbers
    them, one column per necklace of the block
    (NecklaceColumns.of_content), so the columns do not depend on letters.
    One pass over the pairs of words of the expansions of u's
    standard factors gives the rows of letters (trace_row_enc), and u itself
    is never expanded; above degree 1 the row of a letter absent from u is
    zero, and the rows (i, u) of one word u sum to zero over i.  The column
    map and the expansion memo live for this one call: every closed word has
    the block's content, and the memo holds only the expansions of the
    factors of the block's words and of theirs.
    """
    n = max(len(content), 2)
    content = content + (0,) * (n - len(content))
    words = lyndon_words_of_content(content)
    cols = NecklaceColumns.of_content(content, words)
    letters = range(1, n + 1) if letters is None else sorted(letters)
    memo: dict = {}
    traces = {u: trace_row_enc(n, k, u, cols, memo, letters) for u in words}
    keys = [(i, u) for i, u in basis_labels(n, words) if i in letters]
    return keys, [traces[u].get(i, {}) for i, u in keys], cols


# The smallest block, in necklace columns, that is ranked by pieces.  The
# count does not decide which route is faster: below it (5,2,2) is faster by
# pieces and (4,4,1) plain, above it (3,2,2,1) by pieces and (4,1,1,1,1)
# plain (BENCH_rank_rows.json, size_rule).
_SPLIT_COLUMNS = 100


@lru_cache(maxsize=None)
def _block_trace_rank(k, alpha):
    """Rank of the trace matrix of one block, from the rows its rank reads.

    A block of at least _SPLIT_COLUMNS columns whose letters can be permuted
    (_letter_runs) is ranked by the pieces of its letter stabilizer
    (_split_rank), from the rows of _split_letters first and of the other
    letters only if a piece needs them.  Any other block goes to
    exactlin.incremental_rank on its rows, less those of letter 1 above
    degree 1: the rows (i, u) of one word u sum to zero over i.  The block
    is built on its own letters (_trace_block), so one entry serves every n.
    It does not depend on the mode: a quotient keeps or kills a content
    block whole, so the mode only decides which blocks count
    (cyclic.mode_width).
    """
    n = max(len(alpha), 2)
    runs = _letter_runs(alpha)
    if necklace_count(alpha) < _SPLIT_COLUMNS or not runs:
        _, rows, cols = _trace_block(k, alpha, range(2 if k > 1 else 1, n + 1))
        return exactlin.incremental_rank(rows, cols.ncols)
    letters = _split_letters(n, runs)
    keys, rows, cols = _trace_block(k, alpha, letters)
    rest = [t for t in range(1, n + 1) if t not in letters]
    return _split_rank(n, k, keys, rows, cols, runs, lambda: _trace_block(k, alpha, rest)[1])


# ---------------------------------------------------------------------------
# block ranks by the pieces of the letter stabilizer


def _letter_runs(content):
    """(first letter, length) of each run of two or more consecutive letters
    of equal nonzero multiplicity in content.

    For a partition the symmetric groups of the runs make up the whole letter
    stabilizer G; for a composition they give a subgroup of it.
    """
    runs, start = [], 0
    for t in range(1, len(content) + 1):
        if t == len(content) or content[t] != content[start]:
            if t - start > 1 and content[start]:
                runs.append((start + 1, t - start))
            start = t
    return runs


@cache
def _character(lam, mu):
    """Character of the irreducible S_m-module lam on the class of cycle type mu.

    Murnaghan-Nakayama: remove a rim hook of length mu[0] from lam in every
    way, with the sign (-1)^(its height), and recurse on the rest of mu.  On
    the beta-set of lam (lam_i + len(lam) - i) a rim hook of length r is a
    bead moved down by r to an empty place; its height is the number of beads
    it passes.  lam = (m) is the trivial module and (1^m) the sign.
    """
    if not mu:
        return 1
    r, rest = mu[0], mu[1:]
    top = len(lam) - 1
    beads = [part + top - i for i, part in enumerate(lam)]
    total = 0
    for b in beads:
        t = b - r
        if t < 0 or t in beads:
            continue
        passed = sum(t < x < b for x in beads)
        moved = sorted([x for x in beads if x != b] + [t], reverse=True)
        smaller = tuple(x - (top - i) for i, x in enumerate(moved) if x - (top - i))
        total += (-1) ** passed * _character(smaller, rest)
    return total


def _class_size(mu):
    """Number of permutations of cycle type mu in S_{sum(mu)}."""
    size = factorial(sum(mu))
    for c in set(mu):
        size //= c ** mu.count(c) * factorial(mu.count(c))
    return size


def _multiplicities(sizes, fixed, ncols):
    """{lam: (dim lam, m_lam)} for each irreducible lam of G = prod S_m, m in sizes.

    lam and the classes are tuples of one partition per factor.  fixed maps
    each class to the number of columns its elements fix, the character of
    the column permutation module, so m_lam = <chi_lam, fixed> is the
    multiplicity of lam in it and bounds that in any submodule.  A
    non-integral or negative m_lam, or sum of dim lam * m_lam other than
    ncols, raises InconsistencyError.
    """
    order = 1
    for m in sizes:
        order *= factorial(m)
    out = {}
    for lam in product(*(tuple(partitions(m)) for m in sizes)):
        total = 0
        for mu, count in fixed.items():
            term = count
            for shape, cycles in zip(lam, mu):
                term *= _class_size(cycles) * _character(shape, cycles)
            total += term
        if total % order or total < 0:
            raise InconsistencyError(f"multiplicity {total}/{order} of {lam} is not a count")
        dim = 1
        for shape, m in zip(lam, sizes):
            dim *= _character(shape, (1,) * m)
        out[lam] = (dim, total // order)
    if sum(dim * mult for dim, mult in out.values()) != ncols:
        raise InconsistencyError("the pieces of the column module do not add up to its columns")
    return out


class _LetterAction:
    """The letter permutations of the runs of a block, on its necklace columns.

    cols is the block's NecklaceColumns map on letters 1..n, runs its
    (first letter, length) runs (_letter_runs), and G the product of the
    symmetric groups of the runs.  A permutation of the columns is a list p,
    the necklace of column c going to column p[c].  Those of the adjacent
    transpositions (t, t + 1) inside a run are read off one rotation code of
    each column; every other element is composed from them.  A relabelled
    word that is no column raises InconsistencyError: the block is not
    G-stable.
    """

    def __init__(self, n, k, cols, runs):
        self.runs = runs
        self.ncols = cols.ncols
        base = n + 1
        code = [0] * cols.ncols
        for w, col in cols.items():
            code[col] = w
        words = [decode(w, base, k) for w in code]
        self._swaps = {}
        for start, size in runs:
            for t in range(start, start + size - 1):
                swap = {t: t + 1, t + 1: t}
                perm = []
                for word in words:
                    col = cols.get(encode([swap.get(x, x) for x in word], base))
                    if col is None:
                        raise InconsistencyError(
                            f"the block is not stable under swapping letters {t} and {t + 1}"
                        )
                    perm.append(col)
                self._swaps[t] = perm

    def transposition(self, a, b):
        """The column permutation of the letters a < b of one run swapped."""
        perm = self._swaps[b - 1]
        for t in range(b - 2, a - 1, -1):  # (t b) = (t t+1)(t+1 b)(t t+1)
            s = self._swaps[t]
            perm = [s[perm[x]] for x in s]
        return perm

    def fixed_columns(self):
        """{class: number of columns its elements fix}, a class being one cycle
        type per run.  The representative of a cycle type moves consecutive
        letters of its run in consecutive cycles, each a product of adjacent
        transpositions."""
        per_run = []
        for start, size in self.runs:
            reps = {}
            for mu in partitions(size):
                perm, t = range(self.ncols), start
                for c in mu:
                    for s in range(t, t + c - 1):
                        perm = [perm[x] for x in self._swaps[s]]
                    t += c
                reps[mu] = perm
            per_run.append(reps)
        fixed = {}
        for cls in product(*(tuple(reps) for reps in per_run)):
            perm = range(self.ncols)
            for reps, mu in zip(per_run, cls):
                perm = [perm[x] for x in reps[mu]]
            fixed[cls] = sum(c == d for c, d in enumerate(perm))
        return fixed

    def symmetrizer(self, lam, mult, weight):
        """The Young symmetrizer e_lam as a map from the columns to mult coordinates.

        e_lam is L*R, the signed sums over the two groups of _tableau_groups,
        the larger group L on the left.  The image of L has a basis of signed
        L-orbit sums (_signed_orbits).  Of those coordinates, the image of
        e_lam, of dimension mult, needs only the leading columns of an
        echelon basis of it: on them it projects one to one.  They are
        numbered by descending weight (the sum of weight over the columns
        that reach them), which keeps the ranks of the pieces sparse.
        Returns image, where image[c] lists the (coordinate, coefficient)
        pairs of e_lam applied to column c; an image of e_lam of rank other
        than mult raises InconsistencyError.
        """
        left, right = _tableau_groups(self.runs, lam)
        coord, ncoords = _signed_orbits(
            [(self.transposition(a, b), s) for (a, b), s in left], self.ncols
        )
        image = [{} for _ in range(self.ncols)]
        for perm, s in self._elements(right):
            for c, d in enumerate(perm):
                got = coord[d]
                if got is not None:
                    o, sd = got
                    image[c][o] = image[c].get(o, 0) + s * sd
        image = [{o: v for o, v in img.items() if v} for img in image]
        keep = range(ncoords)
        if ncoords != mult:
            span = IncrementalSpan(ncoords)
            for img in sorted(image, key=len):
                if span.dim == mult:
                    break
                span.insert(img)
            if span.dim != mult:
                raise InconsistencyError(f"the symmetrizer of {lam} has rank {span.dim}, not {mult}")
            keep = [min(row) for row in span.rows()]
        total = dict.fromkeys(keep, 0)
        for c, img in enumerate(image):
            for o in img:
                if o in total:
                    total[o] += weight[c]
        renumber = {o: j for j, o in enumerate(sorted(keep, key=lambda o: -total[o]))}
        return [tuple((renumber[o], v) for o, v in img.items() if o in renumber) for img in image]

    def _elements(self, gens):
        """(column permutation, sign) of every element of the group generated
        by the ((a, b), sign) transpositions gens, each composed once."""
        identity = tuple(range(max((b for (_, b), _ in gens), default=0) + 1))
        found = {identity: (range(self.ncols), 1)}
        queue = [identity]
        perms = [(a, b, self.transposition(a, b), s) for (a, b), s in gens]
        for key in queue:
            perm, sign = found[key]
            for a, b, p, s in perms:
                moved = list(key)
                moved[a], moved[b] = moved[b], moved[a]
                moved = tuple(moved)
                if moved not in found:
                    found[moved] = ([perm[x] for x in p], sign * s)
                    queue.append(moved)
        return found.values()


def _tableau_groups(runs, lam):
    """(left, right): ((a, b), sign) transpositions generating the two groups
    of the Young symmetrizer of lam, one partition lam_j per run.

    Each run takes the tableau of shape lam_j filled row by row with its
    letters; its row group a comes with sign +1 and its column group b with
    the sign character, and the larger of the two goes on the left (a*b, or
    b*a), which keeps the image of the left group, and so the number of
    coordinates, small.  Rows hold consecutive letters; columns need not.
    """
    left, right = [], []
    for (start, _), shape in zip(runs, lam):
        rows, at = [], start
        for part in shape:
            rows.append(range(at, at + part))
            at += part
        columns = [[row[c] for row in rows if len(row) > c] for c in range(shape[0])]
        a = [((r[i], r[i + 1]), 1) for r in rows for i in range(len(r) - 1)]
        b = [((c[i], c[i + 1]), -1) for c in columns for i in range(len(c) - 1)]
        row_order = col_order = 1
        for r in rows:
            row_order *= factorial(len(r))
        for c in columns:
            col_order *= factorial(len(c))
        left += a if row_order >= col_order else b
        right += b if row_order >= col_order else a
    return left, right


def _signed_orbits(gens, ncols):
    """(coord, ncoords): the signed orbit sums of the group of gens on the columns.

    gens are (column permutation, sign) generators of a group L with a sign
    character chi.  The image of sum chi(l) l is the space of vectors v
    with l v = chi(l) v; on an orbit it is one coordinate, the value at the
    first column, each other column c carrying chi(l) for an l that brings
    the first column to c, unless chi is not trivial on the stabilizer,
    which kills the orbit.  coord[c] is (orbit coordinate, that sign), or
    None on a killed orbit; up to a positive factor per orbit, sum chi(l) l
    sends a vector x to sum over c of coord sign * x[c] at each coordinate.
    """
    sign = [0] * ncols
    coord = [None] * ncols
    ncoords = 0
    for first in range(ncols):
        if sign[first]:
            continue
        sign[first] = 1
        orbit, live = [first], True
        for c in orbit:
            for perm, s in gens:
                d, sd = perm[c], sign[c] * s
                if not sign[d]:
                    sign[d] = sd
                    orbit.append(d)
                elif sign[d] != sd:
                    live = False
        if live:
            for c in orbit:
                coord[c] = (ncoords, sign[c])
            ncoords += 1
    return coord, ncoords


def _split_letters(n, runs):
    """The letters whose rows a split reads first: the last letter of each run
    and every letter of 1..n in no run, less the least of the latter."""
    inside = {t for start, size in runs for t in range(start, start + size)}
    alone = [t for t in range(1, n + 1) if t not in inside]
    return sorted({start + size - 1 for start, size in runs}.union(alone[1:]))


def _split_rank(n, k, keys, rows, cols, runs, more=None):
    """Rank of a trace block, as sum over the irreducibles lam of G of
    dim lam * rank(e_lam W).

    W, the span of the rows, is a G-module: relabelling by G permutes the
    block's tangential derivations and commutes with the trace.  So
    rank W = sum dim lam * rank(e_lam W) for e_lam a Young symmetrizer of
    lam (Fulton-Harris, Representation Theory, Lecture 4), and rank(e_lam W)
    is at most m_lam, the multiplicity of lam among the columns
    (_multiplicities): each piece's exactlin.incremental_rank stops there.

    keys and rows are the labels and rows of some of the block's letters,
    and more(), if given, returns the rows of the others.  A piece whose
    every factor is trivial or sign reads only the rows of _split_letters:
    there e_lam h = chi(h) e_lam for h in G, and h carries the rows of
    letter i onto the span of those of h(i), so one letter per run serves,
    and above degree 1 the rows of the least letter in no run are minus the
    sum of the others'.  Any other piece reads those rows first, and the
    rest of rows and then more() only if it stops below m_lam; more() is
    called at most once.  Every piece projects its rows lazily, sparsest
    first (_LetterAction.symmetrizer).
    """
    action = _LetterAction(n, k, cols, runs)
    sizes = [size for _, size in runs]
    chosen = set(_split_letters(n, runs))
    first = sorted((row for (i, _), row in zip(keys, rows) if row and i in chosen), key=len)
    weight = [0] * cols.ncols  # how many rows touch each column
    for row in rows:
        for c in row:
            weight[c] += 1

    @cache
    def others():
        got = [row for (i, _), row in zip(keys, rows) if row and i not in chosen]
        return sorted(got + [row for row in (more() if more else ()) if row], key=len)

    def read(one_dim):
        yield from first
        if not one_dim:
            yield from others()

    total = 0
    for lam, (dim, mult) in _multiplicities(sizes, action.fixed_columns(), cols.ncols).items():
        if not mult:
            continue
        image = action.symmetrizer(lam, mult, weight)

        def project(row):
            out: dict = {}
            for c, v in row.items():
                for o, s in image[c]:
                    out[o] = out.get(o, 0) + s * v
            return {o: v for o, v in out.items() if v}

        one_dim = all(shape in ((m,), (1,) * m) for shape, m in zip(lam, sizes))
        total += dim * exactlin.incremental_rank(map(project, read(one_dim)), mult, bound=mult)
    return total


def _orbits(n, k, mode):
    """(alpha, orbit, width) for each S_n orbit of content blocks the mode keeps.

    alpha is a partition of k into at most n parts, orbit the number of
    compositions it stands for, n!/((n - len(alpha))! prod mult!), and width
    its necklace count under the mode.  Relabelling the letters maps a block's
    tangential Z-lattice onto that of the relabelled block by a unimodular
    matrix (the Lyndon basis is a Z-basis), permutes the necklaces and
    commutes with the trace; so a block's rank and Smith divisors depend only
    on its sorted content.  Zero-padding alpha to n letters adds only zero rows
    above degree 1 and changes only the word code, so the block of alpha on
    its own letters has the same nonzero rows.  Those letters, at least two,
    must fit in n: at n = 1 the tangential basis is empty.
    """
    if n < 2:
        return
    for alpha in partitions(k, max_parts=n):
        width = mode_width(alpha, mode)
        if width:
            yield alpha, _orbit_size(n, alpha), width


def trace_rank(n: int, k: int, mode=QuotientMode.BAR) -> int:
    """Rank of the mode trace matrix over the full degree-k tangential basis."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return sum(orbit * _block_trace_rank(k, alpha) for alpha, orbit, _ in _orbits(n, k, mode))


def c_alpha(k: int, alpha) -> AlphaReport:
    """Trace rank of the generators with word content alpha.

    The block is built on its own letters (at least two), which gives the
    value at every number of generators that covers the support of alpha.
    """
    alpha = tuple(sorted((exact_int(a) for a in alpha), reverse=True))
    if not alpha or alpha[-1] < 1:
        raise ValueError("alpha parts must be >= 1")
    k = exact_int(k)
    if sum(alpha) != k:
        raise ValueError("alpha must sum to k")
    c = _block_trace_rank(k, alpha)
    return AlphaReport(alpha, c, c - multidegree_rank(len(alpha), k, alpha))


def trace_image_dim(n: int, k: int) -> int:
    """Dimension of the bar-trace image over the degree-k tangential basis."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2, k >= 1")
    return trace_rank(n, k, QuotientMode.BAR)


def trace_kernel_dim(n: int, k: int) -> int:
    return p_rank(n, k) - trace_image_dim(n, k)


def coker_structure(n: int, k: int) -> QuotientStructure:
    """Structure of the bar quotient modulo the integer trace image.

    One Smith form per S_n orbit of blocks (see _orbits), over the columns the
    block's rows touch; each of the block's other bar necklaces is a free
    summand Z of its own.
    """
    if n < 2 or k < 1:
        raise ValueError("need n >= 2, k >= 1")
    free = 0
    torsion_parts = []
    for alpha, orbit, width in _orbits(n, k, QuotientMode.BAR):
        _, rows, cols = _trace_block(k, alpha)
        divisors = exactlin.smith_normal_form(rows, ncols=cols.ncols)
        free += orbit * (width - len(divisors))
        torsion_parts.extend(d for d in divisors if d > 1 for _ in range(orbit))
    return QuotientStructure(free, exactlin.invariant_factors_from_parts(torsion_parts))


# ---------------------------------------------------------------------------
# kernel-versus-image checks


def _block_kernel_pcoords(k, content):
    """Kernel of the bar trace on one block, as integer p-coordinate dicts."""
    keys, rows, _ = _trace_block(k, content)
    cols: dict = {}
    if mode_width(content, QuotientMode.BAR):
        for j, row in enumerate(rows):
            for col, c in row.items():
                cols.setdefault(col, {})[j] = c
    kernel = exactlin.kernel_basis(list(cols.values()), len(keys))
    return [{keys[j]: v for j, v in vec.items()} for vec in kernel]


def check_T0530(n: int, k: int) -> T0530Report:
    """For contents with a letter of multiplicity 1, the trace kernel of the
    block must already lie in the degree-1 generated span.

    checked and skipped list every composition, but the kernel is built and
    tested once per S_n orbit, on the representative's block (whose labels
    are the image block's): relabelling the letters carries the trace kernel
    and the image of the representative's block onto those of each block in
    its orbit (see _orbits and _OrbitImage), so each composition reports its
    representative's kernel dimension.  A representative's kernel vector
    outside the image is relabelled onto each composition of the orbit
    (_relabel), so every violation (content, vector) is a kernel vector of
    that content's own block outside the image.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    if k < 1:
        raise ValueError("need k >= 1")
    image = johnson_image(n, k)
    kernels: dict = {}  # representative -> (kernel dim, kernel vectors outside the image)
    solver = AdSolver(n)  # the identity blocks of _relabel for the violations
    checked, skipped, violations = [], [], []
    for content in compositions(k, n):
        if not multidegree_rank(n, k, content):
            continue
        if 1 not in content:
            skipped.append(content)
            continue
        alpha, perm = _representative(content)
        if alpha not in kernels:
            kernel = _block_kernel_pcoords(k, alpha)
            kernels[alpha] = len(kernel), [v for v in kernel if not image.contains(v)]
        dim, outside = kernels[alpha]
        checked.append((content, dim))
        for vec in outside:
            violations.append((content, tuple(sorted(_relabel(solver, perm, vec).items()))))
    return T0530Report(n, k, tuple(checked), tuple(skipped), tuple(violations))


def _e_generator_words(n):
    """The four bracket families generating the degree-3 part."""
    rng = range(1, n + 1)
    e1, e2, e3, e4 = [], [], [], []
    for i in rng:
        others = [x for x in rng if x != i]
        for j in others:
            for l in others:
                for m in others:
                    if len({j, l, m}) == 3 and j > l < m:
                        e1.append(((i, j), (i, l), (i, m)))
        for j in others:
            for l in others:
                if j != l:
                    e2.append(((i, j), (i, l), (i, j)))
        for j in others:
            for l in others:
                if j != l and not (i > j and i > l):
                    e3.append(((i, j), (i, l), (j, i)))
        for j in others:
            e4.append(((i, j), (j, i), (i, j)))
    return e1, e2, e3, e4


def verify_E_generators(n: int) -> EGeneratorReport:
    """Count the four bracket families and span-check their images in degree 3."""
    if n < 3:
        raise ValueError("need n >= 3")
    families = _e_generator_words(n)
    expected = n * (n - 1) ** 2 * (n + 1) // 3
    pidx = _p_index(n, 3)
    span = IncrementalSpan(len(pidx))
    for family in families:
        for word in family:
            f = tangent.tau1_generator(n, *word[0])
            for pair in word[1:]:
                f = tangent.der_bracket(f, tangent.tau1_generator(n, *pair))
            coords = tangent.p_coordinates(f)
            span.insert({pidx[key]: c for key, c in coords.items()})
    return EGeneratorReport(
        n,
        tuple(len(f) for f in families),
        sum(len(f) for f in families),
        expected,
        span.dim,
        johnson_image(n, 3).dim,
    )


# ---------------------------------------------------------------------------
# tables


def section7_rows(n: int):
    """Degree 1..4 summary: kernel (= graded part), basis sizes, cokernel."""
    if n < 2:
        raise ValueError("need n >= 2")
    rows = []
    for k in range(1, 5):
        coker = coker_structure(n, k)
        label = str(coker.free_rank)
        if coker.torsion:
            label += " + " + " + ".join(f"Z/{d}" for d in coker.torsion)
        rows.append(
            [
                k,
                trace_kernel_dim(n, k),
                p_rank(n, k),
                cyclic_rank(n, k, QuotientMode.BAR),
                label,
            ]
        )
    return rows

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
(``_relabel``, through ``project_lyndon_enc``).  Level m + 1 of alpha is
built from the rows that the spans of the representatives one letter below
store, relabelled, bracketing each basis label (i, u) with each generator
D_ab once per letter and combining the results linearly; a level is its
span and nothing else.  A label's bracket is a closed form by the Jacobi
identity (``_label_bracket``): it needs D_ab(u), one Leibniz pass in degree
m, and [u, x_b], whose Lyndon coordinates (one verified ad-block solve each)
every label (i, u) shares.  Each level owns its degree-(m+1) ad blocks and
one expansion memo (``tangent.AdSolver``) and drops them when it is done: no
later level solves in that degree again, and the image never fills the
process-wide expansion cache.

One builder, ``_trace_block``, makes the trace matrix of a content block on
the block's own letters and on block-local necklace columns; the block rank,
the rational second route, the integral cokernel and the kernel checks all
read it.  It never expands a Lyndon word of the block: one pass over the
pairs of words of its two standard factors' expansions, kept in a memo that
goes with the block, gives the trace rows of every letter
(``tangent.trace_row_enc``); a pair finds its necklace column by its
integer code, each new necklace registering all its rotations at once.
The bar/tilde quotient only decides which blocks count
(``cyclic.mode_width``).  Relabelling letters permutes the trace blocks
without changing their ranks or Smith divisors, so ``trace_rank`` and
``coker_structure`` compute one block per S_n orbit (``_orbits``), keyed by
its partition alone: n only counts the copies; ``check_T0530`` builds one
trace kernel per orbit too.  Only the rational second route visits every
composition on n letters.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import factorial, lcm

from . import exactlin, tangent
from ._words import (
    add_scaled,
    compositions,
    decode,
    encode,
    exact_int,
    is_lyndon,
    lyndon_words_of_content,
    partitions,
    record,
    word_content,
)
from .cyclic import QuotientMode, cyclic_rank, mode_width
from .exactlin import IncrementalSpan, QuotientStructure
from .freelie import _commutator, ad_enc, iota_enc, multidegree_rank, project_lyndon_enc
from .tangent import AdSolver, NecklaceColumns, p_basis, p_rank, trace_row_enc


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
        self._relabelled = {}  # _relabel memo of contains(): relabellings, expansions

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
        and tested there.  A key that is not a basis label (i in 1..n, u a
        Lyndon word of length k on 1..n, not (i, (i,))) raises ValueError.
        """
        letters = frozenset(range(1, self.n + 1))
        parts: dict = {}
        for (i, u), c in vec.items():
            if (i not in letters or len(u) != self.k or u == (i,)
                    or not letters.issuperset(u) or not is_lyndon(u)):
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
            moved = _relabel(self.n, inverse, part, self._relabelled)
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
    return {(b.i, b.monomial.word): j for j, b in enumerate(p_basis(n, k))}


def _lie_coordinates(solver, enc, content):
    """Lyndon coordinates of a Lie element L of degree solver.k, given encoded.

    Solves [L, x_1] = L x_1 - x_1 L on the (1, content) block, content being
    L's own.  ad x_1 is injective above degree 1 (the centralizer of x_1 is
    Z x_1), so the solve's re-multiply check on [L, x_1] certifies L itself.
    """
    if not enc:
        return {}
    tdict = _commutator(enc, solver.k, {1: 1}, 1, solver.n + 1)
    return solver.block(1, content).solve(tdict)


def _label_bracket(solver, label, a, b, dab, memo):
    """p-coordinates {(t, w): c} of [f, D_ab] for the basis label (i, u).

    f: x_i -> [u, x_i] and D_ab: x_a -> [x_b, x_a], the value dab being
    [x_b, x_a] encoded.  By the Jacobi identity [f, D_ab] sends
    x_t -> [L_t, x_t], with L_i = -D_ab(u) and, when i is a or b, L_a
    gaining -[u, x_b] (i = a) or [u, x_b] (i = b).  So the
    degree-(m+1) tensor of [u, x_i] is never formed: D_ab(u) is one Leibniz
    pass over the length-m expansion of u.  The Lyndon coordinates of D_ab(u)
    and of [u, x_b] come from solver, the AdSolver of degree m + 1, and are
    memoized in memo under (u, a, b) and (u, b), which every label (i, u)
    shares; the expansions go to solver.memo.  The caller decides how long
    solver and memo live.
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


def _relabel(n, perm, vec, memo):
    """vec {(i, u): c} with every letter x made perm[x - 1], on Lyndon labels.

    The label (i, u) goes to perm(i) and to the Lyndon coordinates of the
    relabelled basis element of u (project_lyndon_enc), memoized in memo
    under (perm, u).  memo is an expansion memo too (freelie.iota_enc, keys
    (n, word)): the expansions of u and of the relabelled words go there.
    The caller decides how long memo lives.
    """
    if perm == tuple(range(1, n + 1)):
        return vec
    base = n + 1
    out: dict = {}
    for (i, u), c in vec.items():
        coords = memo.get((perm, u))
        if coords is None:
            k = len(u)
            moved = {
                encode([perm[x - 1] for x in decode(w, base, k)], base): d
                for w, d in iota_enc(n, u, memo).items()
            }
            coords = memo[(perm, u)] = project_lyndon_enc(n, k, moved, memo)
        j = perm[i - 1]
        add_scaled(out, {(j, w): d for w, d in coords.items()}, c)
    return out


class _Block:
    """The image in one content block, on block-local columns.

    labels lists the block's basis labels (_block_labels); index inverts it.
    """

    __slots__ = ("labels", "index", "span")

    def __init__(self, n, content):
        self.labels = _block_labels(n, lyndon_words_of_content(content))
        self.index = {key: col for col, key in enumerate(self.labels)}
        self.span = IncrementalSpan(len(self.labels))


def _block_labels(n, words):
    """The basis labels (i, u) of a content block, in global basis order.

    words are the block's Lyndon words in order; each letter i of 1..n takes
    each of them, except that (i, (i,)) is no label: [x_i, x_i] = 0.
    """
    return [(i, u) for i in range(1, n + 1) for u in words if u != (i,)]


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
    caller in the package reaches it from more than one thread (the CLI's
    pool runs c_alpha only).
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
        solver = AdSolver(n, m + 1)  # the ad blocks and expansions of this level alone
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
        alpha - e_b, which no other pair brackets.  The relabellings and every
        expansion go to solver.memo, which lives for the level.
        """
        n = self.n
        labels = source.labels
        memo: dict = {}  # shared by the labels (i, u), see _label_bracket
        images: dict = {}  # (label, a) -> block columns of [label, D_ab]
        for row in source.span.rows():
            moved = _relabel(n, perm, {labels[j]: c for j, c in row.items()}, solver.memo)
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


def _trace_block(k, content):
    """Trace matrix of one content block on its own letters: (keys, rows, ncols).

    The block's letters are 1..len(content), at least two (one letter has no
    degree-1 basis); a zero entry is a letter the block's words do not use.
    keys are the basis labels (i, u) of the block in global basis order, and
    rows[j] is the full trace of keys[j] on block-local necklace columns,
    numbered 0..ncols-1 in the order the factor pairs first meet them.  One
    pass over the pairs of words of the expansions of u's standard factors
    gives the rows of every letter i (trace_row_enc), and u itself is never
    expanded; above degree 1 the row of a letter absent from u is zero.  The
    column map and the expansion memo live for this one block: every closed
    word has the block's content, and the memo holds only the expansions of
    the factors of the block's words and of theirs.
    """
    n = max(len(content), 2)
    content = content + (0,) * (n - len(content))
    words = lyndon_words_of_content(content)
    cols = NecklaceColumns()
    memo: dict = {}
    traces = {u: trace_row_enc(n, k, u, cols, memo) for u in words}
    keys = _block_labels(n, words)
    return keys, [traces[u].get(i, {}) for i, u in keys], cols.ncols


@lru_cache(maxsize=None)
def _block_trace_rank(k, alpha):
    """Rank of the trace matrix of one block (see exactlin.incremental_rank).

    The block is built on its own letters (_trace_block), so one entry serves
    every n.  It does not depend on the mode: a quotient keeps or kills a
    content block whole, so the mode only decides which blocks count
    (cyclic.mode_width).
    """
    _, rows, ncols = _trace_block(k, alpha)
    return exactlin.incremental_rank(rows, ncols)


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


def trace_image_dim_direct(n: int, k: int) -> int:
    """Independent route: exact rational rank of every content block (no orbits)."""
    total = 0
    for content in compositions(k, n):
        if mode_width(content, QuotientMode.BAR):
            _, rows, ncols = _trace_block(k, content)
            total += exactlin.rank(rows, ncols)
    return total


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
        _, rows, ncols = _trace_block(k, alpha)
        rows = [row for row in rows if row]
        divisors = exactlin.smith_normal_form(rows, ncols=ncols) if rows else []
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
    out = []
    for vec in kernel:
        den = 1
        for v in vec.values():
            den = lcm(den, v.denominator)
        out.append({keys[j]: int(v * den) for j, v in vec.items()})
    return out


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
    image = johnson_image(n, k)
    kernels: dict = {}  # representative -> (kernel dim, kernel vectors outside the image)
    memo: dict = {}  # _relabel memo of the violations
    checked, skipped, violations = [], [], []
    for content in compositions(k, n):
        if not lyndon_words_of_content(content):
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
            violations.append((content, tuple(sorted(_relabel(n, perm, vec, memo).items()))))
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

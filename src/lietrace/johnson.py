"""Spans of iterated brackets of degree-1 tangential generators, trace ranks,
kernels and cokernels, and the consistency checks tying them together.

Everything multihomogeneous is computed block by block: a bracket of
generators indexed by letters b_1..b_k lives in the multidegree
e_{b_1}+...+e_{b_k} block, and trace matrices never mix content classes.  The
global spans still live over the full ordered basis of the degree, so sparse
insertion automatically stays block-local.

The image engine (``_ImageEngine``) builds degree k + 1 from the accepted
vectors of degree k alone, bracketing each basis label (i, u) with each
generator D_ab once per level and combining the results linearly.  A label's
bracket is a closed form by the Jacobi identity (``_label_bracket``): it needs
D_ab(u), one Leibniz pass in degree m, and [u, x_b], whose Lyndon coordinates
(one verified ad-block solve each) every label (i, u) of the level shares.
Each level owns its degree-(m+1) ad blocks and its memo, and drops both when
it is done: no later level solves in that degree again.

One builder, ``_trace_block``, makes the trace matrix of a content block on
the block's own letters and on block-local necklace columns; the block rank,
the rational second route, the integral cokernel and the kernel checks all
read it.  The bar/tilde quotient only decides which blocks count
(``cyclic.mode_width``).  Relabelling letters permutes the blocks without
changing their ranks or Smith divisors, so ``trace_rank`` and
``coker_structure`` compute one block per S_n orbit (``_orbits``), keyed by
its partition alone: n only counts the copies.  The rational second route and
the kernel checks visit every composition on n letters.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import cache, lru_cache
from math import factorial, lcm

from . import exactlin, tangent
from ._words import (
    add_scaled,
    compositions,
    exact_int,
    lyndon_words_of_content,
    partitions,
    word_content,
)
from .cyclic import QuotientMode, cyclic_rank, mode_width
from .exactlin import IncrementalSpan, QuotientStructure
from .freelie import _commutator, ad_enc, iota_enc, multidegree_rank
from .tangent import AdSolver, p_basis, p_rank, trace_row_enc


@dataclass
class ImageBasis:
    """Degree-k part of the subalgebra generated in degree 1."""

    n: int
    k: int
    span: IncrementalSpan

    @property
    def dim(self) -> int:
        return self.span.dim


@dataclass(frozen=True)
class AlphaReport:
    alpha: tuple
    c_alpha: int
    r_alpha: int


@dataclass(frozen=True)
class T0530Report:
    n: int
    k: int
    checked: tuple  # (alpha, kernel_dim) pairs
    skipped: tuple  # compositions with no part equal to 1
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
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
    shares; the caller decides how long solver and memo live.
    """
    i, u = label
    n = solver.n
    content = word_content(u + (b,), n)  # the content of D_ab(u) and [u, x_b]
    du = memo.get((u, a, b))
    if du is None:
        gen = {a: (dab, 2)}
        enc = tangent._apply_values_enc(n, gen, iota_enc(n, u), len(u))
        du = memo[(u, a, b)] = _lie_coordinates(solver, enc, content)
    out = {(i, w): -c for w, c in du.items()}
    if i == a or i == b:
        ub = memo.get((u, b))
        if ub is None:
            ub = memo[(u, b)] = _lie_coordinates(solver, ad_enc(n, u, b), content)
        add_scaled(out, {(a, w): c for w, c in ub.items()}, 1 if i == b else -1)
    return out


class _ImageEngine:
    """Incremental degree-by-degree span of the degree-1 generated subalgebra.

    Level k is spanned by the brackets [v, D_ab] of the accepted vectors v of
    level k - 1 with the generators D_ab: x_a -> [x_b, x_a].  The bracket is
    linear in v, so each level brackets every basis label (i, u) occurring in
    its top vectors with each D_ab once (_label_bracket, by the Jacobi
    identity) and forms [v, D_ab] as the integer combination of those images.
    Each (u, D_ab) costs one Leibniz pass and one verified solve, shared by
    the n labels (i, u); the ad blocks and the memo behind them are locals of
    _advance.  The n(n - 1) generator values [x_b, x_a] are expanded once per
    engine.  Only the top level's accepted vectors are kept (p-coordinates
    keyed by basis position); every level's span is kept, since johnson_image
    reads any of them.
    """

    _cache: dict = {}
    _lock = threading.Lock()

    def __init__(self, n: int):
        self.n = n
        # (a, b) -> [x_b, x_a] encoded, the value of the generator D_ab
        self.gens = {
            (a, b): ad_enc(n, (b,), a)
            for a in range(1, n + 1)
            for b in range(1, n + 1)
            if a != b
        }
        pidx = _p_index(n, 1)
        span = IncrementalSpan(len(pidx))
        self.top = []
        for a, b in self.gens:
            vec = {pidx[(a, (b,))]: 1}
            span.insert(vec)
            self.top.append(vec)
        self.spans = [span]
        self._advance_lock = threading.Lock()

    @classmethod
    def get(cls, n: int) -> "_ImageEngine":
        got = cls._cache.get(n)
        if got is None:
            with cls._lock:
                got = cls._cache.get(n)
                if got is None:
                    got = cls(n)
                    cls._cache[n] = got
        return got

    def extend(self, k: int):
        with self._advance_lock:
            while len(self.spans) < k:
                self._advance()

    def _advance(self):
        n = self.n
        m = len(self.spans)  # degree of the current top level
        labels = tuple(_p_index(n, m))
        pidx = _p_index(n, m + 1)
        span = IncrementalSpan(len(pidx))
        solver = AdSolver(n, m + 1)  # the ad blocks of this level alone
        memo: dict = {}  # shared by the labels of this level, see _label_bracket
        images: dict = {}  # (j, a, b) -> p-coordinates of [basis element j, D_ab]
        top = []
        for vec in self.top:
            for (a, b), dab in self.gens.items():
                cand: dict = {}
                for j, c in vec.items():
                    img = images.get((j, a, b))
                    if img is None:
                        got = _label_bracket(solver, labels[j], a, b, dab, memo)
                        img = images[(j, a, b)] = {pidx[key]: v for key, v in got.items()}
                    add_scaled(cand, img, c)
                if span.insert(cand):
                    top.append(cand)
        self.top = top
        self.spans.append(span)


def johnson_image(n: int, k: int) -> ImageBasis:
    """Degree-k span of iterated brackets of the degree-1 generators."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2, k >= 1")
    engine = _ImageEngine.get(n)
    engine.extend(k)
    return ImageBasis(n, k, engine.spans[k - 1])


# ---------------------------------------------------------------------------
# trace matrices by content block


def _trace_block(k, content):
    """Trace matrix of one content block on its own letters: (keys, rows, ncols).

    The block's letters are 1..len(content), at least two (one letter has no
    degree-1 basis); a zero entry is a letter the block's words do not use.
    keys are the basis labels (i, u) of the block in global basis order, and
    rows[j] is the full trace of keys[j] on block-local necklace columns,
    numbered 0..ncols-1 in first-seen order.  Above degree 1 the row of a
    letter i absent from u is zero, so it is not computed.  The necklace-code
    memo lives for this one block: every closed word has the block's content.
    """
    n = max(len(content), 2)
    content = content + (0,) * (n - len(content))
    words = lyndon_words_of_content(content)
    necks: dict = {}
    cols: dict = {}
    keys, rows = [], []
    for i in range(1, n + 1):
        for u in words:
            if k == 1 and u == (i,):
                continue
            row = trace_row_enc(n, k, u, i, necks) if content[i - 1] or k == 1 else {}
            keys.append((i, u))
            rows.append({cols.setdefault(w, len(cols)): c for w, c in row.items()})
    return keys, rows, len(cols)


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
            orbit = factorial(n) // factorial(n - len(alpha))
            for v in set(alpha):
                orbit //= factorial(alpha.count(v))
            yield alpha, orbit, width


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
    block must already lie in the degree-1 generated span."""
    if n < 3:
        raise ValueError("need n >= 3")
    image = johnson_image(n, k)
    pidx = _p_index(n, k)
    checked, skipped, violations = [], [], []
    for content in compositions(k, n):
        if not lyndon_words_of_content(content):
            continue
        if 1 not in content:
            skipped.append(content)
            continue
        kernel = _block_kernel_pcoords(k, content)
        checked.append((content, len(kernel)))
        for vec in kernel:
            gvec = {pidx[key]: c for key, c in vec.items()}
            if not image.span.contains(gvec):
                violations.append((content, tuple(sorted(vec.items()))))
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

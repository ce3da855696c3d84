"""Finitely presented groups, twisted first cohomology, abelianizations.

Presentations store relators as words over the generators and formal
inverses.  Relations stated as equalities are converted to relators by
right-multiplying with the inverse of the right-hand side.  Twisted
coefficients are integer lattices with one invertible matrix per generator;
crossed homomorphisms follow f(uv) = f(u) + u.f(v).
"""

from __future__ import annotations

from . import exactlin
from ._words import InconsistencyError, add_scaled, exact_int, record
from .exactlin import QuotientStructure


# ---------------------------------------------------------------------------
# words and presentations


def _inv(word):
    return tuple((g, -e) for g, e in reversed(word))


def _concat(*words):
    out = []
    for w in words:
        out.extend(w)
    return tuple(out)


def _commutator(x, y):
    return _concat(x, y, _inv(x), _inv(y))


def _gen(name):
    return ((name, 1),)


def _declared(generators) -> set:
    """The set of generator names; ValueError on the first repeated one."""
    gens = set()
    for g in generators:
        if g in gens:
            raise ValueError(f"repeated generator name {g!r}")
        gens.add(g)
    return gens


@record
class Presentation:
    generators: tuple
    relators: tuple

    def __post_init__(self):
        object.__setattr__(self, "generators", tuple(self.generators))
        gens = _declared(self.generators)
        rels = []
        for rel in self.relators:
            rel = tuple((g, exact_int(e)) for g, e in rel)
            for g, e in rel:
                if g not in gens:
                    raise ValueError(f"relator uses undeclared generator {g!r}")
                if e not in (1, -1):
                    raise ValueError("store relators with exponents +1/-1")
            rels.append(rel)
        object.__setattr__(self, "relators", tuple(rels))

    @classmethod
    def _unchecked(cls, generators: tuple, relators: tuple):
        """Wrap tuples whose names are declared once and exponents are +1/-1."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "generators", generators)
        object.__setattr__(obj, "relators", relators)
        return obj


def builtin(kind: str, n: int) -> Presentation:
    """The stock presentations: mccool (the basis-conjugating group), bp, braid
    and symmetric (or sym), on generators K{i}_{j}, sigma{i} and s{i}.

    braid is the Artin relators of sigma1..sigma(n-1) (``_artin``), symmetric
    the squares s_i s_i then the Artin relators of the s_i, and bp the braid
    generators and relators, then the symmetric ones, then the mixed families
    BP1 [sigma_i, s_j] (|i - j| >= 2), BP2 and BP3.
    """
    kind = kind.lower()
    if n < 2:
        raise ValueError("need n >= 2")
    if kind == "mccool":
        return _mccool(n)
    if kind == "bp":
        return _braid_permutation(n)
    if kind == "braid":
        return _braid(n)
    if kind in ("symmetric", "sym"):
        return _symmetric(n)
    raise ValueError(f"unknown presentation kind {kind!r}")


def _kname(i, j):
    return f"K{i}_{j}"


def _mccool(n):
    gens = [_kname(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j]
    rels = []
    rng = range(1, n + 1)
    # commuting pairs with a shared conjugator
    for j in rng:
        for i in rng:
            for k in rng:
                if i < k and len({i, j, k}) == 3:
                    rels.append(_commutator(_gen(_kname(i, j)), _gen(_kname(k, j))))
    # fully disjoint commuting pairs
    for i in rng:
        for j in rng:
            if i == j:
                continue
            for k in rng:
                for l in rng:
                    if k == l or len({i, j, k, l}) != 4:
                        continue
                    if (i, j) < (k, l):
                        rels.append(
                            _commutator(_gen(_kname(i, j)), _gen(_kname(k, l)))
                        )
    # the mixed relation [K_ik, K_ij K_kj] = 1
    for i in rng:
        for k in rng:
            for j in rng:
                if len({i, j, k}) == 3:
                    rels.append(
                        _commutator(
                            _gen(_kname(i, k)),
                            _concat(_gen(_kname(i, j)), _gen(_kname(k, j))),
                        )
                    )
    return Presentation(tuple(gens), tuple(rels))


def _artin(gens):
    """Artin relators on a chain of generators: the braid relation
    a b a (b a b)^-1 on each consecutive pair, commutators on distant ones."""
    word = [_gen(g) for g in gens]
    rels = [_concat(a, b, a, _inv(_concat(b, a, b))) for a, b in zip(word, word[1:])]
    m = len(word)
    return rels + [_commutator(word[i], word[j]) for i in range(m) for j in range(i + 2, m)]


def _braid(n):
    gens = tuple(f"sigma{i}" for i in range(1, n))
    return Presentation(gens, tuple(_artin(gens)))


def _symmetric(n):
    gens = tuple(f"s{i}" for i in range(1, n))
    squares = [_concat(_gen(g), _gen(g)) for g in gens]
    return Presentation(gens, tuple(squares + _artin(gens)))


def _braid_permutation(n):
    """B_n and S_n on sigma_i and s_i, with the mixed relations BP1-BP3."""
    braid, sym = _braid(n), _symmetric(n)
    sig = lambda i: _gen(f"sigma{i}")
    per = lambda i: _gen(f"s{i}")
    rels = list(braid.relators + sym.relators)
    rng = range(1, n)
    rels += [_commutator(sig(i), per(j)) for i in rng for j in rng if abs(i - j) >= 2]  # BP1
    # BP2: s_i s_i+1 sigma_i = sigma_i+1 s_i s_i+1, then BP3 with s and sigma swapped
    for x, y in ((per, sig), (sig, per)):
        for i in range(1, n - 1):
            rels.append(_concat(x(i), x(i + 1), y(i), _inv(_concat(y(i + 1), x(i), x(i + 1)))))
    return Presentation(braid.generators + sym.generators, tuple(rels))


# ---------------------------------------------------------------------------
# integer matrices (dense tuples) and lattice actions


def _identity(r):
    return tuple(tuple(int(i == j) for j in range(r)) for i in range(r))


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def _mat_vec(a, v):
    return tuple(sum(a[i][t] * v[t] for t in range(len(v))) for i in range(len(a)))


def _mat_inv(a):
    """Inverse of a unimodular integer matrix: the Hermite form of [A | I] is [I | A^-1]."""
    r = len(a)
    ident = _identity(r)
    hnf = exactlin.hermite_row_reduce([(*row, *e) for row, e in zip(a, ident)], 2 * r)
    if any(not any(row[:r]) for row in hnf):
        raise ValueError("matrix is singular")
    if tuple(tuple(row[:r]) for row in hnf) != ident:
        raise ValueError("matrix is not invertible over the integers")
    return tuple(tuple(row[r:]) for row in hnf)


@record
class LatticeAction:
    """One invertible integer matrix per generator, acting on Z^rank."""

    rank: int
    matrices: dict

    def matrix(self, g):
        got = self.matrices.get(g)
        if got is None:
            raise KeyError(f"no action matrix for generator {g!r}")
        return got

    def inverse(self, g):
        return _mat_inv(self.matrix(g))

    def validate(self, p: Presentation):
        """Every relator must act as the identity for the action to be defined."""
        cocycle_condition_matrix(p, self)


def _transposition_matrix(n, p):
    """Action of the transposition (p, p+1) on the sum-zero sublattice of Z^n,
    written in the basis e_1 - e_n, ..., e_{n-1} - e_n."""
    r = n - 1
    if p < n - 1:
        m = [[int(i == j) for j in range(r)] for i in range(r)]
        m[p - 1][p - 1] = 0
        m[p][p] = 0
        m[p - 1][p] = 1
        m[p][p - 1] = 1
    else:
        m = [[int(i == j) for j in range(r)] for i in range(r)]
        m[r - 1] = [-1] * r
    return tuple(tuple(row) for row in m)


def standard_action(kind: str, n: int) -> LatticeAction:
    """Rank n-1 action through the permutation image of each generator."""
    kind = kind.lower()
    mats = {}
    if kind in ("bp", "braid"):
        for i in range(1, n):
            mats[f"sigma{i}"] = _transposition_matrix(n, i)
    if kind in ("bp", "symmetric", "sym"):
        for i in range(1, n):
            mats[f"s{i}"] = _transposition_matrix(n, i)
    if not mats:
        raise ValueError(f"no standard action for kind {kind!r}")
    return LatticeAction(n - 1, mats)


def trivial_action(p: Presentation) -> LatticeAction:
    return LatticeAction(1, {g: ((1,),) for g in p.generators})


# ---------------------------------------------------------------------------
# crossed homomorphisms


@record
class CrossedHom:
    """A cocycle, given by its value on each generator."""

    images: dict

    def value(self, g):
        return self.images[g]


def evaluate_cocycle(f: CrossedHom, action: LatticeAction, word) -> tuple:
    """Extend f over a word by f(uv) = f(u) + u.f(v), f(g^-1) = -g^-1 f(g)."""
    total = (0,) * action.rank
    prefix = _identity(action.rank)
    for g, e in word:
        if e == 1:
            contrib = _mat_vec(prefix, f.value(g))
            prefix = _mat_mul(prefix, action.matrix(g))
        elif e == -1:
            prefix = _mat_mul(prefix, action.inverse(g))
            contrib = tuple(-x for x in _mat_vec(prefix, f.value(g)))
        else:
            raise ValueError("exponents must be +1/-1")
        total = tuple(a + b for a, b in zip(total, contrib))
    return total


def principal_cocycle(action: LatticeAction, p: Presentation, v) -> CrossedHom:
    """The coboundary g -> g.v - v."""
    v = tuple(exact_int(x) for x in v)
    images = {
        g: tuple(a - b for a, b in zip(_mat_vec(action.matrix(g), v), v))
        for g in p.generators
    }
    return CrossedHom(images)


def _sparse_mul(a, b):
    """Product of two matrices held as tuples of sparse rows."""
    out = []
    for row in a:
        acc: dict = {}
        for t, v in row.items():
            add_scaled(acc, b[t], v)
        out.append(acc)
    return tuple(out)


def cocycle_condition_matrix(p: Presentation, action: LatticeAction):
    """Rows of the linear system cutting out the cocycles inside Z^(gens*rank).

    Unknown layout: generator g_j occupies columns j*rank .. j*rank + rank - 1.
    The Fox walk keeps its prefix products as sparse rows; each action matrix
    and each inverse is made sparse once per call, when a relator first needs
    it, and each letter's block is folded straight into the relator's rows.
    Raises InconsistencyError when a relator does not act as the identity,
    since then the action does not define a module over the group.
    """
    r = action.rank
    ident = tuple({t: 1} for t in range(r))
    gidx = {g: j for j, g in enumerate(p.generators)}
    mats = {}  # (generator, exponent) -> the sparse action of g^exponent
    rows = []
    for rel in p.relators:
        # row t: coefficients of the t-th entry of f(rel) in terms of the f(g)
        rel_rows = [{} for _ in range(r)]
        prefix = ident
        for g, e in rel:
            mat = mats.get((g, e))
            if mat is None:
                dense = action.matrix(g) if e == 1 else action.inverse(g)
                mat = mats[(g, e)] = tuple({j: v for j, v in enumerate(row) if v} for row in dense)
            if e == 1:
                block = prefix
                prefix = _sparse_mul(prefix, mat)
            else:
                prefix = block = _sparse_mul(prefix, mat)
            base = gidx[g] * r
            for row, brow in zip(rel_rows, block):
                for col, v in brow.items():  # add_scaled, without a shifted copy of brow
                    col += base
                    x = row.get(col, 0) + e * v
                    if x:
                        row[col] = x
                    else:
                        del row[col]
        if prefix != ident:
            raise InconsistencyError(f"relator {rel!r} does not act trivially")
        rows.extend(rel_rows)
    return rows, len(p.generators) * r


def z1_basis(p: Presentation, action: LatticeAction):
    """Basis of the cocycles over Q, as primitive integer {col: int} vectors:
    exactlin.kernel_basis of the relator conditions."""
    rows, ncols = cocycle_condition_matrix(p, action)
    return exactlin.kernel_basis(rows, ncols), ncols


def _coboundaries(p: Presentation, action: LatticeAction):
    """The coboundary g -> g.e_t - e_t of each basis vector e_t, laid out as
    the unknowns of cocycle_condition_matrix: at generator g it is column t of
    action.matrix(g) minus e_t, so no matrix is multiplied by a vector."""
    mats = [action.matrix(g) for g in p.generators]
    return [
        [row[t] - (i == t) for mat in mats for i, row in enumerate(mat)]
        for t in range(action.rank)
    ]


def h1_twisted(p: Presentation, action: LatticeAction) -> QuotientStructure:
    """First cohomology with coefficients in the lattice action: Z1/B1.

    Z1 = ker A is saturated in the ambient Z^N, whatever basis z1_basis
    reads, so Z^N/Z1 is free and Z^N/B1 = Z1/B1 + Z^N/Z1: one Smith form of
    the coboundaries in ambient coordinates gives the torsion, and the free
    rank is rank Z1 - rank B1.
    """
    kernel, ncols = z1_basis(p, action)
    z1 = exactlin.IncrementalSpan(ncols)
    for row in kernel:
        z1.insert(row)
    coboundaries = _coboundaries(p, action)
    for vec in coboundaries:
        # membership over Q suffices: Z1 is saturated
        if not z1.contains(vec):
            raise InconsistencyError("coboundary outside the cocycle lattice")
    divisors = exactlin.smith_normal_form(coboundaries, ncols)
    return QuotientStructure(len(kernel) - len(divisors), tuple(d for d in divisors if d > 1))


def abelianization(p: Presentation) -> QuotientStructure:
    """Smith form of the exponent-sum matrix of the relators."""
    gidx = {g: j for j, g in enumerate(p.generators)}
    rows = []
    for rel in p.relators:
        row: dict = {}
        for g, e in rel:
            j = gidx[g]
            row[j] = row.get(j, 0) + e
        row = {j: c for j, c in row.items() if c}
        if row:  # a commutator, like every McCool relator, adds nothing
            rows.append(row)
    return exactlin.quotient_structure(len(p.generators), rows)


def h2_psigma_rank(n: int) -> int:
    """Rank of the second homology of the basis-conjugating group.

    Computed as (relation lattice in degree 2) = m(m-1)/2 - dim of the
    degree-2 bracket span, m = n(n-1); checked against the closed form and
    against the relator count of the presentation before returning.
    """
    if n < 3:
        raise ValueError("need n >= 3")
    from . import johnson  # deferred: johnson pulls in the heavy machinery

    m = n * (n - 1)
    value = m * (m - 1) // 2 - johnson.johnson_image(n, 2).dim
    closed = n * n * (n - 1) * (n - 2) // 2
    relcount = len(builtin("mccool", n).relators)
    if not (value == closed == relcount):
        raise InconsistencyError(
            f"h2 expressions disagree: span={value} closed={closed} relators={relcount}"
        )
    return value


# ---------------------------------------------------------------------------
# plain-text presentation format: one generator line, one relator per line


def parse_presentation(text: str) -> Presentation:
    """Parse the plain-text format; tokens are names or name^k, k any integer.

    One pass over the tokens both expands and checks the relators, so the
    Presentation is built without a second walk; each distinct token is
    parsed and checked once, at its first occurrence, and its letters reused
    after.  The refusals and their precedence are those of Presentation: a
    malformed exponent anywhere comes first (named with its token and file
    line), then a repeated generator, then the first undeclared one.
    """
    lines = [(no, ln) for no, ln in enumerate(map(str.strip, text.splitlines()), 1)
             if ln and ln[0] != "#"]
    if not lines:
        raise ValueError("empty presentation file")
    gens = tuple(lines[0][1].split())
    declared = set(gens)  # a repeated name is refused after the exponents
    undeclared = None
    letters = {}  # token -> its letters
    rels = []
    for no, ln in lines[1:]:
        word = []
        for tok in ln.split():
            got = letters.get(tok)
            if got is None:
                name, caret, exp = tok.partition("^")
                try:
                    exp = int(exp) if caret else 1
                except ValueError:
                    msg = f"line {no}: exponent of {tok!r} is not an integer"
                    raise ValueError(msg) from None
                if exp and name not in declared and undeclared is None:
                    undeclared = name
                got = letters[tok] = ((name, 1 if exp > 0 else -1),) * abs(exp)
            word.extend(got)
        rels.append(tuple(word))
    if len(declared) != len(gens):
        _declared(gens)
    if undeclared is not None:
        raise ValueError(f"relator uses undeclared generator {undeclared!r}")
    return Presentation._unchecked(gens, tuple(rels))

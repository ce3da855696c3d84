"""Acceptance suite: every reported number is an exact integer equality.

Each criterion prints one PASS/FAIL line (run pytest with -s to watch) and
asserts both the values and its runtime budget.  Budgets are generous upper
bounds; on this implementation every criterion runs orders of magnitude
faster.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from lietrace import _words, cyclic, exactlin, grouppres, johnson
from lietrace.cyclic import cyclic_rank, j_rank, j_project, Necklace
from lietrace.exactlin import QuotientStructure
from lietrace.freelie import witt_rank
from lietrace.grouppres import (
    CrossedHom,
    abelianization,
    builtin,
    evaluate_cocycle,
    h1_twisted,
    h2_psigma_rank,
    principal_cocycle,
    standard_action,
)
from lietrace.johnson import (
    c_alpha,
    check_T0530,
    coker_structure,
    johnson_image,
    trace_image_dim,
    trace_kernel_dim,
    trace_rank,
    verify_E_generators,
)
from lietrace.tangent import p_rank, tangential, trace, trace_J


def _report(num, name, started, budget, failures):
    elapsed = time.perf_counter() - started
    status = "PASS" if not failures else f"FAIL ({len(failures)} mismatches)"
    print(f"ACCEPTANCE {num} {name}: {status} [{elapsed:.1f}s < {budget}s]")
    assert not failures, failures
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds budget {budget}s"


def test_criterion_1_rank_tables():
    started = time.perf_counter()
    failures = []
    witt_forms = {
        1: lambda n: n,
        2: lambda n: n * (n - 1) // 2,
        3: lambda n: n * (n * n - 1) // 3,
        4: lambda n: n * n * (n * n - 1) // 4,
    }
    cyc_forms = {
        1: lambda n: n,
        2: lambda n: n * (n + 1) // 2,
        3: lambda n: n * (n * n + 2) // 3,
        4: lambda n: n * (n + 1) * (n * n - n + 2) // 4,
    }
    bar_forms = {
        1: lambda n: 0,
        2: lambda n: n * (n - 1) // 2,
        3: lambda n: n * (n * n - 1) // 3,
        4: lambda n: n * (n - 1) * (n * n + n + 2) // 4,
    }
    p_forms = {
        1: lambda n: n * (n - 1),
        2: lambda n: n * n * (n - 1) // 2,
        3: lambda n: n * n * (n * n - 1) // 3,
        4: lambda n: n ** 3 * (n * n - 1) // 4,
    }
    for n in range(3, 7):
        for k in range(1, 5):
            checks = [
                ("witt", witt_rank(n, k), witt_forms[k](n)),
                ("cyclic", cyclic_rank(n, k, "full"), cyc_forms[k](n)),
                ("cyclic_bar", cyclic_rank(n, k, "bar"), bar_forms[k](n)),
                ("p", p_rank(n, k), p_forms[k](n)),
            ]
            # the necklace formula, cross-checked against raw enumeration
            necks = {
                _words.min_rotation(w)
                for w in itertools.product(range(1, n + 1), repeat=k)
            }
            checks.append(("necklace_enum", cyclic_rank(n, k, "full"), len(necks)))
            for tag, got, want in checks:
                if got != want:
                    failures.append((tag, n, k, got, want))
    _report(1, "rank tables", started, 5, failures)


def test_criterion_2_trace_surjectivity_and_cokernels():
    started = time.perf_counter()
    failures = []
    for n in range(2, 5):
        for k in range(2, 7):
            got = trace_rank(n, k, "tilde")
            want = cyclic_rank(n, k, "tilde")
            if got != want:
                failures.append(("tilde", n, k, got, want))
    for n in range(3, 6):
        for k in (2, 3):
            q = coker_structure(n, k)
            if q != QuotientStructure(0):
                failures.append(("coker", n, k, q))
        q = coker_structure(n, 4)
        if q != QuotientStructure(n * (n - 1) // 2):
            failures.append(("coker", n, 4, q))
    _report(2, "trace surjectivity and cokernels", started, 120, failures)


# the published (3, 2) row reads (1, 0); c = 1 contradicts both the internal
# identity r = c - multidegree_rank and the k = 5 closed form, so the
# verified value (2, 0) is pinned here (see the notes ledger)
TABLE_CR = {
    (5, (3, 2)): (2, 0),
    (6, (4, 2)): (2, 0),
    (6, (3, 3)): (3, 0),
    (6, (2, 2, 2)): (15, 1),
    (7, (5, 2)): (3, 0),
    (7, (4, 3)): (5, 0),
    (7, (3, 2, 2)): (30, 0),
    (8, (6, 2)): (2, -1),
    (8, (5, 3)): (6, -1),
    (8, (4, 4)): (7, -1),
    (8, (4, 2, 2)): (52, 1),
    (8, (3, 3, 2)): (69, -1),
    (8, (2, 2, 2, 2)): (316, 4),
    (9, (7, 2)): (4, 0),
    (9, (6, 3)): (9, 0),
    (9, (5, 4)): (14, 0),
    (9, (5, 2, 2)): (84, 0),
    (9, (4, 3, 2)): (140, 0),
    (9, (3, 3, 3)): (188, 2),
    (9, (3, 2, 2, 2)): (840, 0),
}


def test_criterion_3_cr_tables_through_k8():
    started = time.perf_counter()
    failures = []
    for (k, alpha), want in TABLE_CR.items():
        if k > 8:
            continue
        rep = c_alpha(k, alpha)
        if (rep.c_alpha, rep.r_alpha) != want:
            failures.append((k, alpha, (rep.c_alpha, rep.r_alpha), want))
    # the five rows pinned verbatim by the acceptance statement
    for k, alpha, want in [
        (6, (2, 2, 2), (15, 1)),
        (8, (6, 2), (2, -1)),
        (8, (4, 2, 2), (52, 1)),
        (8, (2, 2, 2, 2), (316, 4)),
        (9, (3, 3, 3), (188, 2)),
    ]:
        if k > 8:
            continue
        rep = c_alpha(k, alpha)
        if (rep.c_alpha, rep.r_alpha) != want:
            failures.append(("pinned", k, alpha))
    _report(3, "c/r tables k<=8", started, 300, failures)


def test_criterion_3_cr_tables_k9():
    started = time.perf_counter()
    failures = []
    for (k, alpha), want in TABLE_CR.items():
        if k != 9:
            continue
        rep = c_alpha(k, alpha)
        if (rep.c_alpha, rep.r_alpha) != want:
            failures.append((k, alpha, (rep.c_alpha, rep.r_alpha), want))
    _report(3, "c/r tables k=9", started, 1800, failures)


# the k = 10 rows of the c/r table; the six that the split by the letter
# stabilizer computes are pinned by a second route too (next test)
TABLE_CR_10 = {
    (8, 2): (3, -1),
    (7, 3): (10, -2),
    (6, 4): (17, -3),
    (6, 2, 2): (125, 1),
    (5, 5): (23, -2),
    (5, 3, 2): (250, -2),
    (4, 4, 2): (313, 1),
    (4, 3, 3): (417, -3),
    (4, 2, 2, 2): (1893, 9),
    (3, 3, 2, 2): (2518, -2),
    (2, 2, 2, 2, 2): (11350, 22),
}


def test_criterion_3_cr_tables_k10():
    started = time.perf_counter()
    failures = []
    for alpha, want in TABLE_CR_10.items():
        rep = c_alpha(10, alpha)
        if (rep.c_alpha, rep.r_alpha) != want:
            failures.append((alpha, (rep.c_alpha, rep.r_alpha), want))
    _report(3, "c/r tables k=10", started, 600, failures)


def _by_row_count(rows):
    """The rows, their columns renumbered by descending count of the rows that
    touch them, ties by column; the rank is unchanged, and the plain rank
    pivots on the densest columns first, which is faster on large blocks."""
    count = Counter(col for row in rows for col in row)
    order = sorted(count, key=lambda col: (-count[col], col))
    new = {col: j for j, col in enumerate(order)}
    return [{new[col]: c for col, c in row.items()} for row in rows]


def test_criterion_3_cr_tables_k10_second_routes():
    # each row that the split by the letter stabilizer computes: the plain
    # rank of the rows (columns renumbered by row count), and on
    # (2,2,2,2,2), where the plain rank does not finish, a split by the
    # subgroup S_4 of the first four letters in place of the whole
    # stabilizer S_5
    started = time.perf_counter()
    failures = []
    for alpha in [(6, 2, 2), (4, 4, 2), (4, 3, 3), (4, 2, 2, 2), (3, 3, 2, 2)]:
        _, rows, cols = johnson._trace_block(10, alpha)
        got = exactlin.incremental_rank(_by_row_count(rows), cols.ncols)
        if got != TABLE_CR_10[alpha][0]:
            failures.append((alpha, got))
    keys, rows, cols = johnson._trace_block(10, (2, 2, 2, 2, 2))
    got = johnson._split_rank(5, 10, keys, rows, cols, [(1, 4)])
    if got != TABLE_CR_10[(2, 2, 2, 2, 2)][0]:
        failures.append(((2, 2, 2, 2, 2), got))
    _report(3, "c/r tables k=10, second routes", started, 1200, failures)


def test_criterion_3_extended_k11():
    started = time.perf_counter()
    failures = []
    for alpha, want_r in [((8, 3), -1), ((7, 4), -2)]:
        rep = c_alpha(11, alpha)
        if rep.r_alpha != want_r:
            failures.append((alpha, rep.r_alpha, want_r))
    _report(3, "extended k=11", started, 1800, failures)


N3_IMAGE = [6, 6, 16, 36, 96, 231, 618, 1596]
N3_KERNEL = [6, 6, 16, 36, 96, 231, 624, 1635]


def test_criterion_4_n3_table_through_k6():
    started = time.perf_counter()
    failures = []
    for k in range(1, 7):
        im = johnson_image(3, k).dim
        ker = trace_kernel_dim(3, k)
        if im != N3_IMAGE[k - 1]:
            failures.append(("image", k, im))
        if ker != N3_KERNEL[k - 1]:
            failures.append(("kernel", k, ker))
        if im != ker:
            failures.append(("equality", k, im, ker))
    _report(4, "n=3 table k<=6", started, 60, failures)


def test_criterion_4_n3_table_k7():
    started = time.perf_counter()
    failures = []
    im, ker = johnson_image(3, 7).dim, trace_kernel_dim(3, 7)
    if (im, ker) != (618, 624):
        failures.append((im, ker))
    if ker - im != 6:
        failures.append(("gap", ker - im))
    _report(4, "n=3 table k=7", started, 300, failures)


def test_criterion_4_n3_table_k8():
    started = time.perf_counter()
    failures = []
    im, ker = johnson_image(3, 8).dim, trace_kernel_dim(3, 8)
    if (im, ker) != (1596, 1635):
        failures.append((im, ker))
    if ker - im != 39:
        failures.append(("gap", ker - im))
    _report(4, "n=3 table k=8", started, 1200, failures)


def test_criterion_4_n3_table_k9():
    started = time.perf_counter()
    failures = []
    im, ker = johnson_image(3, 9).dim, trace_kernel_dim(3, 9)
    ranks = (p_rank(3, 9), trace_image_dim(3, 9))
    if ranks != (6552, 2186):
        failures.append(("trace", ranks))
    if (im, ker) != (4276, 4366):
        failures.append((im, ker))
    if ker - im != 90:
        failures.append(("gap", ker - im))
    _report(4, "n=3 table k=9", started, 1200, failures)


def test_criterion_5_trace_image_closed_forms():
    started = time.perf_counter()
    failures = []

    def expected(n, k):
        if k == 5:
            return witt_rank(n, 5)
        if k == 6:
            return witt_rank(n, 6) + comb(n, 3)
        if k == 7:
            return witt_rank(n, 7)
        if k == 8:
            extra = 4 * comb(n, 4) if n >= 4 else 0
            return witt_rank(n, 8) - 2 * n * (n - 1) - comb(n, 2) + extra
        return witt_rank(n, 9) + 2 * comb(n, 3)

    for n in (3, 4, 5):
        for k in range(5, 10):
            got = trace_image_dim(n, k)
            want = expected(n, k)
            if got != want:
                failures.append((n, k, got, want))
    _report(5, "trace image closed forms", started, 600, failures)


def test_criterion_6_kernel_in_image_property():
    started = time.perf_counter()
    failures = []
    for k in (3, 4, 5):
        rep = check_T0530(3, k)
        if not rep.ok:
            failures.append((k, rep.violations))
    _report(6, "kernel-in-image checks", started, 120, failures)


def test_criterion_7_unit_identities():
    started = time.perf_counter()
    failures = []
    f = tangential(2, (1, (1, 2, 1, 2)))
    bar = trace(f, "bar")
    if bar.terms != {Necklace((1, 2, 1, 2)): 2, Necklace((1, 1, 2, 2)): -1}:
        failures.append(("bar", bar.terms))
    if not trace(f, "tilde").is_zero():
        failures.append(("tilde", trace(f, "tilde")))
    if trace_J(f) != 5 * j_project(2, 1, 2, 1, 2):
        failures.append(("trace_J", trace_J(f)))
    for n in range(2, 6):
        if j_rank(n) != n * n * (n * n - 1) // 12:
            failures.append(("j_rank", n, j_rank(n)))
    _report(7, "unit identities", started, 1, failures)


def test_criterion_8_degree3_generators():
    started = time.perf_counter()
    failures = []
    for n in (3, 4):
        rep = verify_E_generators(n)
        want = n * (n - 1) ** 2 * (n + 1) // 3
        if not (rep.total == rep.expected == rep.span_dim == rep.image_dim == want):
            failures.append((n, rep))
    _report(8, "degree-3 generator families", started, 60, failures)


def test_criterion_9_h2_and_free_parts():
    started = time.perf_counter()
    failures = []
    for n in range(3, 9):
        try:
            value = h2_psigma_rank(n)
        except grouppres.InconsistencyError as exc:
            failures.append(("h2", n, str(exc)))
            continue
        if value != n * n * (n - 1) * (n - 2) // 2:
            failures.append(("h2", n, value))
    for n in range(3, 9):
        for kind, free in (("bp", 2), ("braid", 1), ("symmetric", 0)):
            q = h1_twisted(builtin(kind, n), standard_action(kind, n))
            if q.free_rank != free:
                failures.append(("h1 free", kind, n, q))
        if abelianization(builtin("bp", n)) != QuotientStructure(1, (2,)):
            failures.append(("abelianization", n))
    _report(9, "h2 / h1 free parts / abelianization", started, 10, failures)


def _transposition_12_cocycle(p, n):
    """f(g) = g.e_1 - e_1 on the sum-zero lattice, in the basis e_i - e_n.

    Only the generators mapping to the transposition (1 2) move e_1, to e_2;
    there f is e_2 - e_1 = (-1, 1, 0, ...).  Everywhere else f is 0.
    """
    zero = (0,) * (n - 1)
    swap = (-1, 1) + zero[2:]
    return CrossedHom({g: swap if g in ("sigma1", "s1") else zero for g in p.generators})


def _coboundary_preimage(p, action, f, m):
    """The v with g.v - v = m f(g) for every generator g, solved over Q.

    Returns None when no rational v exists.  The stacked matrix of all g - 1
    must have full column rank (L^G = 0), so any solution is unique.
    """
    r = action.rank
    rows = []
    for g in p.generators:
        mat, rhs = action.matrix(g), f.value(g)
        for i in range(r):
            rows.append([Fraction(mat[i][j] - (i == j)) for j in range(r)] + [Fraction(m * rhs[i])])
    for col in range(r):
        piv = next((i for i in range(col, len(rows)) if rows[i][col]), None)
        assert piv is not None, "the invariants L^G are nonzero"
        rows[col], rows[piv] = rows[piv], rows[col]
        lead = rows[col][col]
        rows[col] = [x / lead for x in rows[col]]
        for i, row in enumerate(rows):
            if i != col and row[col]:
                c = row[col]
                rows[i] = [x - c * y for x, y in zip(row, rows[col])]
    if any(row[r] for row in rows[r:]):
        return None
    return [row[r] for row in rows[:r]]


def _cocycle_order(p, action, f, n):
    """Least m in 1..n with m f an integral coboundary, or None."""
    for m in range(1, n + 1):
        v = _coboundary_preimage(p, action, f, m)
        if v is not None and all(x.denominator == 1 for x in v):
            coboundary = principal_cocycle(action, p, [int(x) for x in v])
            assert all(
                coboundary.value(g) == tuple(m * x for x in f.value(g)) for g in p.generators
            ), f"the preimage of {m} f does not reproduce it"
            return m
    return None


@pytest.mark.parametrize("kind", ["bp", "braid", "symmetric"])
@pytest.mark.parametrize("n", range(3, 9))
def test_criterion_9_h1_torsion(kind, n):
    """The torsion of H^1(G; L) is exactly Z/n on the sum-zero lattice L.

    Shapiro gives H^1(S_n; Z^n) = 0, so 0 -> L -> Z^n -> Z -> 0 yields
    H^1(S_n; L) = Z/n; the kernel of B_n, BP_n -> S_n acts trivially on L, so
    inflation-restriction keeps exactly that torsion.  Second route, without
    h1_twisted: the cocycle g -> g.e_1 - e_1 kills every relator and has
    order n in H^1.
    """
    started = time.perf_counter()
    p, action = builtin(kind, n), standard_action(kind, n)
    q = h1_twisted(p, action)
    f = _transposition_12_cocycle(p, n)
    broken = [rel for rel in p.relators if any(evaluate_cocycle(f, action, rel))]
    order = _cocycle_order(p, action, f, n)
    ok = q.torsion == (n,) and not broken and order == n
    status = "PASS" if ok else f"FAIL (computed {q}, cocycle order {order})"
    print(f"ACCEPTANCE 9 h1 torsion {kind} n={n}: {status} "
          f"[target Z/{n}; {time.perf_counter() - started:.1f}s < 10s]")
    assert q.torsion == (n,), f"computed torsion {q.torsion}, target ({n},)"
    assert not broken, f"g.e_1 - e_1 is not a cocycle: fails on {broken[0]!r}"
    assert order == n, f"g.e_1 - e_1 has order {order} in H^1, target {n}"


def test_criterion_10_property_suites():
    """Representative re-run of the randomized suites on their fixed seeds.

    The full property suites live in the per-module test files (hypothesis
    profile `fixed`); this criterion spot-checks one instance of each family
    so the acceptance run is self-contained.
    """
    started = time.perf_counter()
    failures = []
    from lietrace.freelie import LieElement, bracket, embed_tensor, hall_basis, multidegree_rank

    basis = hall_basis(3, 2)
    a = LieElement(3, 2, {basis[0]: 2, basis[1]: -1})
    b = LieElement(3, 2, {basis[1]: 1, basis[2]: 3})
    c = LieElement(3, 2, {basis[0]: 1, basis[2]: -2})
    if bracket(a, b) != -1 * bracket(b, a):
        failures.append("antisymmetry")
    jac = (
        bracket(a, bracket(b, c))
        + bracket(b, bracket(c, a))
        + bracket(c, bracket(a, b))
    )
    if not jac.is_zero():
        failures.append("jacobi")
    for alpha in _words.compositions(4, 3):
        if multidegree_rank(3, 4, alpha) != len(_words.lyndon_words_of_content(alpha)):
            failures.append(("multidegree", alpha))
    for mono in hall_basis(3, 4):
        e = LieElement(3, 4, {mono: 1})
        if not cyclic.project_cyclic(embed_tensor(e)).is_zero():
            failures.append(("projection", mono))
    import random

    rows = [[random.Random(99 + i).randint(-3, 3) for _ in range(5)] for i in range(6)]
    spans = []
    for order in (rows, rows[::-1]):
        s = exactlin.IncrementalSpan(5)
        for r in order:
            s.insert({i: v for i, v in enumerate(r)})
        spans.append(s.dim)
    if spans[0] != spans[1]:
        failures.append("span order")
    from lietrace.cli import main as cli_main

    out = []
    import io
    from contextlib import redirect_stdout

    for threads in ("1", "3"):
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli_main(["calpha", "--k", "6", "--format", "csv", "--threads", threads])
        out.append(buf.getvalue())
    if out[0] != out[1]:
        failures.append("threads determinism")
    _report(10, "property suites", started, 60, failures)

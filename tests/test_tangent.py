import random

import pytest

from _reference import from_p_coordinates
from lietrace._words import (
    InconsistencyError,
    add_scaled,
    compositions,
    encode,
    lyndon_words_of_content,
)
from lietrace.cyclic import Necklace, j_project
from lietrace.exactlin import IncrementalSpan
from lietrace.freelie import LieElement, embed_tensor, iota_enc, normalize, project_lyndon_enc
from lietrace.tangent import (
    AdSolver,
    Derivation,
    apply,
    contract,
    der_bracket,
    p_basis,
    p_coordinates,
    p_rank,
    tangential,
    tau1_generator,
    trace,
    trace_J,
)


def _left_normed(letters):
    tree = letters[0]
    for c in letters[1:]:
        tree = (tree, c)
    return tree


def test_apply_examples():
    n = 3
    f = tau1_generator(n, 1, 2)
    assert apply(f, LieElement.generator(n, 1)) == normalize((2, 1), n)
    assert apply(f, LieElement.generator(n, 2)).is_zero()
    assert apply(f, normalize((1, 2), n)) == normalize(((2, 1), 2), n)


def test_der_bracket_examples():
    n = 3
    f = tau1_generator(n, 1, 2)
    g = tau1_generator(n, 2, 1)
    assert der_bracket(f, f).is_zero()
    fg = der_bracket(f, g)
    expect = Derivation(
        n,
        2,
        {
            1: normalize(_left_normed((2, 1, 1)), n),
            2: normalize(_left_normed((2, 1, 2)), n),
        },
    )
    assert fg == expect


def _random_tangential(n, k, rng):
    basis = p_basis(n, k)
    picks = rng.sample(range(len(basis)), k=min(4, len(basis)))
    out = Derivation(n, k)
    for idx in picks:
        coeff = rng.randint(-2, 2)
        if coeff:
            term = tangential(n, basis[idx])
            out = out + coeff * term
    return out


def test_der_bracket_antisymmetry_and_jacobi():
    rng = random.Random(17)
    n = 3
    for _ in range(6):
        a = _random_tangential(n, rng.choice((1, 2)), rng)
        b = _random_tangential(n, rng.choice((1, 2)), rng)
        c = _random_tangential(n, 1, rng)
        assert der_bracket(a, b) == -1 * der_bracket(b, a)
        jac = (
            der_bracket(a, der_bracket(b, c))
            + der_bracket(b, der_bracket(c, a))
            + der_bracket(c, der_bracket(a, b))
        )
        assert jac.is_zero()


def test_tangential_closure_in_basis_coordinates():
    # brackets of tangential elements re-express exactly on the (i, u) basis
    rng = random.Random(23)
    n = 3
    for ka, kb in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 4), (3, 3)]:
        a = _random_tangential(n, ka, rng)
        b = _random_tangential(n, kb, rng)
        br = der_bracket(a, b)
        coords = p_coordinates(br)  # raises if not in the lattice
        assert from_p_coordinates(n, ka + kb, coords) == br


def test_p_coordinates_round_trip_on_every_label():
    # each basis element alone reads back as its own label: 637 labels, whose
    # words u end in up to k - 1 copies of i, so T = [u, x_i] is read off
    # along rotation chains of every length
    seen, longest = 0, {}
    for n, kmax in ((2, 6), (3, 5), (4, 4)):
        for k in range(1, kmax + 1):
            for label in p_basis(n, k):
                assert p_coordinates(from_p_coordinates(n, k, {label: 1})) == {label: 1}, label
                i, u = label
                tail = next(t for t in range(len(u)) if u[-1 - t] != i)  # u has a letter other than i
                longest[k] = max(longest.get(k, 0), tail)
                seen += 1
    assert seen == 637
    assert longest == {k: k - 1 for k in range(1, 7)}


def test_p_coordinates_rejects_non_tangential():
    # [[x1,x2],x3] at x2 has the block content of [[x2,x3],x1] but is no multiple of it
    f = Derivation(3, 2, {1: normalize(((1, 2), 3), 3)})
    with pytest.raises(ArithmeticError):
        p_coordinates(f)
    # a value at x_1 with no letter 1 is no [l, x_1]
    f = Derivation(3, 1, {1: normalize((2, 3), 3)})
    with pytest.raises(ArithmeticError):
        p_coordinates(f)


def test_dependent_ad_rows_are_an_inconsistency(monkeypatch):
    # the block's independence certificate is a consistency check, not a
    # membership answer: it must not pass for p_coordinates' ArithmeticError
    monkeypatch.setattr(IncrementalSpan, "insert", lambda self, vec: False)
    with pytest.raises(InconsistencyError, match="unexpectedly dependent"):
        p_coordinates(tau1_generator(3, 1, 2))


def test_identity_block_matches_projection():
    # the identity block's forward substitution against project_lyndon_enc,
    # the lead-by-lead route, on random integer combinations of the Lyndon
    # expansions of every content at n <= 4, k <= 6
    rng = random.Random(35)
    for n in range(1, 5):
        solver = AdSolver(n)
        memo: dict = {}  # the projection route's expansions
        for k in range(1, 7):
            for content in compositions(k, n):
                words = lyndon_words_of_content(content)
                if not words:
                    continue
                block = solver.block(content)
                assert block.us == words
                for _ in range(3):
                    coords = {u: rng.randint(-9, 9) for u in rng.sample(words, min(len(words), 4))}
                    enc: dict = {}
                    for u, c in coords.items():
                        add_scaled(enc, iota_enc(n, u, solver.memo), c)
                    want = project_lyndon_enc(n, k, enc, memo)
                    assert block.solve(enc) == want == {u: c for u, c in coords.items() if c}


def test_identity_block_refuses_tensors_off_the_lie_subspace():
    # the re-multiply check raises ArithmeticError, with no assert: a Lie
    # element plus one stray word of its content, and a Lyndon word's code
    n = 3
    solver = AdSolver(n)
    base = n + 1
    for u in [(1, 2), (1, 1, 2), (1, 2, 3), (1, 1, 2, 3, 2)]:
        block = solver.block(tuple(u.count(x) for x in range(1, n + 1)))
        rot = encode(u[1:] + u[:1], base)  # a rotation: no Lyndon word
        stray = add_scaled(dict(iota_enc(n, u, solver.memo)), {rot: 1})
        with pytest.raises(ArithmeticError):
            block.solve(stray)
        with pytest.raises(ArithmeticError):
            block.solve({encode(u, base): 1})


def test_derivation_coefficients_are_exact():
    n = 3
    f = tau1_generator(n, 1, 2)
    with pytest.raises(ValueError):
        0.5 * f
    with pytest.raises(ValueError):
        2.7 * f
    assert 2.0 * f == f + f
    assert (f - f).is_zero() and (f - f).values == {}
    with pytest.raises(TypeError):
        Derivation(n, 1, {1: 1})  # values must be Lie elements
    with pytest.raises(TypeError):
        f + normalize((2, 1), n)
    assert repr(f - 2 * tau1_generator(n, 2, 1)) == (
        "x1* (x) (- 1*[x1,x2]) + x2* (x) (- 2*[x1,x2])"
    )


def test_j_elements_keep_integer_coefficients():
    # J's relations have unit pivots, so reduced coordinates stay integers
    j = j_project(4, 1, 2, 3, 4)
    double = 2 * j
    assert double == j + j and double - j == j
    assert all(type(v) is int for v in double.coords.values())
    with pytest.raises(TypeError):
        double + normalize((1, 2), 4)


def test_contract_examples():
    n = 3
    d = Derivation(n, 2, {1: normalize(_left_normed((1, 2, 3)), n)})
    assert contract(d).terms == {(2, 3): 1}
    d = Derivation(n, 2, {1: normalize(_left_normed((2, 3, 2)), n)})
    assert contract(d).is_zero()
    d = Derivation(2, 2, {1: normalize(_left_normed((1, 2, 1)), 2)})
    assert contract(d).terms == {(2, 1): 2, (1, 2): -1}


def test_contraction_identity_with_interior_repeats():
    """Leading-slot contraction of x_i* (x) [x_i, x_{j_1}, ..., x_{j_k}] equals
    the plain word minus bracket-corrections at every interior x_i."""
    n = 3
    rng = random.Random(29)
    base = n + 1
    for _ in range(40):
        k = rng.randint(2, 5)
        i = rng.randint(1, n)
        word = [rng.randint(1, n) for _ in range(k)]
        while word[0] == i:
            word[0] = rng.randint(1, n)
        f = Derivation(
            n, k, {i: normalize(_left_normed((i, *word)), n)}
        )
        got = contract(f)
        expect = {tuple(word): 1}
        for l in range(2, k + 1):
            if word[l - 1] != i:
                continue
            head = embed_tensor(normalize(_left_normed((i, *word[: l - 1])), n))
            tail = tuple(word[l:])
            for w, c in head.terms.items():
                key = w + tail
                val = expect.get(key, 0) - c
                if val:
                    expect[key] = val
                else:
                    del expect[key]
        assert got.terms == expect, (i, word)


def test_trace_identities():
    w5 = tangential(2, (1, (1, 2, 1, 2)))
    tb = trace(w5, "bar")
    assert tb.terms == {Necklace((1, 2, 1, 2)): 2, Necklace((1, 1, 2, 2)): -1}
    assert trace(w5, "tilde").is_zero()
    assert trace_J(w5) == 5 * j_project(2, 1, 2, 1, 2)
    # bar trace of x_1* (x) [x_1, x_2, x_1] is the necklace (1, 2)
    d = tangential(3, (1, (1, 2)))
    assert trace(d, "bar").terms == {Necklace((1, 2)): 1}


def test_trace_J_requires_degree_4():
    with pytest.raises(ValueError):
        trace_J(tau1_generator(2, 1, 2))


def test_strict_gap_witness_for_higher_degrees():
    # the bar trace sees these elements, the tilde trace does not
    for k in (4, 5, 6):
        word = (1, 2, 1) + (2,) * (k - 3)
        f = tangential(2, (1, word))
        assert not trace(f, "bar").is_zero(), k
        assert trace(f, "tilde").is_zero(), k


def test_full_trace_vanishes_on_brackets():
    n = 3
    gens = [tau1_generator(n, i, j) for i in range(1, 4) for j in range(1, 4) if i != j]
    rng = random.Random(31)
    frontier = list(gens)
    for _ in range(20):
        f = rng.choice(frontier)
        g = rng.choice(gens)
        if f.degree + g.degree > 5:
            continue
        br = der_bracket(f, g)
        if br.is_zero():
            continue
        assert trace(br, "full").is_zero()
        frontier.append(br)


def test_power_necklace_coefficients_vanish_on_tangentials():
    # full and bar traces agree on the tangential subalgebra
    rng = random.Random(37)
    for k in (2, 3, 4):
        for _ in range(6):
            f = _random_tangential(3, k, rng)
            t = trace(f, "full")
            assert all(len(set(neck.word)) > 1 for neck in t.terms)


def test_p_basis_examples():
    assert len(p_basis(3, 1)) == 6
    assert len(p_basis(3, 4)) == 54
    for n in (2, 3, 4):
        assert len(p_basis(n, 1)) == n * (n - 1) == p_rank(n, 1)
        for k in (2, 3):
            assert len(p_basis(n, k)) == p_rank(n, k)
    assert tangential(3, (1, (1,))).is_zero()


def test_tangential_checks_its_label():
    # a letter of the word that is no integer: test_non_integral_inputs_raise
    assert tangential(3, (1, (2, 3))) == tangential(3, [1.0, [2, 3.0]])
    assert tangential(3, (2, (1,))) == tau1_generator(3, 2, 1)
    with pytest.raises(ValueError, match="not an integer"):
        tangential(3, (1.5, (2,)))
    with pytest.raises(ValueError, match="empty word"):
        tangential(3, (1, ()))
    with pytest.raises(ValueError, match="out of range"):
        tangential(3, (4, (1,)))


def test_p_basis_independence_certificate():
    # embedded images of the basis derivations x_i* (x) [u, x_i] have full rank
    for n, k in [(2, 3), (3, 2), (3, 3)]:
        width = (n + 1) ** (k + 1)
        span = IncrementalSpan(n * width)
        for label in p_basis(n, k):
            f = from_p_coordinates(n, k, {label: 1})
            vec = {}
            for i, elt in f.values.items():
                for w, c in elt._enc_tensor().items():
                    vec[(i - 1) * width + w] = c
            assert span.insert(vec)
        assert span.dim == p_rank(n, k)


def test_tau1_examples():
    n = 2
    g12 = tau1_generator(n, 1, 2)
    g21 = tau1_generator(n, 2, 1)
    assert apply(g12, LieElement.generator(n, 1)) == normalize((2, 1), n)
    coords = [p_coordinates(g) for g in (g12, g21)]
    assert coords[0] == {(1, (2,)): 1}
    assert coords[1] == {(2, (1,)): 1}
    with pytest.raises(ValueError):
        tau1_generator(n, 1, 1)


def test_tau1_span_dimension():
    for n in (2, 3, 4):
        span = IncrementalSpan(len(p_basis(n, 1)))
        from lietrace.johnson import _p_index

        pidx = _p_index(n, 1)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    coords = p_coordinates(tau1_generator(n, i, j))
                    span.insert({pidx[key]: c for key, c in coords.items()})
        assert span.dim == n * (n - 1)

import random
from fractions import Fraction

import pytest

from conftest import abstract_space, random_element, random_pairing, random_word

from latticebv.scalars import HScalar, ONE
from latticebv.symalg import (
    PairingOracle,
    SymElement,
    TensorElement,
    bider_apply,
    bider_recursive,
    bider_tensor,
    binom,
    boundary_pairing,
    extend_derivation,
    exp_laplacian,
    laplacian_apply,
    laplacian_recursive,
    laplacian_tensor,
    mul,
    normalize,
    sym_map,
    tensor_braiding,
    tensor_mu,
    word_degree,
)

ODD_A = (1, 0)
ODD_B = (1, 1)
EVEN_A = (0, 2)
EVEN_B = (2, 3)


def test_normalize_single_odd_transposition():
    w, sign = normalize([ODD_B, ODD_A])
    assert w == (ODD_A, ODD_B)
    assert sign == -1


def test_normalize_even_passes_freely():
    w, sign = normalize([ODD_B, EVEN_A, ODD_A])
    assert w == (EVEN_A, ODD_A, ODD_B)
    assert sign == -1  # only the odd-odd swap counts


def test_normalize_repeated_odd_vanishes():
    w, sign = normalize([ODD_A, EVEN_A, ODD_A])
    assert w is None and sign == 0


def test_normalize_idempotent():
    rng = random.Random(0)
    gens, _ = abstract_space()
    for _ in range(100):
        w = random_word(rng, gens, 5)
        w2, s2 = normalize(w)
        assert w2 == w and s2 == 1


def test_mul_unit_and_odd_square():
    a = SymElement.of_word([ODD_A, EVEN_A])
    assert mul(SymElement.unit(), a) == a
    v = SymElement.of_gen(ODD_A)
    assert not mul(v, v)


def test_mul_associative_random():
    rng = random.Random(1)
    gens, _ = abstract_space()
    for _ in range(40):
        a, b, c = (random_element(rng, gens, 3) for _ in range(3))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))


def test_mul_graded_commutative():
    rng = random.Random(2)
    gens, _ = abstract_space()
    for _ in range(60):
        w1, w2 = random_word(rng, gens, 3), random_word(rng, gens, 3)
        a, b = SymElement({w1: ONE}), SymElement({w2: ONE})
        sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
        assert mul(a, b) == mul(b, a).scale(sign)


def test_derivation_on_generators_and_leibniz():
    gens, dmap = abstract_space()
    g = gens[0]
    assert extend_derivation(dmap, 1, SymElement.of_gen(g)) == dmap(g)
    # two-generator Leibniz, checked against the hand expansion
    h = gens[4]
    word = SymElement.of_word([g, h])
    got = extend_derivation(dmap, 1, word)
    sign = -1 if g[0] % 2 else 1
    expected = mul(dmap(g), SymElement.of_gen(h)) + mul(
        SymElement.of_gen(g), dmap(h)
    ).scale(sign)
    assert got == expected


def test_derivation_squares_to_zero():
    rng = random.Random(3)
    gens, dmap = abstract_space()
    for _ in range(60):
        a = random_element(rng, gens, 4)
        da = extend_derivation(dmap, 1, a)
        assert not extend_derivation(dmap, 1, da)


def test_sym_map_algebra_morphism():
    rng = random.Random(4)
    gens, dmap = abstract_space()

    def fmap(g):  # a degree-0 rescaling map (a cochain map for diagonal scaling)
        return SymElement.of_gen(g, Fraction(2))

    a = random_element(rng, gens, 3)
    b = random_element(rng, gens, 3)
    assert sym_map(fmap, mul(a, b)) == mul(sym_map(fmap, a), sym_map(fmap, b))
    assert sym_map(fmap, SymElement.unit()) == SymElement.unit()


# -- biderivation ------------------------------------------------------------


def _pairings():
    gens, dmap = abstract_space()
    tau_even = random_pairing(gens, 0, 1, seed=10)
    tau_odd = random_pairing(gens, 1, 1, seed=11)
    tau_anti = random_pairing(gens, 0, -1, seed=12)
    return gens, dmap, tau_even, tau_odd, tau_anti


def test_bider_generator_pair():
    gens, _, tau, _, _ = _pairings()
    found = False
    for g in gens:
        for h in gens:
            val = tau(g, h)
            te = bider_apply(tau, SymElement.of_gen(g), SymElement.of_gen(h))
            if val:
                found = True
                assert te == TensorElement({((), ()): val})
            else:
                assert not te
    assert found


def test_bider_kills_unit():
    gens, _, tau, _, _ = _pairings()
    a = SymElement.of_word([gens[0], gens[2]])
    assert not bider_apply(tau, a, SymElement.unit())
    assert not bider_apply(tau, SymElement.unit(), a)


def test_bider_second_slot_derivation_expansion():
    # <v, w1 w2> = <v,w1>(1 (x) w2) + (-1)^{(|v|+p)|w1|} (1 (x) w1)<v,w2>
    gens, _, tau, tau_odd, _ = _pairings()
    for t in (tau, tau_odd):
        for v in gens[:8]:
            for w1 in gens[:8]:
                for w2 in gens[:8]:
                    word, s = normalize([w1, w2])
                    if word is None:
                        continue
                    lhs = bider_apply(t, SymElement.of_gen(v), SymElement({word: ONE})).scale(s)
                    expected = TensorElement()
                    val1 = t(v, w1)
                    if val1:
                        expected.add_term(((), (w2,)), val1)
                    val2 = t(v, w2)
                    if val2:
                        sign = -1 if ((v[0] + t.degree) % 2) and (w1[0] % 2) else 1
                        expected.add_term(((), (w1,)), val2 if sign > 0 else -val2)
                    assert lhs == expected


def test_bider_closed_form_matches_recursion():
    rng = random.Random(5)
    gens, _, tau_even, tau_odd, tau_anti = _pairings()
    for t in (tau_even, tau_odd, tau_anti):
        for _ in range(60):
            a = random_element(rng, gens, 4, n_words=2)
            b = random_element(rng, gens, 4, n_words=2)
            assert bider_apply(t, a, b) == bider_recursive(t, a, b)


def test_bider_symmetry_property():
    # gamma o <-,->_tau o gamma = s <-,->_tau on sampled homogeneous words
    rng = random.Random(6)
    gens, _, tau_even, tau_odd, tau_anti = _pairings()
    for t in (tau_even, tau_odd, tau_anti):
        for _ in range(60):
            w1, w2 = random_word(rng, gens, 3), random_word(rng, gens, 3)
            a, b = SymElement({w1: ONE}), SymElement({w2: ONE})
            sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
            lhs = tensor_braiding(bider_apply(t, b, a)).scale(sign)
            rhs = bider_apply(t, a, b).scale(t.symmetry)
            assert lhs == rhs


def test_bider_lowers_length_by_one_each_side():
    rng = random.Random(7)
    gens, _, tau, _, _ = _pairings()
    for _ in range(40):
        w1, w2 = random_word(rng, gens, 4), random_word(rng, gens, 4)
        te = bider_apply(tau, SymElement({w1: ONE}), SymElement({w2: ONE}))
        for (u1, u2) in te.terms:
            assert len(u1) == len(w1) - 1
            assert len(u2) == len(w2) - 1


# -- Laplacian ---------------------------------------------------------------


def test_laplacian_small_cases():
    gens, _, tau, _, _ = _pairings()
    assert not laplacian_apply(tau, SymElement.unit())
    assert not laplacian_apply(tau, SymElement.of_gen(gens[0]))
    for g in gens[:10]:
        for h in gens[:10]:
            word, s = normalize([g, h])
            if word is None:
                continue
            got = laplacian_apply(tau, SymElement({word: ONE})).scale(s)
            val = tau(g, h)
            assert got == (SymElement({(): val}) if val else SymElement())


def test_laplacian_rejects_antisymmetric():
    gens, _, _, _, tau_anti = _pairings()
    with pytest.raises(ValueError):
        laplacian_apply(tau_anti, SymElement.unit())


def test_laplacian_closed_form_matches_recursion():
    rng = random.Random(8)
    gens, _, tau_even, tau_odd, _ = _pairings()
    for t in (tau_even, tau_odd):
        for _ in range(80):
            a = random_element(rng, gens, 5, n_words=2)
            assert laplacian_apply(t, a) == laplacian_recursive(t, a)


def test_laplacian_modified_leibniz():
    # Delta(ab) = Delta(a) b + (-1)^{p|a|} a Delta(b) + mu(<a,b>)
    rng = random.Random(9)
    gens, _, tau_even, tau_odd, _ = _pairings()
    for t in (tau_even, tau_odd):
        p = t.degree
        for _ in range(50):
            w1, w2 = random_word(rng, gens, 3), random_word(rng, gens, 3)
            a, b = SymElement({w1: ONE}), SymElement({w2: ONE})
            lhs = laplacian_apply(t, mul(a, b))
            sign = -1 if (p % 2) and (word_degree(w1) % 2) else 1
            rhs = (
                mul(laplacian_apply(t, a), b)
                + mul(a, laplacian_apply(t, b)).scale(sign)
                + tensor_mu(bider_apply(t, a, b))
            )
            assert lhs == rhs


def test_laplacian_lowers_length_by_two():
    rng = random.Random(10)
    gens, _, tau, _, _ = _pairings()
    for _ in range(40):
        w = random_word(rng, gens, 5)
        img = laplacian_apply(tau, SymElement({w: ONE}))
        for u in img.terms:
            assert len(u) == len(w) - 2


def test_laplacian_boundary_identity():
    # d(Delta_tau) = Delta_{d tau} as operators, on random elements
    rng = random.Random(11)
    gens, dmap, tau_even, tau_odd, _ = _pairings()
    for t in (tau_even, tau_odd):
        dt = boundary_pairing(t, dmap)
        for _ in range(40):
            a = random_element(rng, gens, 4)
            # d(Delta) a = d(Delta a) - (-1)^p Delta(d a)
            lhs = extend_derivation(dmap, 1, laplacian_apply(t, a))
            sign = -1 if t.degree % 2 else 1
            lhs = lhs - laplacian_apply(t, extend_derivation(dmap, 1, a)).scale(sign)
            assert lhs == laplacian_apply(dt, a)


def test_laplacian_graded_commutation():
    rng = random.Random(12)
    gens, _, tau_even, tau_odd, _ = _pairings()
    tau_odd2 = random_pairing(gens, 1, 1, seed=13)
    combos = [
        (tau_even, tau_odd, 1),
        (tau_odd, tau_odd2, -1),
        (tau_even, tau_even, 1),
    ]
    for t1, t2, sign in combos:
        for _ in range(40):
            a = random_element(rng, gens, 5)
            lhs = laplacian_apply(t1, laplacian_apply(t2, a))
            rhs = laplacian_apply(t2, laplacian_apply(t1, a)).scale(sign)
            assert lhs == rhs


def test_laplacian_odd_squares_to_zero():
    rng = random.Random(13)
    gens, _, _, tau_odd, _ = _pairings()
    for _ in range(40):
        a = random_element(rng, gens, 6)
        assert not laplacian_apply(tau_odd, laplacian_apply(tau_odd, a))


def test_binomial_identity():
    # Delta^n o mu = sum_k C(n,k) mu o <-,->^{n-k} o Delta_{(x)}^k (p even)
    rng = random.Random(14)
    gens, _, tau, _, _ = _pairings()
    for n in (1, 2, 3):
        for _ in range(25):
            a = random_element(rng, gens, 3, n_words=2)
            b = random_element(rng, gens, 3, n_words=2)
            lhs = mul(a, b)
            for _ in range(n):
                lhs = laplacian_apply(tau, lhs)
            rhs = SymElement()
            for k in range(n + 1):
                te = TensorElement.of(a, b)
                for _ in range(k):
                    te = laplacian_tensor(tau, te)
                for _ in range(n - k):
                    te = bider_tensor(tau, te)
                rhs = rhs + tensor_mu(te).scale(HScalar.of(binom(n, k)))
            assert lhs == rhs


def test_naturality_under_pairing_preserving_map():
    # Sym f o Delta_tau = Delta_omega o Sym f for f preserving the pairing;
    # f doubles a_i and halves b_i, so omega must be rebuilt accordingly.
    gens, dmap, tau, _, _ = _pairings()
    scale = {g: Fraction(2) if g[1] % 2 == 0 else Fraction(1, 2) for g in gens}

    def fmap(g):
        return SymElement.of_gen(g, scale[g])

    def omega_ev(g, h):
        return tau(g, h) * scale[g] * scale[h]

    omega = PairingOracle(tau.degree, tau.symmetry, omega_ev)
    rng = random.Random(15)
    for _ in range(40):
        a = random_element(rng, gens, 4)
        assert sym_map(fmap, laplacian_apply(omega, a)) == laplacian_apply(
            tau, sym_map(fmap, a)
        )


def test_exp_laplacian_truncates_and_inverts():
    rng = random.Random(16)
    gens, _, tau, _, _ = _pairings()
    from latticebv.scalars import HBAR, I

    pref = I * HBAR
    for _ in range(30):
        a = random_element(rng, gens, 6)
        image = exp_laplacian(tau, a, pref)
        back = exp_laplacian(tau, image, -pref)
        assert back == a


def test_bider_naturality_under_degree_zero_isomorphism():
    # (Sym f (x) Sym f) o <-,->_tau = <-,->_omega o (Sym f (x) Sym f) for a
    # pairing-preserving relabeling f (models the inclusion/translation
    # pushforwards used downstream)
    gens, _ = abstract_space()
    tau = random_pairing(gens, 0, 1, seed=21)
    relabel = {g: (g[0], g[1] + 1000) for g in gens}
    inverse = {v: k for k, v in relabel.items()}

    def fmap(g):
        return SymElement.of_gen(relabel[g])

    def omega_ev(g, h):
        return tau(inverse[g], inverse[h])

    omega = PairingOracle(0, 1, omega_ev)
    rng = random.Random(22)
    for _ in range(40):
        a = random_element(rng, gens, 3, 2)
        b = random_element(rng, gens, 3, 2)
        pushed = bider_apply(omega, sym_map(fmap, a), sym_map(fmap, b))
        raw = bider_apply(tau, a, b)
        mapped = TensorElement()
        for (w1, w2), c in raw.items():
            u1 = tuple(relabel[g] for g in w1)
            u2 = tuple(relabel[g] for g in w2)
            mapped.add_term((u1, u2), c)
        assert pushed == mapped

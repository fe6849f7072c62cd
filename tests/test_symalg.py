import copy
import random
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from conftest import abstract_space, random_element, random_pairing, random_word

from latticebv.bvtheory import (
    Section,
    homotopy_eta,
    lambda_diff,
    lambda_dirac,
    quasi_inverse_g,
    tau_0,
    tau_dirac,
    tau_minus1,
)
from latticebv.lattice import CutoffData, Lattice, Point
from latticebv.models import klein_gordon, maxwell2d
from latticebv.quantize import SymModel, generators_at
from latticebv.scalars import IH, HScalar, sym_coeff, u_poly
from latticebv.symalg import (
    PairingOracle,
    SymElement,
    TensorElement,
    bider_apply,
    bider_recursive,
    bider_tensor,
    boundary_pairing,
    extend_derivation,
    exp_bider,
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


def of_word(gens) -> SymElement:
    """The normalized word of the generators, with its Koszul sign."""
    w, sign = normalize(gens)
    return SymElement() if w is None else SymElement({w: sym_coeff(sign)})


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


def insertion_normalize(gens):
    """Reference normal form: insertion sort, flipping the sign at each
    adjacent swap of two odd-degree generators, then the odd-repeat test on
    the sorted word."""
    gens = list(gens)
    sign = 1
    for i in range(1, len(gens)):
        j = i
        while j > 0 and gens[j - 1] > gens[j]:
            if gens[j - 1][0] % 2 and gens[j][0] % 2:
                sign = -sign
            gens[j - 1], gens[j] = gens[j], gens[j - 1]
            j -= 1
    for a, b in zip(gens, gens[1:]):
        if a == b and a[0] % 2:
            return None, 0
    return tuple(gens), sign


def test_normalize_matches_insertion_sort_on_every_short_word():
    # every word of length 0-5, repeats included, over six generators of
    # mixed parity, with two odd generators of one degree and an odd and an
    # even one at one index
    gens = [(-1, 0), (0, 0), (1, 2), (1, 3), (2, 1), (-3, 5)]
    vanishing = 0
    for n in range(6):
        for word in product(gens, repeat=n):
            got = normalize(word)
            assert got == insertion_normalize(word), word
            assert normalize(list(word)) == got
            vanishing += got[0] is None
    assert vanishing > 1000


def test_mul_unit_and_odd_square():
    a = of_word([ODD_A, EVEN_A])
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
        a, b = SymElement({w1: 1}), SymElement({w2: 1})
        sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
        assert mul(a, b) == mul(b, a).scale(sign)


def test_derivation_on_generators_and_leibniz():
    gens, dmap = abstract_space()
    g = gens[0]
    assert extend_derivation(dmap, 1, SymElement.of_gen(g)) == dmap(g)
    # two-generator Leibniz, checked against the hand expansion
    h = gens[4]
    word = of_word([g, h])
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
    a = of_word([gens[0], gens[2]])
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
                    lhs = bider_apply(t, SymElement.of_gen(v), SymElement({word: 1})).scale(s)
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
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
            lhs = tensor_braiding(bider_apply(t, b, a)).scale(sign)
            rhs = bider_apply(t, a, b).scale(t.symmetry)
            assert lhs == rhs


def test_bider_lowers_length_by_one_each_side():
    rng = random.Random(7)
    gens, _, tau, _, _ = _pairings()
    for _ in range(40):
        w1, w2 = random_word(rng, gens, 4), random_word(rng, gens, 4)
        te = bider_apply(tau, SymElement({w1: 1}), SymElement({w2: 1}))
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
            got = laplacian_apply(tau, SymElement({word: 1})).scale(s)
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
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
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
        img = laplacian_apply(tau, SymElement({w: 1}))
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


MIXED_VALUES = (1, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2))


def _boundary_reference(tau, d_terms, g1, g2):
    """(d tau)(g1, g2) summed as Fractions, from the formula of boundary_pairing."""
    sign = -1 if g1[0] % 2 else 1
    acc = Fraction(0)
    for h1, c in d_terms(g1):
        acc += Fraction(tau(h1, g2)) * c
    for h2, c in d_terms(g2):
        acc += sign * Fraction(tau(g1, h2)) * c
    return -acc if tau.degree % 2 == 0 else acc


def _assert_canonical_sum(value, reference):
    assert value == reference
    if reference.denominator == 1:
        assert type(value) is int, (value, reference)
    else:
        assert type(value) is Fraction, (value, reference)


def test_keyed_read_and_call_share_one_evaluation():
    # at(key, g1, g2) and tau(g1, g2) read one cache under key(g1, g2): each
    # key is evaluated once, on the first pair that reaches it by either route
    runs = []

    def evaluate(g1, g2):
        runs.append((g1, g2))
        return len(runs)

    tau = PairingOracle(0, 1, evaluate, key=lambda g1, g2: (g1[0], g2[0]))
    assert tau.at((0, 1), (0, "a"), (1, "b")) == 1
    assert tau((0, "c"), (1, "d")) == 1
    assert tau((1, "a"), (0, "b")) == 2
    assert tau.at((1, 0), (1, "c"), (0, "d")) == 2
    assert runs == [((0, "a"), (1, "b")), ((1, "a"), (0, "b"))]


def test_boundary_pairing_sums_mixed_terms_exactly():
    # tau values and differential coefficients that mix ints and halves: d(tau)
    # equals the Fraction sum of its formula and is an int whenever that sum
    # is integral, including sums of halves that cancel to an integer
    rng = random.Random(29)
    gens = [(d, i) for d in (-1, 0, 1, 2) for i in range(3)]
    d_table = {
        g: {h: rng.choice(MIXED_VALUES) for h in gens if h[0] == g[0] + 1 and rng.random() < 0.7}
        for g in gens
    }

    def dmap(g):
        return SymElement({(h,): c for h, c in d_table[g].items()})

    kinds = set()
    for degree in (0, 1):
        values = {(g, h): rng.choice(MIXED_VALUES) for g in gens for h in gens}
        tau = PairingOracle(degree, 1, lambda g, h: values[(g, h)])
        d_tau = boundary_pairing(tau, dmap)
        for g1, g2 in product(gens, gens):
            ref = _boundary_reference(tau, lambda g: d_table[g].items(), g1, g2)
            _assert_canonical_sum(d_tau(g1, g2), ref)
            kinds.add(ref.denominator)
    assert {1, 2} <= kinds
    # the lattice case: tau_D of kg with kappa 1/2 and m^2 1 has Fraction values
    sm = SymModel(klein_gordon(Lattice(21), kappa=Fraction(1, 2), mass_sq=Fraction(1)))
    gens = generators_at(sm.model, [Point(t, x) for t in (-1, 0, 1) for x in (-1, 0, 1)])
    for tau in (sm.tau_d, sm.tau_0):
        d_tau = boundary_pairing(tau, sm.qgen)
        for g1, g2 in sm.model.lattice.class_pairs(gens, gens):
            ref = _boundary_reference(tau, lambda g: [(h, c) for (h,), c in sm.qgen(g).items()], g1, g2)
            _assert_canonical_sum(d_tau(g1, g2), ref)


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
                rhs = rhs + tensor_mu(te).scale(sym_coeff(comb(n, k)))
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
    from latticebv.scalars import IH

    pref = IH
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


# -- in-place accumulation -----------------------------------------------------


def _random_coeff(rng):
    """A nonzero polynomial in u with non-integer rational coefficients, in
    canonical form: a rational when it has no u term."""
    while True:
        n = rng.randint(1, 3)
        c = u_poly(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n))
        if c:
            return c


def _random_rational(rng):
    """A nonzero rational with denominator 1, 2 or 3, so that sums such as
    1/2 + 1/2 and products such as (2/3)(3/2) come out integral."""
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def _random_terms(rng, keys, n, coeff):
    return {rng.choice(keys): coeff(rng) for _ in range(n)}


def assert_narrowed(elem):
    """Every stored value is canonical: an HScalar has at least two
    coefficients (a constant is stored as a rational), and every rational, a
    Section value or an HScalar coefficient, is an int or a Fraction whose
    denominator is not 1."""
    for v in elem.terms.values():
        assert type(v) is not HScalar or len(v.coeffs) >= 2, v
        for q in v.coeffs if type(v) is HScalar else (v,):
            assert type(q) is int or (type(q) is Fraction and q.denominator != 1), v


def reference_add_scaled(terms, other, c):
    """a + c * b on plain dicts, written out directly: the keys of a in
    order, then the new keys of b in order, zero sums dropped."""
    factor = 1 if c is None else c
    out = {}
    for k in list(terms) + [k for k in other if k not in terms]:
        v = terms.get(k, 0) + other.get(k, 0) * factor
        if v:
            out[k] = v
    return out


def _accumulation_cases():
    rng = random.Random(40)
    gens, _ = abstract_space()
    words = [random_word(rng, gens, 4, min_len=0) for _ in range(12)]
    pairs = [(rng.choice(words), rng.choice(words)) for _ in range(12)]
    points = [(n, t, x, 0) for n in (0, 1) for t in (-1, 0) for x in (0, 20)]
    for cls, keys, coeff in (
        (SymElement, words, _random_coeff),
        (TensorElement, pairs, _random_coeff),
        (Section, points, _random_rational),
    ):
        for _ in range(30):
            a = _random_terms(rng, keys, 5, coeff)
            b = _random_terms(rng, keys, 5, coeff)
            yield cls, a, b


@pytest.mark.parametrize(
    "c", [None, 0, Fraction(-3, 7), 2, Fraction(3, 2), IH * Fraction(5, 3) + Fraction(1, 2)]
)
def test_add_scaled_matches_plain_dict_reference(c):
    shared = only_a = only_b = integral = 0
    for cls, a, b in _accumulation_cases():
        if cls is Section and type(c) is HScalar:
            continue  # sections are over Q
        acc = cls(a)
        acc.add_scaled(cls(b), c)
        assert list(acc.items()) == list(reference_add_scaled(a, b, c).items())
        assert_narrowed(acc)
        shared += bool(a.keys() & b.keys())
        only_a += bool(a.keys() - b.keys())
        only_b += bool(b.keys() - a.keys())
        integral += cls is Section and any(
            type(v) is int and type(a.get(k)) is Fraction and a[k].denominator != 1
            for k, v in acc.items()
        )
    assert shared and only_a and only_b
    if c in (None, Fraction(3, 2)):
        assert integral  # some non-integral value of a summed to an integer


def test_coefficients_are_stored_canonical():
    w = (ODD_A, EVEN_A)
    e = SymElement({w: Fraction(4, 2), (ODD_B,): 0, (): Fraction(0, 3), (EVEN_B,): True})
    assert e.terms == {w: 2, (EVEN_B,): 1}
    assert all(type(v) is int for v in e.terms.values())
    assert type(TensorElement({(w, ()): Fraction(6, 3)}).terms[(w, ())]) is int
    assert SymElement({w: HScalar((1, 1))}).terms[w] == HScalar((1, 1))
    # a Section is over Q: a coefficient with a u term is refused
    with pytest.raises(TypeError):
        Section({(0, 0, 0, 0): IH})
    for c in (True, Fraction(2, 2), Fraction(3, 2), Fraction(2, 3), IH, HScalar((Fraction(1, 2), 2))):
        acc = SymElement({w: Fraction(1, 2), (): 1})
        acc.add_scaled(SymElement({w: 1, (ODD_B,): Fraction(3, 2), (EVEN_B,): 2}), c)
        assert_narrowed(acc)
        assert all(v for v in acc.terms.values())
    acc = SymElement({w: 1})
    acc.add_scaled(SymElement({w: 1}), True)
    assert acc.terms == {w: 2} and type(acc.terms[w]) is int


def test_homogeneous_parts_split_by_degree():
    rng = random.Random(45)
    gens, _ = abstract_space()
    for _ in range(30):
        a = random_element(rng, gens, 4, 4).scale(IH + Fraction(1, 3))
        parts = a.homogeneous_parts()
        total = SymElement()
        for d, part in parts.items():
            assert type(part) is SymElement and part
            assert all(word_degree(w) == d for w in part.terms)
            total.add_scaled(part)
        assert total == a
        assert_narrowed(total)


def test_add_scaled_cancels_to_empty():
    for cls, a, _ in _accumulation_cases():
        acc = cls(a)
        acc.add_scaled(cls(a), -1)
        assert not acc and acc.terms == {}
        factor = Fraction(3, 2) if cls is Section else IH
        acc = cls(a).scale(factor)
        assert_narrowed(acc)
        acc.add_scaled(cls(a), -factor)
        assert not acc and acc.terms == {}


def test_operations_leave_operands_unchanged():
    rng = random.Random(41)
    gens, _, tau_even, _, tau_anti = _pairings()
    sm = SymModel(klein_gordon(Lattice(21), kappa=Fraction(1, 2), mass_sq=Fraction(1)))
    sm_gens = generators_at(sm.model, [Point(t, x) for t in (-1, 0, 1) for x in (0, 1)])
    for _ in range(20):
        a = random_element(rng, gens, 4).scale(IH + Fraction(1, 3))
        b = random_element(rng, gens, 4)
        te = TensorElement.of(a, b)
        before = copy.deepcopy((a.terms, b.terms, te.terms))
        a + b
        a - b
        a.scale(Fraction(-2, 3))
        exp_bider(tau_anti, te, IH)
        exp_bider(tau_even, te, -IH)
        assert (a.terms, b.terms, te.terms) == before
        x = random_element(rng, sm_gens, 3)
        y = random_element(rng, sm_gens, 3)
        before = copy.deepcopy((x.terms, y.terms))
        sm.moyal_mul(x, y)
        sm.dirac_mul(x, y)
        sm.time_ordering(x)
        sm.time_ordering(y, -1)
        assert (x.terms, y.terms) == before
    # sections: sums and products of non-integral rationals that come out
    # integral are stored as ints, and the Green, pairing and cut maps,
    # which accumulate in place, leave their arguments alone
    model = sm.model
    half, third = Fraction(1, 2), Fraction(2, 3)
    a = Section({(0, 0, 0, 0): half, (1, 1, 0, 0): third, (0, -1, 1, 0): 1})
    b = Section({(0, 0, 0, 0): half, (1, 1, 0, 0): -third, (1, 2, 20, 0): 3})
    before = copy.deepcopy((a.terms, b.terms))
    assert (a + b).terms == {(0, 0, 0, 0): 1, (0, -1, 1, 0): 1, (1, 2, 20, 0): 3}
    assert (a - b).terms == {(1, 1, 0, 0): Fraction(4, 3), (0, -1, 1, 0): 1, (1, 2, 20, 0): -3}
    assert a.scale(Fraction(3, 2)).terms == {
        (0, 0, 0, 0): Fraction(3, 4), (1, 1, 0, 0): 1, (0, -1, 1, 0): Fraction(3, 2)
    }
    cutoff = CutoffData(0)
    results = [a + b, a - b, a.scale(Fraction(3, 2)), a.scale(0)]
    for psi in (a, b):
        results += [
            lambda_diff(model, psi, -3, 3),
            lambda_dirac(model, psi, -3, 3),
            homotopy_eta(model, cutoff, psi),
            quasi_inverse_g(model, cutoff, psi),
        ]
    for fn in (tau_minus1, tau_0, tau_dirac):
        fn(model, a, b)
        fn(model, b, a)
    assert (a.terms, b.terms) == before
    for r in results:
        assert_narrowed(r)
    assert all(results[-4:])  # b's images are nonzero


# -- the derivation against its product form -----------------------------------


def reference_extend_derivation(dmap, degree, a):
    """The derivation as the product v_1...v_{i-1} * D(v_i) * v_{i+1}...v_n
    of three elements, `mul` supplying the Koszul signs of the product."""
    out = SymElement()
    for w, c in a.items():
        prefix_deg = 0
        for i, g in enumerate(w):
            img = dmap(g)
            if img:
                sign = -1 if (degree % 2) and (prefix_deg % 2) else 1
                left = SymElement({w[:i]: 1})
                right = SymElement({w[i + 1 :]: 1})
                out = out + mul(left, mul(img, right)).scale(c if sign > 0 else -c)
            prefix_deg += g[0]
    return out


def test_derivation_matches_product_form_abstract():
    rng = random.Random(42)
    gens, dmap = abstract_space()
    nonzero = 0
    for _ in range(150):
        a = random_element(rng, gens, 6)
        got = extend_derivation(dmap, 1, a)
        assert got == reference_extend_derivation(dmap, 1, a), a
        nonzero += bool(got)
    assert nonzero >= 100


@pytest.mark.parametrize("model", ["kg-massive", "maxwell2d"])
def test_derivation_matches_product_form_on_q(model):
    if model == "maxwell2d":
        sm = SymModel(maxwell2d(Lattice(21)))
    else:
        sm = SymModel(klein_gordon(Lattice(21), kappa=Fraction(1, 2), mass_sq=Fraction(1)))
    rng = random.Random(43)
    gens = generators_at(sm.model, [Point(t, x) for t in (-1, 0, 1) for x in (-1, 0, 1)])
    nonzero = 0
    for _ in range(40):
        a = random_element(rng, gens, 5)
        got = sm.q_sym(a)
        assert got == reference_extend_derivation(sm.qgen, 1, a), a
        nonzero += bool(got)
    assert nonzero >= 30


# -- the sieved closed forms against their unsieved loops --------------------------


def reference_bider_words(tau, w1, w2):
    """The closed-form biderivation of two words, asking tau for every pair
    of positions instead of skipping the degree-forbidden ones."""
    p = tau.degree
    out = TensorElement()
    deg1 = [g[0] for g in w1]
    deg2 = [g[0] for g in w2]
    for i in range(len(w1)):
        v_before, v_after = sum(deg1[:i]), sum(deg1[i + 1 :])
        for j in range(len(w2)):
            val = tau(w1[i], w2[j])
            if not val:
                continue
            exp = (deg1[i] + p) * sum(deg2[:j]) + deg2[j] * v_after + p * v_before
            c = val if exp % 2 == 0 else -val
            out.add_term((w1[:i] + w1[i + 1 :], w2[:j] + w2[j + 1 :]), c)
    return out


def reference_bider(tau, a, b):
    out = TensorElement()
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out.add_scaled(reference_bider_words(tau, w1, w2), c1 * c2)
    return out


def reference_laplacian(tau, a):
    """The closed-form Laplacian, asking tau for every pair of positions."""
    p = tau.degree
    out = SymElement()
    for w, c in a.items():
        degs = [g[0] for g in w]
        for i in range(len(w)):
            for j in range(i + 1, len(w)):
                val = tau(w[i], w[j])
                if not val:
                    continue
                exp = p * sum(degs[:i]) + degs[j] * sum(degs[i + 1 : j])
                cc = c * val
                out.add_term(w[:i] + w[i + 1 : j] + w[j + 1 :], -cc if exp % 2 else cc)
    return out


def assert_same_terms(got, want):
    """Equal keys in the same order, equal values of the same types."""
    assert list(got.terms.items()) == list(want.terms.items())
    assert [type(v) for v in got.terms.values()] == [type(v) for v in want.terms.values()]


def _sieve_case(case):
    """Generators and pairings: the abstract ones, or the three lattice
    pairings of a model on a 3x3 window."""
    if case == "abstract":
        gens, _, *taus = _pairings()
        return gens, taus
    lattice = Lattice(21)
    if case == "maxwell2d":
        model = maxwell2d(lattice)
    else:
        model = klein_gordon(lattice, kappa=Fraction(1, 2), mass_sq=Fraction(1))
    sm = SymModel(model)
    gens = generators_at(model, [Point(t, x) for t in (-1, 0, 1) for x in (-1, 0, 1)])
    return gens, [sm.tau_m1, sm.tau_0, sm.tau_d]


@pytest.mark.parametrize("case", ["abstract", "kg-massive", "maxwell2d"])
def test_sieved_closed_forms_match_unsieved_loops(case):
    gens, taus = _sieve_case(case)
    rng = random.Random(44)
    for tau in taus:
        nonzero = 0
        for _ in range(40):
            a = random_element(rng, gens, 4)
            b = random_element(rng, gens, 4)
            got = bider_apply(tau, a, b)
            assert_same_terms(got, reference_bider(tau, a, b))
            nonzero += bool(got)
            if tau.symmetry == 1:
                got = laplacian_apply(tau, a)
                assert_same_terms(got, reference_laplacian(tau, a))
                nonzero += bool(got)
        assert nonzero >= 10, tau.name


def test_off_degree_pairing_splits_closed_forms_from_recursions():
    # one nonzero value on a degree-forbidden pair: the closed forms skip it,
    # the recursions ask for it, so the closed-vs-recursive checks fail
    gens, _, tau_even, _, _ = _pairings()
    g, h = gens[4], gens[5]
    assert g[0] + h[0] + tau_even.degree != 0
    bad = {(g, h): Fraction(1), (h, g): Fraction(1)}
    tau = PairingOracle(0, 1, lambda x, y: bad.get((x, y)) or tau_even.evaluate(x, y))
    a, b = SymElement.of_gen(g), SymElement.of_gen(h)
    assert bider_apply(tau, a, b) != bider_recursive(tau, a, b)
    assert laplacian_apply(tau, mul(a, b)) != laplacian_recursive(tau, mul(a, b))

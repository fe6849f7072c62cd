import random
from fractions import Fraction

import pytest

from latticebv.scalars import (
    GaussianRational,
    HScalar,
    IH,
    coeff_text,
    h_coeff,
    sym_coeff,
    u_poly,
)

# -- reference ring Q(i)[h] ------------------------------------------------------
# A polynomial is {h-exponent: (re, im)} with Fraction parts and no zero
# entries.  A Sym coefficient is an element of Q[u], a rational when constant
# and an HScalar otherwise; u -> i*h maps Q[u] injectively into this ring.


def ref_add(p, q):
    out = dict(p)
    for k, (re, im) in q.items():
        r0, i0 = out.get(k, (Fraction(0), Fraction(0)))
        s = (r0 + re, i0 + im)
        if s[0] or s[1]:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def ref_neg(p):
    return {k: (-re, -im) for k, (re, im) in p.items()}


def ref_mul(p, q):
    out = {}
    for k1, (a, b) in p.items():
        for k2, (c, d) in q.items():
            out = ref_add(out, {k1 + k2: (a * c - b * d, a * d + b * c)})
    return out


def ref_text(p):
    if not p:
        return "0"
    parts = []
    for k in sorted(p):
        re, im = p[k]
        body = f"{re} + {im}*i"
        parts.append(body if k == 0 else f"({body})*h^{k}")
    return " + ".join(parts)


REF_IH = {1: (Fraction(0), Fraction(1))}


def ref_const(q):
    q = Fraction(q)
    return {0: (q, Fraction(0))} if q else {}


def image(a):
    """sum_k a_k (i*h)^k of a rational or an HScalar, evaluated in the
    reference ring."""
    out, power = {}, ref_const(1)
    for c in a.coeffs if type(a) is HScalar else (a,):
        out = ref_add(out, ref_mul(ref_const(c), power))
        power = ref_mul(power, REF_IH)
    return out


def assert_canonical(a):
    """A rational is an int or a Fraction whose denominator is not 1; an
    HScalar has a u term, narrowed coefficients and no trailing zero."""
    for q in a.coeffs if type(a) is HScalar else (a,):
        assert type(q) is int or (type(q) is Fraction and q.denominator != 1), a
    if type(a) is HScalar:
        assert len(a.coeffs) >= 2 and a.coeffs[-1], a


def _random_coeff(rng, max_order=4):
    # zero entries, trailing zeros included, exercise the canonical form
    return u_poly(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0
        for _ in range(rng.randint(0, max_order + 1))
    )


def test_image_commutes_with_ring_operations():
    rng = random.Random(5)
    n_hscalar = 0
    for _ in range(300):
        a, b = _random_coeff(rng), _random_coeff(rng)
        n_hscalar += type(a) is HScalar
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        # arithmetic with an HScalar operand returns canonical values (two
        # rationals are plain Python arithmetic, narrowed when stored)
        if HScalar in (type(a), type(b)):
            for r in (a + b, a - b, a * b):
                assert_canonical(r)
        if type(a) is HScalar:
            for r in (-a, a * q, q * a, a + q, q + a, q - a):
                assert_canonical(r)
        assert image(a + b) == ref_add(image(a), image(b))
        assert image(a - b) == ref_add(image(a), ref_neg(image(b)))
        assert image(-a) == ref_neg(image(a))
        assert image(a * b) == ref_mul(image(a), image(b))
        assert image(a * q) == image(q * a) == ref_mul(image(a), ref_const(q))
        assert image(a + q) == image(q + a) == ref_add(image(a), ref_const(q))
        assert image(q - a) == ref_add(ref_const(q), ref_neg(image(a)))
    assert 100 < n_hscalar < 300  # both forms are exercised


def test_image_commutes_with_coeff_at_order_and_text():
    rng = random.Random(6)
    for _ in range(300):
        a = _random_coeff(rng)
        ref = image(a)
        for k in range(7):
            re, im = ref.get(k, (0, 0))
            assert h_coeff(a, k) == GaussianRational(re, im)
        assert coeff_text(a) == ref_text(ref)
        if type(a) is HScalar:
            assert str(a) == coeff_text(a)


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (_random_coeff(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_polynomial_identity():
    assert (1 + IH) * (1 - IH) == 1 - IH * IH


def test_additive_inverse_of_h_part():
    a = HScalar((Fraction(1, 2), Fraction(3, 4)))
    b = HScalar((Fraction(1, 2), Fraction(-3, 4)))
    assert a + b == 1 and type(a + b) is int


def test_coeff_at_order_read_off():
    a = 2 + IH
    assert h_coeff(a, 0) == GaussianRational(2)
    assert h_coeff(a, 1) == GaussianRational(0, 1)
    assert h_coeff(a, 5) == GaussianRational(0)
    assert h_coeff(Fraction(1, 2), 0) == GaussianRational(Fraction(1, 2))
    assert h_coeff(Fraction(1, 2), 1) == GaussianRational(0)


def test_coeff_at_order_binomial():
    # (1 + i*h)^2 = 1 + 2i*h - h^2
    sq = (1 + IH) * (1 + IH)
    assert h_coeff(sq, 0) == GaussianRational(1)
    assert h_coeff(sq, 1) == GaussianRational(0, 2)
    assert h_coeff(sq, 2) == GaussianRational(-1)


def test_text_covers_every_power_of_i():
    a = HScalar((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(7, 2), 2))
    assert coeff_text(a) == (
        "1/2 + 0*i + (0 + -3/4*i)*h^1 + (-5/3 + 0*i)*h^2"
        " + (0 + -7/2*i)*h^3 + (2 + 0*i)*h^4"
    )
    assert coeff_text(HScalar((0, 0, 1))) == "(-1 + 0*i)*h^2"
    # a rational reads as the constant term of the same text
    assert coeff_text(Fraction(-7, 3)) == "-7/3 + 0*i"
    assert coeff_text(3) == "3 + 0*i"
    assert coeff_text(0) == "0"


def test_canonical_form_unique():
    rng = random.Random(11)
    for _ in range(50):
        a = _random_coeff(rng)
        assert a - a == 0 and type(a - a) is int
    # a result with no u term is a rational
    assert u_poly((1, 0, Fraction(0))) == 1 and type(u_poly((1, 0, Fraction(0)))) is int
    assert u_poly(()) == 0 and type(u_poly(())) is int
    assert type(IH - IH + 1) is int and IH - IH + 1 == 1
    assert type(IH * 0) is int and IH * 0 == 0
    assert u_poly((Fraction(1, 2), 0, 2)) == HScalar((Fraction(1, 2), 0, 2, 0))
    # the public constructor builds no constant
    for coeffs in ((), (0,), (3,), (Fraction(1, 2), 0)):
        with pytest.raises(ValueError):
            HScalar(coeffs)


def test_rationals_are_narrowed():
    assert sym_coeff(Fraction(4, 2)) == 2 and type(sym_coeff(Fraction(4, 2))) is int
    assert type(sym_coeff(Fraction(1, 2))) is Fraction
    assert sym_coeff(IH) is IH
    with pytest.raises(TypeError):
        sym_coeff(0.5)
    two = u_poly((Fraction(4, 2), Fraction(6, 3)))
    assert two.coeffs == (2, 2) and all(type(c) is int for c in two.coeffs)
    for value in (
        (IH + Fraction(1, 2)) * 2,
        HScalar((Fraction(1, 2), 1)) + Fraction(1, 2),
        HScalar((Fraction(1, 2), Fraction(3, 2))) * HScalar((2, -2)),
        HScalar((Fraction(1, 2), Fraction(3, 2))) - HScalar((Fraction(-1, 2), Fraction(1, 2))),
    ):
        assert type(value) is HScalar and all(type(c) is int for c in value.coeffs), value


def test_equality_with_rationals():
    # a canonical HScalar equals no rational, not even its constant term
    assert IH != 0
    assert IH != 1
    assert HScalar((Fraction(1, 2), 1)) != Fraction(1, 2)
    assert Fraction(1, 2) != HScalar((Fraction(1, 2), 1))
    assert 0 != IH
    assert IH == HScalar((0, 1)) == u_poly((0, 1, 0))
    assert IH != 2 * IH


def test_equal_values_hash_equal():
    # rationals and GaussianRational compare equal across types, so every
    # equal pair must share its hash (and find each other's dict entries);
    # an HScalar equals only an HScalar with the same coefficients
    values = [
        0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2),
        IH, 1 + IH, HScalar((1, 1)), HScalar((Fraction(1, 2), 0, 2)),
        u_poly((Fraction(1, 2), 0, 2)), (IH + 1) * (IH - 1) + 1 - IH * IH, u_poly((Fraction(6, 3),)),
        GaussianRational(), GaussianRational(1), GaussianRational(Fraction(1, 2)),
        GaussianRational(-3, 0), GaussianRational(0, 1), GaussianRational(2, 5),
    ]
    n_equal = 0
    for x in values:
        for y in values:
            if x == y:
                n_equal += 1
                assert hash(x) == hash(y), (x, y)
            if type(x) is HScalar and type(y) is not HScalar:
                assert x != y and y != x
    assert n_equal - len(values) >= 18  # the cross-type pairs are exercised
    assert {1 + IH: "one"}.get(HScalar((1, 1))) == "one"
    assert {Fraction(1, 2): "half"}.get(GaussianRational(Fraction(1, 2))) == "half"

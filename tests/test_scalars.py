import random
from fractions import Fraction

from latticebv.scalars import (
    GaussianRational,
    HScalar,
    IH,
    ONE,
    ZERO,
)

# -- reference ring Q(i)[h] ------------------------------------------------------
# A polynomial is {h-exponent: (re, im)} with Fraction parts and no zero
# entries.  HScalar is Q[u]; u -> i*h maps it injectively into this ring.


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


def image(a: HScalar):
    """sum_k a_k (i*h)^k, evaluated in the reference ring."""
    out, power = {}, ref_const(1)
    for c in a.coeffs:
        out = ref_add(out, ref_mul(ref_const(c), power))
        power = ref_mul(power, REF_IH)
    return out


def _random_hscalar(rng, max_order=4):
    # zero entries, trailing zeros included, exercise the canonical form
    return HScalar(
        Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7 else 0
        for _ in range(rng.randint(0, max_order + 1))
    )


def test_image_commutes_with_ring_operations():
    rng = random.Random(5)
    for _ in range(300):
        a, b = _random_hscalar(rng), _random_hscalar(rng)
        q = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        assert image(a + b) == ref_add(image(a), image(b))
        assert image(a - b) == ref_add(image(a), ref_neg(image(b)))
        assert image(-a) == ref_neg(image(a))
        assert image(a * b) == ref_mul(image(a), image(b))
        assert image(a * q) == image(q * a) == ref_mul(image(a), ref_const(q))
        assert image(a + q) == image(q + a) == ref_add(image(a), ref_const(q))
        assert image(q - a) == ref_add(ref_const(q), ref_neg(image(a)))


def test_image_commutes_with_coeff_at_order_and_text():
    rng = random.Random(6)
    for _ in range(300):
        a = _random_hscalar(rng)
        ref = image(a)
        for k in range(7):
            re, im = ref.get(k, (0, 0))
            assert a.coeff_at_order(k) == GaussianRational(re, im)
        assert a.to_text() == str(a) == ref_text(ref)


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (_random_hscalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_polynomial_identity():
    assert (ONE + IH) * (ONE - IH) == ONE - IH * IH


def test_additive_inverse_of_h_part():
    a = HScalar((Fraction(1, 2), Fraction(3, 4)))
    b = HScalar((Fraction(1, 2), Fraction(-3, 4)))
    assert a + b == ONE


def test_coeff_at_order_read_off():
    a = HScalar.of(2) + IH
    assert a.coeff_at_order(0) == GaussianRational(2)
    assert a.coeff_at_order(1) == GaussianRational(0, 1)
    assert a.coeff_at_order(5) == GaussianRational(0)


def test_coeff_at_order_binomial():
    # (1 + i*h)^2 = 1 + 2i*h - h^2
    sq = (ONE + IH) * (ONE + IH)
    assert sq.coeff_at_order(0) == GaussianRational(1)
    assert sq.coeff_at_order(1) == GaussianRational(0, 2)
    assert sq.coeff_at_order(2) == GaussianRational(-1)


def test_text_covers_every_power_of_i():
    a = HScalar((Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3), Fraction(7, 2), 2))
    assert a.to_text() == (
        "1/2 + 0*i + (0 + -3/4*i)*h^1 + (-5/3 + 0*i)*h^2"
        " + (0 + -7/2*i)*h^3 + (2 + 0*i)*h^4"
    )
    assert HScalar((0, 0, 1)).to_text() == "(-1 + 0*i)*h^2"
    assert ZERO.to_text() == "0"


def test_canonical_form_unique():
    rng = random.Random(11)
    for _ in range(50):
        a = _random_hscalar(rng)
        assert (a - a).coeffs == ()
        assert a - a == ZERO
    assert HScalar((1, 0, Fraction(0))).coeffs == (1,)
    assert (IH - IH + ONE).coeffs == (1,)


def test_rationals_are_narrowed():
    two = HScalar.of(Fraction(4, 2))
    assert two.coeffs == (2,) and type(two.coeffs[0]) is int
    for value in (
        HScalar.of(Fraction(1, 2)) * 2,
        HScalar.of(Fraction(1, 2)) + Fraction(1, 2),
        HScalar((Fraction(1, 2), Fraction(3, 2))) * HScalar((2, -2)),
    ):
        assert all(type(c) is int for c in value.coeffs), value
    half = HScalar.of(Fraction(1, 2))
    assert type(half.coeffs[0]) is Fraction


def test_equality_with_rationals():
    assert HScalar.of(Fraction(1, 2)) == Fraction(1, 2)
    assert HScalar.of(3) == 3
    assert ZERO == 0
    assert IH != 0
    assert IH != ONE
    assert hash(HScalar.of(Fraction(6, 3))) == hash(HScalar((2,)))


def test_equal_values_hash_equal():
    # HScalar and GaussianRational compare equal to int/Fraction, so every
    # equal pair must share its hash (and find each other's dict entries)
    values = [
        0, 1, -3, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2),
        ZERO, ONE, HScalar.of(-3), HScalar.of(Fraction(1, 2)), IH,
        HScalar((Fraction(1, 2), 0, 2)), HScalar.of(Fraction(-7, 3)),
        GaussianRational(), GaussianRational(1), GaussianRational(Fraction(1, 2)),
        GaussianRational(-3, 0), GaussianRational(0, 1), GaussianRational(2, 5),
    ]
    n_equal = 0
    for x in values:
        for y in values:
            if x == y:
                n_equal += 1
                assert hash(x) == hash(y), (x, y)
    assert n_equal - len(values) >= 18  # the cross-type pairs are exercised
    assert {HScalar.of(1): "one"}.get(1) == "one"
    assert {Fraction(1, 2): "half"}.get(GaussianRational(Fraction(1, 2))) == "half"

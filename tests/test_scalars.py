import random
from fractions import Fraction

import pytest

from latticebv.scalars import (
    GaussianRational,
    HScalar,
    HBAR,
    I,
    ONE,
    ZERO,
)


def test_i_squared_is_minus_one():
    assert I * I == HScalar.of(-1)


def test_polynomial_identity():
    one_plus = ONE + HBAR
    one_minus = ONE - HBAR
    assert one_plus * one_minus == ONE - HBAR * HBAR


def test_additive_inverse_of_h_part():
    a = HScalar({0: Fraction(1, 2), 1: Fraction(3, 4)})
    b = HScalar({0: Fraction(1, 2), 1: Fraction(-3, 4)})
    assert a + b == ONE


def test_coeff_at_order_read_off():
    a = HScalar.of(2) + I * HBAR
    assert a.coeff_at_order(1) == GaussianRational(0, 1)
    assert a.coeff_at_order(5) == GaussianRational(0)


def test_coeff_at_order_binomial():
    sq = (ONE + HBAR) * (ONE + HBAR)
    assert sq.coeff_at_order(0) == GaussianRational(1)
    assert sq.coeff_at_order(1) == GaussianRational(2)
    assert sq.coeff_at_order(2) == GaussianRational(1)


def _random_hscalar(rng, max_order=3):
    coeffs = {}
    for k in range(max_order + 1):
        if rng.random() < 0.6:
            coeffs[k] = GaussianRational(
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
                Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
            )
    return HScalar(coeffs)


def test_ring_axioms_on_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (_random_hscalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_canonical_form_unique():
    rng = random.Random(11)
    for _ in range(50):
        a = _random_hscalar(rng)
        assert not (a - a).coeffs
        assert a - a == ZERO


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        HScalar({-1: Fraction(1)})


def test_text_serialization():
    a = HScalar({0: GaussianRational(Fraction(1, 2), Fraction(3, 4)), 2: GaussianRational(0, 1)})
    assert a.to_text() == "1/2 + 3/4*i + (0 + 1*i)*h^2"
    assert ZERO.to_text() == "0"


def test_gaussian_division():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert (a / b) * b == a
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0, 0)

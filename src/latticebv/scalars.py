"""Exact ground-ring arithmetic: Q for sections, Q[u] with u = i*h for Sym.

Stencils, fiber metrics, sections, Green values and the three pairings are
rational: they are plain Python numbers, an ``int`` or a ``Fraction`` whose
denominator is not 1 (see :func:`rational`).  The formal deformation
parameter h enters the Sym algebra only through i*h (Q_h = Q + i*h*Delta_BV,
the exponents (i*h/2)<-,-> and i*h*Delta_D), so every Sym coefficient is a
polynomial in u = i*h over Q (:class:`HScalar`); a rational value crosses
into it through ``HScalar.of``.  The map u -> i*h into Q(i)[h] is an
injective ring map, so an identity checked in Q[u] holds in Q(i)[h]; text
and ``coeff_at_order`` report the h-coefficients, which lie in Q(i)
(:class:`GaussianRational`).  Keeping h formal makes order-by-order
statements exact: any identity is checked with zero tolerance, coefficient by
coefficient.  :class:`Combination` is the one sparse linear-combination type
over either ring: sections over Q, Sym elements and tensors over Q[u].
"""

from __future__ import annotations

from fractions import Fraction

_FRACTION_LIKE = (int, Fraction)


def rational(value):
    """An exact rational as an ``int`` when it is integral, else as a
    ``Fraction`` (whose denominator is then not 1)."""
    if type(value) is int:
        return value
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _frac_str(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


class GaussianRational:
    """Element a + b*i of Q(i): the value of one h-coefficient of an HScalar."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, _FRACTION_LIKE):
            return self.re == other and self.im == 0
        return NotImplemented

    def __hash__(self):
        # a real value equals its rational, so it must hash as one
        return hash(self.re) if not self.im else hash((self.re, self.im))

    def __str__(self):
        return f"{_frac_str(self.re)} + {_frac_str(self.im)}*i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


class HScalar:
    """Polynomial in u = i*h over Q.

    ``coeffs`` is a tuple of rationals (see :func:`rational`) indexed by the
    power of u, with no trailing zero; ``()`` is zero.  Instances are
    immutable; all arithmetic returns fresh objects or shares an operand.
    Sums and products of two constants skip the polynomial loops.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = _canonical(coeffs)

    @staticmethod
    def of(value) -> "HScalar":
        """Constant polynomial from an int/Fraction, or an HScalar as is."""
        if type(value) is HScalar:
            return value
        if not isinstance(value, _FRACTION_LIKE):
            raise TypeError(f"cannot coerce {value!r} to HScalar")
        q = rational(value)
        return _raw((q,) if q else ())

    # -- queries ------------------------------------------------------

    def coeff_at_order(self, k: int) -> GaussianRational:
        """The coefficient of h^k: i^k times the coefficient of u^k."""
        a = self.coeffs[k] if k < len(self.coeffs) else 0
        if k % 2:
            return GaussianRational(0, a if k % 4 == 1 else -a)
        return GaussianRational(a if k % 4 == 0 else -a)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if type(other) is HScalar:
            return self.coeffs == other.coeffs
        if isinstance(other, _FRACTION_LIKE):
            return self.coeffs == HScalar.of(other).coeffs
        return NotImplemented

    def __hash__(self):
        # a constant equals its rational, so it must hash as one
        if len(self.coeffs) <= 1:
            return hash(self.coeffs[0] if self.coeffs else 0)
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if type(other) is not HScalar:
            other = HScalar.of(other)
        a, b = self.coeffs, other.coeffs
        if not b:
            return self
        if not a:
            return other
        if len(a) == 1 == len(b):
            s = a[0] + b[0]
            if type(s) is not int and s.denominator == 1:
                s = s.numerator
            return _raw((s,) if s else ())
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return _raw(_canonical(out))

    __radd__ = __add__

    def __neg__(self):
        return _raw(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if type(other) is not HScalar:
            other = HScalar.of(other)
        return self + (-other)

    def __rsub__(self, other):
        return HScalar.of(other) - self

    def __mul__(self, other):
        if type(other) is not HScalar:
            other = HScalar.of(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return ZERO
        if len(a) == 1 == len(b):
            p = a[0] * b[0]
            if type(p) is not int and p.denominator == 1:
                p = p.numerator
            return _raw((p,))
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _raw(_canonical(out))

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        """Render the h-coefficients as "a/b + c/d*i" terms per h-order,
        lowest order first."""
        parts = []
        for k, a in enumerate(self.coeffs):
            if a:
                body = str(self.coeff_at_order(k))
                parts.append(body if k == 0 else f"({body})*h^{k}")
        return " + ".join(parts) or "0"

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"HScalar({self.coeffs!r})"


def _raw(coeffs: tuple) -> HScalar:
    out = HScalar.__new__(HScalar)
    out.coeffs = coeffs
    return out


def _canonical(coeffs) -> tuple:
    """The coefficients as narrowed rationals, trailing zeros dropped."""
    out = [rational(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


ZERO = HScalar()
ONE = HScalar.of(1)
IH = HScalar((0, 1))  # u = i*h


class Combination:
    """Finite linear combination {key: nonzero coefficient}: the one sparse
    type of the package.

    A subclass fixes the keys and the ring through ``coerce``, which turns a
    caller's coefficient into a ring element: :func:`rational` for sections
    over Q, ``HScalar.of`` for Sym elements over Q[u].  Stored values stay
    canonical: HScalar arithmetic narrows itself, and a rational sum or
    product that comes out integral is stored as an ``int``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        coerce = self.coerce
        self.terms = {k: coerce(c) for k, c in terms.items() if c} if terms else {}

    def _with_terms(self, terms: dict):
        """A fresh element of the same class that takes ownership of terms."""
        res = object.__new__(type(self))
        res.terms = terms
        return res

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return type(other) is type(self) and self.terms == other.terms

    def add_term(self, key, c) -> None:
        """Accumulate c, a ring element, onto key in place, dropping the key
        when it cancels."""
        terms = self.terms
        old = terms.get(key)
        s = c if old is None else old + c
        if s:
            terms[key] = s.numerator if type(s) is Fraction and s.denominator == 1 else s
        else:
            terms.pop(key, None)

    def add_scaled(self, other, c=None) -> None:
        """self += c * other in place (c None means 1), dropping the keys that
        cancel.

        Aliasing rule: call it only on a fresh local accumulator, never on an
        argument, a cached value (a generator-map image, a SymModel cache
        entry) or an operand that another element may share, and never with
        other being self."""
        terms = self.terms
        if c is not None:
            c = self.coerce(c)
            if not c:
                return
        for k, v in other.terms.items():
            if c is not None:
                v = v * c
            old = terms.get(k)
            if old is not None:
                v = old + v
                if not v:
                    del terms[k]
                    continue
            terms[k] = v.numerator if type(v) is Fraction and v.denominator == 1 else v

    def __add__(self, other):
        res = self._with_terms(dict(self.terms))
        res.add_scaled(other)
        return res

    def __sub__(self, other):
        res = self._with_terms(dict(self.terms))
        res.add_scaled(other, -1)
        return res

    def scale(self, c):
        res = self._with_terms({})
        res.add_scaled(self, c)
        return res

    def items(self):
        return self.terms.items()

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"

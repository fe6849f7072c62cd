"""Exact ground-ring arithmetic: Q for sections, Q[u] with u = i*h for Sym.

Stencils, fiber metrics, sections, Green values and the three pairings are
rational: they are plain Python numbers, an ``int`` or a ``Fraction`` whose
denominator is not 1 (see :func:`rational`).  The stencil and Green
translate-and-sum loops accumulate integer numerators over one common
denominator and build one rational per output key: the same exact values as
a sum of ``Fraction`` terms, at a fraction of the cost.  The formal deformation
parameter h enters the Sym algebra only through i*h (Q_h = Q + i*h*Delta_BV,
the exponents (i*h/2)<-,-> and i*h*Delta_D), so every Sym coefficient is a
polynomial in u = i*h over Q.  A constant one is a plain rational too; only a
coefficient with a u term is an :class:`HScalar`, and arithmetic that cancels
every power of u returns the rational (:func:`u_poly` builds, and
:func:`sym_coeff` coerces, a Sym coefficient).  The map u -> i*h into Q(i)[h]
is an injective ring map, so an identity checked in Q[u] holds in Q(i)[h];
:func:`h_coeff` and the witness text :func:`coeff_text` report the
h-coefficients, which lie in Q(i) (:class:`GaussianRational`).  Keeping h
formal makes order-by-order statements exact: any identity is checked with
zero tolerance, coefficient by coefficient.  :class:`Combination` is the one
sparse linear-combination type over either ring: sections over Q, Sym
elements and tensors over Q[u].
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
    """Element a + b*i of Q(i): the value of one h-coefficient of a Sym
    coefficient (:func:`h_coeff`)."""

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
    """Polynomial in u = i*h over Q with a u term: a Sym coefficient that is
    not constant.

    ``coeffs`` is a tuple of at least two rationals (see :func:`rational`)
    indexed by the power of u, the last one nonzero.  A constant Sym
    coefficient is a plain rational, so an HScalar is never zero and equals
    no rational; a sum or product whose u terms cancel is that rational (see
    :func:`u_poly`).  Instances are immutable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = u_poly(coeffs)
        if type(c) is not HScalar:
            raise ValueError(f"{coeffs!r} is constant: build Sym coefficients with u_poly")
        self.coeffs = c.coeffs

    def __eq__(self, other):
        return type(other) is HScalar and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        a = self.coeffs
        if type(other) is HScalar:
            b = other.coeffs
            if len(a) < len(b):
                a, b = b, a
            out = list(a)
            for k, c in enumerate(b):
                out[k] += c
            return u_poly(out)
        if not isinstance(other, _FRACTION_LIKE):
            return NotImplemented
        return u_poly((a[0] + other,) + a[1:])

    __radd__ = __add__

    def __neg__(self):
        return u_poly(-c for c in self.coeffs)

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        a = self.coeffs
        if type(other) is HScalar:
            b = other.coeffs
            out = [0] * (len(a) + len(b) - 1)
            for i, x in enumerate(a):
                if x:
                    for j, y in enumerate(b):
                        out[i + j] += x * y
            return u_poly(out)
        if not isinstance(other, _FRACTION_LIKE):
            return NotImplemented
        return u_poly(c * other for c in a)

    __rmul__ = __mul__

    def __str__(self):
        return coeff_text(self)

    def __repr__(self):
        return f"HScalar({self.coeffs!r})"


def u_poly(coeffs):
    """The Sym coefficient sum_k coeffs[k] * u^k in canonical form: the
    rational coeffs[0] when no power of u survives, else an HScalar whose
    coefficients are narrowed rationals with no trailing zero."""
    out = [rational(c) for c in coeffs]
    while out and not out[-1]:
        out.pop()
    if len(out) < 2:
        return out[0] if out else 0
    res = HScalar.__new__(HScalar)
    res.coeffs = tuple(out)
    return res


def sym_coeff(value):
    """A caller's Sym coefficient in canonical form: an HScalar as it is, an
    int or a Fraction as a narrowed rational."""
    if type(value) is HScalar:
        return value
    if not isinstance(value, _FRACTION_LIKE):
        raise TypeError(f"not a Sym coefficient: {value!r}")
    return rational(value)


def u_coeffs(c) -> tuple:
    """The coefficients of a Sym coefficient or a rational by power of u."""
    return c.coeffs if type(c) is HScalar else (c,)


def h_coeff(c, k: int) -> GaussianRational:
    """The coefficient of h^k of a Sym coefficient or a rational: i^k times
    its coefficient of u^k."""
    cs = u_coeffs(c)
    a = cs[k] if k < len(cs) else 0
    if k % 2:
        return GaussianRational(0, a if k % 4 == 1 else -a)
    return GaussianRational(a if k % 4 == 0 else -a)


def coeff_text(c) -> str:
    """The witness text of a Sym coefficient or a rational: its nonzero
    h-coefficients as "a/b + c/d*i" terms, lowest order first ("0" when it
    is zero)."""
    parts = []
    for k, a in enumerate(u_coeffs(c)):
        if a:
            body = str(h_coeff(c, k))
            parts.append(body if k == 0 else f"({body})*h^{k}")
    return " + ".join(parts) or "0"


IH = HScalar((0, 1))  # u = i*h


class Combination:
    """Finite linear combination {key: nonzero coefficient}: the one sparse
    type of the package.

    A subclass fixes the keys and the ring through ``coerce``, which turns a
    caller's coefficient into a ring element: :func:`rational` for sections
    over Q, :func:`sym_coeff` for Sym elements over Q[u], whose coefficients
    are rationals or non-constant HScalars.  Stored values stay canonical:
    HScalar arithmetic returns a rational when no u term survives, and a
    rational sum or product that comes out integral is stored as an ``int``.
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

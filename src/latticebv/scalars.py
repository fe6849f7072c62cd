"""Exact ground-ring arithmetic: Q, Q(i), and polynomials Q(i)[h].

Stencils, fiber metrics, sections, Green values and the three pairings are
rational: they are plain Python numbers, an ``int`` or a ``Fraction`` whose
denominator is not 1 (see :func:`rational`).  Only the coefficients of the
Sym algebra live in the ring Q(i)[h] of polynomials in a formal deformation
parameter h with Gaussian-rational coefficients (:class:`HScalar`); a
rational value crosses into it through ``HScalar.of``.  Keeping h formal
makes order-by-order statements exact: any identity is checked with zero
tolerance, coefficient by coefficient.
"""

from __future__ import annotations

from fractions import Fraction

# Rationals are stdlib Fractions: canonical form (positive denominator,
# reduced) and arbitrary precision come for free.
Rational = Fraction

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
    """Element a + b*i of Q(i), with i^2 = -1 exact."""

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
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_gauss(other)
        if other is None:
            return NotImplemented
        norm = other.re * other.re + other.im * other.im
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / norm,
            (self.im * other.re - self.re * other.im) / norm,
        )

    def __str__(self):
        return f"{_frac_str(self.re)} + {_frac_str(self.im)}*i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def _as_gauss(value):
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, _FRACTION_LIKE):
        return GaussianRational(value)
    return None


GAUSS_ZERO = GaussianRational(0)
GAUSS_ONE = GaussianRational(1)
GAUSS_I = GaussianRational(0, 1)


class HScalar:
    """Polynomial in the formal parameter h over Q(i).

    Stored as a map {exponent: nonzero GaussianRational}.  Instances are
    treated as immutable; all arithmetic returns fresh objects.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        if coeffs is None:
            coeffs = {}
        clean = {}
        for k, c in coeffs.items():
            if k < 0:
                raise ValueError("negative h-exponent")
            g = _as_gauss(c)
            if g is None:
                raise TypeError(f"bad coefficient {c!r}")
            if g:
                clean[k] = g
        self.coeffs = clean

    # -- constructors -------------------------------------------------

    @staticmethod
    def of(value) -> "HScalar":
        """Constant polynomial from int/Fraction/GaussianRational/HScalar."""
        if isinstance(value, HScalar):
            return value
        g = _as_gauss(value)
        if g is None:
            raise TypeError(f"cannot coerce {value!r} to HScalar")
        return HScalar({0: g})

    @staticmethod
    def hbar(k: int = 1, coeff=1) -> "HScalar":
        return HScalar({k: coeff})

    # -- queries ------------------------------------------------------

    def coeff_at_order(self, k: int) -> GaussianRational:
        return self.coeffs.get(k, GAUSS_ZERO)

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, HScalar):
            return self.coeffs == other.coeffs
        g = _as_gauss(other)
        if g is not None:
            return self == HScalar.of(g)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        other = _as_hscalar(other)
        if other is None:
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            s = out.get(k, GAUSS_ZERO) + c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _raw(out)

    __radd__ = __add__

    def __neg__(self):
        return _raw({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        other = _as_hscalar(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_hscalar(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_hscalar(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                s = out.get(k, GAUSS_ZERO) + c1 * c2
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
        return _raw(out)

    __rmul__ = __mul__

    # -- serialization -------------------------------------------------

    def to_text(self) -> str:
        """Render as "a/b + c/d*i" terms per h-order, lowest order first."""
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            body = str(self.coeffs[k])
            if k == 0:
                parts.append(body)
            else:
                parts.append(f"({body})*h^{k}")
        return " + ".join(parts)

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"HScalar({self.coeffs!r})"


def _raw(coeffs: dict) -> HScalar:
    out = HScalar.__new__(HScalar)
    out.coeffs = coeffs
    return out


def _as_hscalar(value):
    if isinstance(value, HScalar):
        return value
    g = _as_gauss(value)
    if g is None:
        return None
    return HScalar({0: g}) if g else _raw({})


ZERO = HScalar()
ONE = HScalar.of(1)
I = HScalar.of(GAUSS_I)
HBAR = HScalar.hbar()


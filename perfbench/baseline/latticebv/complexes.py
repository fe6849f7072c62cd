"""Cochain complexes over countable, locally finite bases.

Operators are column-finite and procedural (generator -> finite vector), so
infinite lattice bases are handled lazily; finite ranges convert to dense
matrices for cohomology.  Identities on infinite complexes are verified on
generator samples (window coverage is exhaustive per window since all our
operators are local).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .scalars import GAUSS_ZERO, HScalar, ZERO
from .lattice import UnsupportedInput


class BasisSpace:
    """Graded basis: every generator identifier carries one integer degree."""

    def degree_of(self, gen) -> int:
        raise NotImplementedError

    def is_degree_finite(self, n: int) -> bool:
        raise NotImplementedError

    def generators_of_degree(self, n: int) -> list:
        raise NotImplementedError


class FiniteBasisSpace(BasisSpace):
    def __init__(self, gens_by_degree: dict):
        self._by_degree = {n: list(gs) for n, gs in gens_by_degree.items() if gs}
        self._degree = {}
        for n, gs in self._by_degree.items():
            for g in gs:
                if g in self._degree:
                    raise ValueError(f"generator {g!r} has two degrees")
                self._degree[g] = n

    def degree_of(self, gen) -> int:
        return self._degree[gen]

    def is_degree_finite(self, n: int) -> bool:
        return True

    def generators_of_degree(self, n: int) -> list:
        return list(self._by_degree.get(n, []))

    def all_generators(self) -> list:
        return list(self._degree)


class LazyBasisSpace(BasisSpace):
    """Countable basis given by a degree function; no enumeration."""

    def __init__(self, degree_of: Callable):
        self._degree_of = degree_of

    def degree_of(self, gen) -> int:
        return self._degree_of(gen)

    def is_degree_finite(self, n: int) -> bool:
        return False

    def generators_of_degree(self, n: int) -> list:
        raise UnsupportedInput("degree of infinite rank")


class Vec:
    """Finitely supported vector: {generator: nonzero HScalar}."""

    __slots__ = ("entries",)

    def __init__(self, entries=None):
        self.entries = {g: v for g, v in (entries or {}).items() if v}

    @staticmethod
    def of_gen(gen, coeff=None) -> "Vec":
        v = Vec()
        c = HScalar.of(1) if coeff is None else HScalar.of(coeff)
        if c:
            v.entries[gen] = c
        return v

    def __bool__(self):
        return bool(self.entries)

    def __eq__(self, other):
        return isinstance(other, Vec) and self.entries == other.entries

    def __add__(self, other):
        out = dict(self.entries)
        for g, c in other.entries.items():
            s = out.get(g, ZERO) + c
            if s:
                out[g] = s
            else:
                out.pop(g, None)
        v = Vec()
        v.entries = out
        return v

    def __sub__(self, other):
        return self + other.scale(HScalar.of(-1))

    def scale(self, c) -> "Vec":
        c = HScalar.of(c)
        v = Vec()
        if c:
            v.entries = {g: val * c for g, val in self.entries.items()}
        return v

    def items(self):
        return self.entries.items()

    def __repr__(self):
        return f"Vec({self.entries!r})"


@dataclass
class LinMap:
    """Degree-homogeneous column-finite operator: generator -> Vec."""

    degree: int
    action: Callable

    def __call__(self, v) -> Vec:
        if not isinstance(v, Vec):
            return self.action(v)
        out = Vec()
        for g, c in v.items():
            out = out + self.action(g).scale(c)
        return out

    def compose(self, other: "LinMap") -> "LinMap":
        return LinMap(self.degree + other.degree, lambda g: self(other.action(g)))

    def add(self, other: "LinMap") -> "LinMap":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in LinMap.add")
        return LinMap(self.degree, lambda g: self.action(g) + other.action(g))

    def sub(self, other: "LinMap") -> "LinMap":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in LinMap.sub")
        return LinMap(self.degree, lambda g: self.action(g) - other.action(g))

    def scale(self, c) -> "LinMap":
        return LinMap(self.degree, lambda g: self.action(g).scale(c))

    @staticmethod
    def identity() -> "LinMap":
        return LinMap(0, Vec.of_gen)

    @staticmethod
    def zero(degree: int = 0) -> "LinMap":
        return LinMap(degree, lambda g: Vec())


@dataclass
class Complex:
    space: BasisSpace
    differential: LinMap  # degree +1

    def __post_init__(self):
        if self.differential.degree != 1:
            raise ValueError("differential must have degree +1")


def check_complex(complex_: Complex, gens) -> list:
    """Q(Q(g)) per sampled generator; returns the list of failing gens."""
    bad = []
    q = complex_.differential
    for g in gens:
        if q(q.action(g)):
            bad.append(g)
    return bad


class _ShiftedSpace(BasisSpace):
    def __init__(self, base: BasisSpace, q: int):
        self.base = base
        self.q = q

    def degree_of(self, gen) -> int:
        return self.base.degree_of(gen) - self.q

    def is_degree_finite(self, n: int) -> bool:
        return self.base.is_degree_finite(n + self.q)

    def generators_of_degree(self, n: int) -> list:
        return self.base.generators_of_degree(n + self.q)


def shift(complex_: Complex, q: int) -> Complex:
    """q-shift: a degree-d generator reappears in degree d-q and the
    differential picks up the sign (-1)^q.  shift(c, 0) is c itself."""
    if q == 0:
        return complex_
    sign = 1 if q % 2 == 0 else -1
    diff = complex_.differential if sign == 1 else complex_.differential.scale(-1)
    return Complex(_ShiftedSpace(complex_.space, q), diff)


class _TensorSpace(BasisSpace):
    def __init__(self, s1: BasisSpace, s2: BasisSpace):
        self.s1 = s1
        self.s2 = s2

    def degree_of(self, gen) -> int:
        g1, g2 = gen
        return self.s1.degree_of(g1) + self.s2.degree_of(g2)

    def is_degree_finite(self, n: int) -> bool:
        # only decidable for fully finite factors
        return isinstance(self.s1, FiniteBasisSpace) and isinstance(
            self.s2, FiniteBasisSpace
        )

    def generators_of_degree(self, n: int) -> list:
        if not self.is_degree_finite(n):
            raise UnsupportedInput("tensor factor of infinite rank")
        out = []
        for d1, gs1 in self.s1._by_degree.items():
            gs2 = self.s2.generators_of_degree(n - d1)
            out.extend((g1, g2) for g1 in gs1 for g2 in gs2)
        return out


def tensor(c1: Complex, c2: Complex) -> Complex:
    """Tensor complex: pair basis, additive degree, Leibniz differential
    Q(v (x) w) = Qv (x) w + (-1)^|v| v (x) Qw."""
    space = _TensorSpace(c1.space, c2.space)

    def diff(gen) -> Vec:
        g1, g2 = gen
        out = Vec()
        for h1, c in c1.differential.action(g1).items():
            out = out + Vec.of_gen((h1, g2), c)
        sign = -1 if c1.space.degree_of(g1) % 2 else 1
        for h2, c in c2.differential.action(g2).items():
            out = out + Vec.of_gen((g1, h2), c if sign > 0 else -c)
        return out

    return Complex(space, LinMap(1, diff))


def braiding(v: Vec, s1: BasisSpace, s2: BasisSpace) -> Vec:
    """Koszul braiding on a vector in the tensor complex: the pair (g1, g2)
    maps to (-1)^{|g1||g2|} (g2, g1)."""
    out = Vec()
    for (g1, g2), c in v.items():
        sign = -1 if (s1.degree_of(g1) % 2) and (s2.degree_of(g2) % 2) else 1
        out = out + Vec.of_gen((g2, g1), c if sign > 0 else -c)
    return out


def tensor_map(f: LinMap, g: LinMap, s1: BasisSpace) -> LinMap:
    """f (x) g with the Koszul rule (f(x)g)(v(x)w) = (-1)^{|g||v|} fv (x) gw."""

    def action(gen) -> Vec:
        g1, g2 = gen
        sign = -1 if (g.degree % 2) and (s1.degree_of(g1) % 2) else 1
        out = Vec()
        for h1, c1 in f.action(g1).items():
            for h2, c2 in g.action(g2).items():
                c = c1 * c2
                out = out + Vec.of_gen((h1, h2), c if sign > 0 else -c)
        return out

    return LinMap(f.degree + g.degree, action)


def hom_differential(f: LinMap, src: Complex, dst: Complex) -> LinMap:
    """Internal-hom differential: d(f) = Q_dst o f - (-1)^{|f|} f o Q_src."""
    sign = -1 if f.degree % 2 else 1
    first = LinMap(f.degree + 1, lambda g: dst.differential(f.action(g)))
    second = LinMap(f.degree + 1, lambda g: f(src.differential.action(g)))
    return first.sub(second) if sign > 0 else first.add(second)


def check_homotopy(f: LinMap, g: LinMap, h: LinMap, src: Complex, dst: Complex, gens) -> list:
    """Check d(h) = g - f on sampled generators; returns failing gens."""
    if f.degree != g.degree or h.degree != f.degree - 1:
        raise ValueError("homotopy degrees inconsistent")
    dh = hom_differential(h, src, dst)
    bad = []
    for gen in gens:
        if dh.action(gen) != g.action(gen) - f.action(gen):
            bad.append(gen)
    return bad


def _order0_matrix(rows, cols, q: LinMap):
    """Dense Q(i) matrix of q restricted to the given generator lists."""
    row_index = {g: i for i, g in enumerate(rows)}
    mat = [[GAUSS_ZERO] * len(cols) for _ in rows]
    for j, g in enumerate(cols):
        for h, c in q.action(g).items():
            if c.degree() > 0:
                raise UnsupportedInput("cohomology needs h-free differentials")
            if h not in row_index:
                raise UnsupportedInput(f"differential leaves the finite range at {h!r}")
            mat[row_index[h]][j] = c.coeff_at_order(0)
    return mat


def _rank(mat) -> int:
    """Exact rank over Q(i) by Gaussian elimination."""
    mat = [row[:] for row in mat]
    n_rows = len(mat)
    n_cols = len(mat[0]) if mat else 0
    rank = 0
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = mat[row][col]
        for r in range(row + 1, n_rows):
            if mat[r][col]:
                factor = mat[r][col] / inv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[row])]
        rank += 1
        row += 1
        if row == n_rows:
            break
    return rank


def cohomology_dims(complex_: Complex, degree_lo: int, degree_hi: int) -> dict:
    """Exact ranks of H^n = ker(Q^n)/im(Q^{n-1}) for n in [degree_lo, degree_hi].

    Every degree in [degree_lo - 1, degree_hi + 1] must have finite rank.
    """
    space = complex_.space
    for n in range(degree_lo - 1, degree_hi + 2):
        if not space.is_degree_finite(n):
            raise UnsupportedInput(f"degree {n} has infinite rank")
    gens = {n: space.generators_of_degree(n) for n in range(degree_lo - 1, degree_hi + 2)}
    ranks = {}
    for n in range(degree_lo - 1, degree_hi + 1):
        if gens[n]:
            ranks[n] = _rank(_order0_matrix(gens[n + 1], gens[n], complex_.differential))
        else:
            ranks[n] = 0
    out = {}
    for n in range(degree_lo, degree_hi + 1):
        out[n] = len(gens[n]) - ranks.get(n, 0) - ranks.get(n - 1, 0)
    return out

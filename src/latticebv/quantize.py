"""The two quantizations of a free field complex and their comparison.

On Sym of the 1-shifted compactly supported sections:

* deformed differential   Q_h  = Q + i*h*Delta_{tau_m1}
* Moyal-Weyl product      mu_h = mu o exp((i*h/2) <-,->_{tau_0})
* Dirac multiplication    mu_D = mu o exp(i*h <-,->_{tau_D})
* time-ordering map       T    = exp(i*h Delta_{tau_D}),  T^{-1} = exp(-i*h ...)

Generators are (shifted degree, t, x, fiber) = bundle degree - 1; the Sym
differential extends -Q (the 1-shift differential) by the Leibniz rule.  All
exponential series truncate because the pairings shorten words by two.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import product
from math import factorial

from .bvtheory import FreeBVModel, Section, lambda_pm, tau_minus1
from .lattice import Point, Region, find_time_ordering
from .scalars import IH, rational
from .symalg import (
    PairingOracle,
    SymElement,
    TensorElement,
    bider_apply,
    deformed_mul,
    exp_laplacian,
    laplacian_apply,
    mul,
    sym_map,
    tensor_mu,
    word_degree,
    extend_derivation,
)

IH_HALF = IH * Fraction(1, 2)


def gen_to_section(g, coeff=1) -> Section:
    deg, t, x, fiber = g
    return Section.delta(deg + 1, Point(t, x), fiber, coeff)


def section_to_combo(section: Section) -> dict:
    """Section -> {generator: rational} in shifted-degree labels."""
    return {(n - 1, t, x, f): v for (n, t, x, f), v in section.items()}


def section_to_elem(section: Section) -> SymElement:
    return SymElement({(g,): c for g, c in section_to_combo(section).items()})


def _parity_parts(a: SymElement) -> tuple:
    """(even, odd): the words of a of even and of odd degree."""
    parts = ({}, {})
    for w, c in a.terms.items():
        parts[word_degree(w) % 2][w] = c
    return a._with_terms(parts[0]), a._with_terms(parts[1])


def generators_at(model: FreeBVModel, points) -> list:
    """The generators (every degree, fiber) over the given points, in the
    order of :meth:`FreeBVModel.delta_keys`."""
    return [(n - 1, t, x, f) for n, t, x, f in model.delta_keys(points)]


class SymModel:
    """A free field complex together with its symmetric-algebra structure:
    pairing oracles, the Sym differential, both deformations and the
    comparison map."""

    def __init__(self, model: FreeBVModel):
        self.model = model
        key = model.lattice.class_key
        self.tau_m1 = PairingOracle(1, 1, self._ev_m1, name="tau_m1", key=key)
        self.tau_0 = PairingOracle(0, -1, self._ev_0, name="tau_0", key=key)
        self.tau_d = PairingOracle(0, 1, self._ev_d, name="tau_D", key=key)
        self._slices: dict = {}
        self._deltas: dict = {}
        self._qgen_cache: dict = {}

    # -- pairing evaluators (delta pairs; Green slices translated) --------
    # The pairings are rational, and so are their values in the Sym algebra:
    # a constant Sym coefficient is a plain rational.  L± commutes with
    # translations, so <<g1, L± g2>> is read off the slice of L± of the
    # origin delta at the time offset of the pair: one Green solve per
    # (degree, fiber, time offset, direction) serves every pair.

    def _ev_m1(self, g1, g2):
        # the metric pairs bundle degrees n and 1 - n: zero off that degree
        if g1[0] + g2[0] + 1:
            return 0
        return tau_minus1(self.model, self._delta(g1), self._delta(g2))

    def _delta(self, g) -> Section:
        sec = self._deltas.get(g)
        if sec is None:
            sec = self._deltas[g] = gen_to_section(g)
        return sec

    def _lambda_slices(self, n: int, f: int, dt: int) -> tuple:
        """The terms of the time-dt slices of L+ delta and L- delta, for the
        bundle-degree-n, fiber-f delta at the origin."""
        slices = self._slices.get((n, f, dt))
        if slices is None:
            delta = Section.delta(n, Point(0, 0), f)
            slices = self._slices[(n, f, dt)] = tuple(
                lambda_pm(self.model, delta, d, dt, dt).terms for d in (1, -1)
            )
        return slices

    def _lambda_values(self, g1, g2) -> tuple:
        """(<<g1, L+ g2>>, <<g1, L- g2>>) of two generator deltas: two slice
        lookups per metric entry, at g1's offset from g2.  L± delta_g2 lives
        in the one bundle degree |g2| + 1 + deg W, which g1 reads only when
        1 - (|g1| + 1) is that degree; every other g1 reads (0, 0) without a
        slice."""
        model = self.model
        n1 = g1[0] + 1
        m = 1 - n1
        n2, t2, x2, f2 = g2
        if g1[0] + n2 + 1 + model.w_op.degree_shift:
            return 0, 0
        mat = model.metric.blocks.get(n1)
        if mat is None or m not in model.ranks:
            return 0, 0
        dt = g1[1] - t2
        plus_slice, minus_slice = self._lambda_slices(n2 + 1, f2, dt)
        dx = model.lattice.shift(g1[2], -x2)
        plus = minus = 0
        for j, coeff in enumerate(mat[g1[3]]):
            if coeff:
                key = (m, dt, dx, j)
                plus += plus_slice.get(key, 0) * coeff
                minus += minus_slice.get(key, 0) * coeff
        return plus, minus

    def _ev_0(self, g1, g2):
        plus, minus = self._lambda_values(g1, g2)
        return rational(plus - minus)

    def _ev_d(self, g1, g2):
        plus, minus = self._lambda_values(g1, g2)
        total = plus + minus
        if type(total) is int and not total % 2:
            return total // 2
        return rational(Fraction(total, 2))

    # -- differentials ----------------------------------------------------

    def qgen(self, g) -> SymElement:
        """Shifted differential on a generator: -(Q delta_g) as a combo."""
        out = self._qgen_cache.get(g)
        if out is None:
            img = self.model.q_op.apply(gen_to_section(g), self.model.lattice)
            out = section_to_elem(img).scale(-1)
            self._qgen_cache[g] = out
        return out

    def q_sym(self, a: SymElement) -> SymElement:
        """The symmetric-algebra differential (Leibniz extension of -Q)."""
        return extend_derivation(self.qgen, 1, a)

    def delta_bv(self, a: SymElement) -> SymElement:
        return laplacian_apply(self.tau_m1, a)

    def q_hbar(self, a: SymElement) -> SymElement:
        """Deformed differential Q_h = Q + i*h*Delta_BV."""
        return self.q_sym(a) + self.delta_bv(a).scale(IH)

    # -- multiplications ---------------------------------------------------

    def moyal_mul(self, a: SymElement, b: SymElement) -> SymElement:
        return deformed_mul(self.tau_0, a, b, IH_HALF)

    def dirac_mul(self, a: SymElement, b: SymElement) -> SymElement:
        return deformed_mul(self.tau_d, a, b, IH)

    def poisson_bracket(self, a: SymElement, b: SymElement) -> SymElement:
        """{a, b} = mu(<a, b>_{tau_0})."""
        return tensor_mu(bider_apply(self.tau_0, a, b))

    def star_commutator(self, a: SymElement, b: SymElement) -> SymElement:
        """Graded Moyal commutator [a,b] = a*b - (-1)^{|a||b|} b*a over homogeneous
        parts, split by parity: a*b - b_even*a - b_odd*a_even + b_odd*a_odd."""
        a_even, a_odd = _parity_parts(a)
        b_even, b_odd = _parity_parts(b)
        out = self.moyal_mul(a, b)
        for pb, pa, sign in ((b_even, a, -1), (b_odd, a_even, -1), (b_odd, a_odd, 1)):
            if pb and pa:
                out.add_scaled(self.moyal_mul(pb, pa), sign)
        return out

    # -- comparison ----------------------------------------------------------

    def time_ordering(self, a: SymElement, direction: int = 1) -> SymElement:
        """T = exp(i*h*Delta_D) (direction +1) or its inverse (direction -1)."""
        pref = IH if direction > 0 else -IH
        return exp_laplacian(self.tau_d, a, pref)

    # -- generator pools -----------------------------------------------------

    def generators_in_region(self, region: Region) -> list:
        return generators_at(self.model, sorted(region.points))


# -- n-ary tensor machinery -------------------------------------------------


def q_hbar_tensor(sm: SymModel, te: TensorElement) -> TensorElement:
    """Q_h extended to the tensor power by the Leibniz rule."""
    out = TensorElement()
    arity = len(next(iter(te.terms), ()))
    for i in range(arity):
        out.add_scaled(te.map_factor(i, sm.q_hbar, 1))
    return out


def _check_supports(regions, elems) -> tuple:
    """(regions, elems) as lists, after checking that they pair up and that
    each input is supported in its region."""
    regions, elems = list(regions), list(elems)
    if len(regions) != len(elems):
        raise ValueError("regions/inputs length mismatch")
    for region, elem in zip(regions, elems):
        for w in elem.terms:
            for (deg, t, x, fiber) in w:
                if not region.contains(Point(t, x)):
                    raise ValueError("input not supported in its region")
    return regions, elems


def _fold_words(te: TensorElement, product) -> SymElement:
    """Sum of c * (w_1 product w_2 product ... w_n), folded from the left, over
    the words (w_1, ..., w_n) and coefficients c of te."""
    result = SymElement()
    for words, c in te.terms.items():
        prod = SymElement({words[0]: 1})
        for w in words[1:]:
            prod = product(prod, SymElement({w: 1}))
        result.add_scaled(prod, c)
    return result


def tpfa_product(sm: SymModel, regions, elems) -> SymElement:
    """Time-ordered product of the BV quantization: push forward and multiply.

    The empty tuple yields the unit.  Raises for non-time-orderable tuples.
    """
    regions, elems = _check_supports(regions, elems)
    if find_time_ordering(regions) is None:
        raise ValueError("tuple is not time-orderable")
    if not elems:
        return SymElement.unit()
    return tensor_mu(TensorElement.of(*elems))


def fa_product(sm: SymModel, regions, elems, rho=None) -> SymElement:
    """Time-ordered product of the AQFT: permute into a time-ordered order
    and multiply with the Moyal-Weyl product."""
    regions, elems = _check_supports(regions, elems)
    if rho is None:
        rho = find_time_ordering(regions)
        if rho is None:
            raise ValueError("tuple is not time-orderable")
    if not elems:
        return SymElement.unit()
    return _fold_words(TensorElement.of(*elems).permute(tuple(rho)), sm.moyal_mul)


def dirac_nary(sm: SymModel, elems) -> SymElement:
    """mu_D^(n): iterated Dirac multiplication (associative, commutative)."""
    elems = list(elems)
    if not elems:
        return SymElement.unit()
    return _fold_words(TensorElement.of(*elems), sm.dirac_mul)


# -- constructive time-slice data -------------------------------------------


def gen_map(sm: SymModel, section_map, cutoff):
    """section_map(model, cutoff, -) as a generator map on ambient
    generators: homotopy_eta gives eta (degree -1), quasi_inverse_g gives
    f_* g (degree 0, into the slab, viewed ambiently).  Each image is
    computed once for the life of the map."""

    @cache
    def fn(g):
        return section_to_elem(section_map(sm.model, cutoff, gen_to_section(g)))

    return fn


def _slot_weight(sign: int, p: int, k: int) -> int:
    """p! times the weight of a term of H_p with k slots on F: of the p!
    orders of the word, k!(p-1-k)! put those k slots first and eta's next."""
    return sign * factorial(k) * factorial(p - 1 - k)


def sym_power_homotopy(sm: SymModel, eta_fn, f_fn, word) -> SymElement:
    """p! H_p(word), for the symmetrized tensor-power homotopy H_p built from
    a homotopy eta (d eta = id - F) and the degree-0 map F; the factor p!
    makes every weight an integer.

    Sym is graded-commutative, so the symmetrizing sum over the p! orders
    of the word collapses to a sum over the slot j that takes eta and the
    set S of other slots that take F, each map applied in place.  A term
    weighs |S|!(p-1-|S|)! (the orders that put S first, then j) and has
    the sign of moving eta, of degree -1, past word[:j]."""
    p = len(word)
    out = SymElement()
    for j in range(p):
        sign = -1 if sum(g[0] for g in word[:j]) % 2 else 1
        for takes_f in product((False, True), repeat=p - 1):
            maps = iter(takes_f)
            prod = SymElement.unit()
            for i, g in enumerate(word):
                if i == j:
                    factor = eta_fn(g)
                else:
                    factor = f_fn(g) if next(maps) else SymElement.of_gen(g)
                prod = mul(prod, factor)
                if not prod:
                    break
            out.add_scaled(prod, _slot_weight(sign, p, sum(takes_f)))
    return out


def sym_power_homotopy_defect(sm: SymModel, eta_fn, f_fn, word) -> SymElement:
    """p! (d(H_p) - (id - Sym^p F)) evaluated on a basis word of length p;
    zero iff the constructive quasi-isomorphism certificate holds there.

    :func:`sym_power_homotopy` returns p! H_p, whose weights are integers,
    so integral eta and F images give an integral defect.  Q keeps word
    length, so each H_p here is on a word of length p and carries the same
    factor."""
    scale = factorial(len(word))
    elem = SymElement({word: 1})
    h_of_w = sym_power_homotopy(sm, eta_fn, f_fn, word)
    q_w = sm.q_sym(elem)
    defect = sm.q_sym(h_of_w)
    for w2, c in q_w.items():
        defect.add_scaled(sym_power_homotopy(sm, eta_fn, f_fn, w2), c)
    defect.add_scaled(elem, -scale)
    defect.add_scaled(sym_map(f_fn, elem), scale)
    return defect


def filtration_defects(sm: SymModel, word) -> dict:
    """Decompose Q_h(word) by word length; the filtration statement says the
    only lengths present are len(word) (the classical differential) and
    len(word) - 2 (the BV term)."""
    p = len(word)
    elem = SymElement({word: 1})
    image = sm.q_hbar(elem)
    by_len: dict = {}
    for w, c in image.items():
        by_len.setdefault(len(w), SymElement()).terms[w] = c
    classical = sm.q_sym(elem)
    defects = {}
    defects["graded_matches_classical"] = by_len.get(p, SymElement()) == classical
    extra = [l for l in by_len if l not in (p, p - 2)]
    defects["only_allowed_lengths"] = not extra
    return defects

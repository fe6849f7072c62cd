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

from .bvtheory import (
    FreeBVModel,
    Section,
    homotopy_eta,
    quasi_inverse_g,
    tau_minus1,
)
from .lattice import Point, Region, find_time_ordering
from .scalars import HBAR, HScalar, I, ONE
from .symalg import (
    PairingOracle,
    SymElement,
    TensorElement,
    bider_tensor,
    exp_bider,
    exp_laplacian,
    laplacian_apply,
    mul,
    sym_map,
    tensor_mu,
    extend_derivation,
)

IH = I * HBAR
IH_HALF = IH * Fraction(1, 2)


def gen_to_section(g, coeff=1) -> Section:
    deg, t, x, fiber = g
    return Section.delta(deg + 1, Point(t, x), fiber, coeff)


def section_to_combo(section: Section) -> dict:
    """Section -> {generator: rational} in shifted-degree labels."""
    return {(n - 1, t, x, f): v for (n, t, x, f), v in section.items()}


def section_to_elem(section: Section) -> SymElement:
    out = SymElement()
    for g, c in section_to_combo(section).items():
        out = out + SymElement.of_gen(g, c)
    return out


class SymModel:
    """A free field complex together with its symmetric-algebra structure:
    pairing oracles, the Sym differential, both deformations and the
    comparison map."""

    def __init__(self, model: FreeBVModel):
        self.model = model
        self.tau_m1 = PairingOracle(1, 1, self._ev_m1, name="tau_m1")
        self.tau_0 = PairingOracle(0, -1, self._ev_0, name="tau_0")
        self.tau_d = PairingOracle(0, 1, self._ev_d, name="tau_D")
        self._qgen_cache: dict = {}
        self._w_delta_cache: dict = {}

    # -- pairing evaluators (delta pairs; Green solves memoized) ---------
    # The pairings are rational; each evaluator lifts its value into Q(i)[h]
    # only on the way out to the Sym algebra.

    def _ev_m1(self, g1, g2) -> HScalar:
        return HScalar.of(tau_minus1(self.model, gen_to_section(g1), gen_to_section(g2)))

    def _w_delta(self, g) -> Section:
        sec = self._w_delta_cache.get(g)
        if sec is None:
            sec = self.model.w_op.apply(gen_to_section(g), self.model.lattice)
            self._w_delta_cache[g] = sec
        return sec

    def _lambda_values(self, g1, g2):
        """(L+ psi2, L- psi2) fiber values at the point of g1, paired degree."""
        model = self.model
        n1 = g1[0] + 1
        m = 1 - n1
        mat = model.metric.blocks.get(n1)
        if mat is None or m not in model.ranks:
            return None
        point = Point(g1[1], g1[2])
        w_psi = self._w_delta(g2)
        row = mat[g1[3]]
        vals = []
        for j, coeff in enumerate(row):
            if not coeff:
                continue
            plus = model.green(1).value_at(w_psi, m, point, j)
            minus = model.green(-1).value_at(w_psi, m, point, j)
            vals.append((coeff, plus, minus))
        return vals

    def _ev_0(self, g1, g2) -> HScalar:
        acc = 0
        for coeff, plus, minus in self._lambda_values(g1, g2) or ():
            acc += (plus - minus) * coeff
        return HScalar.of(acc)

    def _ev_d(self, g1, g2) -> HScalar:
        acc = 0
        for coeff, plus, minus in self._lambda_values(g1, g2) or ():
            acc += (plus + minus) * coeff
        return HScalar.of(acc * Fraction(1, 2))

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
        return tensor_mu(exp_bider(self.tau_0, TensorElement.of(a, b), IH_HALF))

    def dirac_mul(self, a: SymElement, b: SymElement) -> SymElement:
        return tensor_mu(exp_bider(self.tau_d, TensorElement.of(a, b), IH))

    def poisson_bracket(self, a: SymElement, b: SymElement) -> SymElement:
        """{a, b} = mu(<a, b>_{tau_0})."""
        return tensor_mu(bider_tensor(self.tau_0, TensorElement.of(a, b)))

    def star_commutator(self, a: SymElement, b: SymElement) -> SymElement:
        """Graded Moyal commutator [a,b] = a*b - (-1)^{|a||b|} b*a per
        homogeneous parts."""
        out = self.moyal_mul(a, b)
        for da, pa in a.homogeneous_parts().items():
            for db, pb in b.homogeneous_parts().items():
                sign = -1 if (da % 2) and (db % 2) else 1
                out = out - self.moyal_mul(pb, pa).scale(sign)
        return out

    # -- comparison ----------------------------------------------------------

    def time_ordering(self, a: SymElement, direction: int = 1) -> SymElement:
        """T = exp(i*h*Delta_D) (direction +1) or its inverse (direction -1)."""
        pref = IH if direction > 0 else -IH
        return exp_laplacian(self.tau_d, a, pref)

    # -- generator pools -----------------------------------------------------

    def generators_at(self, points) -> list:
        out = []
        for p in points:
            q = self.model.lattice.point(p.t, p.x)
            for n in self.model.degrees():
                for f in range(self.model.rank(n)):
                    out.append((n - 1, q.t, q.x, f))
        return out

    def generators_in_region(self, region: Region) -> list:
        return self.generators_at(sorted(region.points))


# -- n-ary tensor machinery -------------------------------------------------


def q_hbar_tensor(sm: SymModel, te: TensorElement) -> TensorElement:
    """Q_h extended to the tensor power by the Leibniz rule."""
    out = TensorElement()
    arity = len(next(iter(te.terms), ()))
    for i in range(arity):
        out = out + te.map_factor(i, sm.q_hbar, 1)
    return out


def _check_supports(regions, elems):
    for region, elem in zip(regions, elems):
        for w in elem.terms:
            for (deg, t, x, fiber) in w:
                if not region.contains(Point(t, x)):
                    raise ValueError("input not supported in its region")


def tpfa_product(sm: SymModel, regions, elems, check: bool = True) -> SymElement:
    """Time-ordered product of the BV quantization: push forward and multiply.

    The empty tuple yields the unit.  Raises for non-time-orderable tuples.
    """
    regions = list(regions)
    elems = list(elems)
    if len(regions) != len(elems):
        raise ValueError("regions/inputs length mismatch")
    if check:
        _check_supports(regions, elems)
        if find_time_ordering(regions) is None:
            raise ValueError("tuple is not time-orderable")
    if not elems:
        return SymElement.unit()
    return tensor_mu(TensorElement.of(*elems))


def fa_product(sm: SymModel, regions, elems, rho=None, check: bool = True) -> SymElement:
    """Time-ordered product of the AQFT: permute into a time-ordered order
    and multiply with the Moyal-Weyl product."""
    regions = list(regions)
    elems = list(elems)
    if len(regions) != len(elems):
        raise ValueError("regions/inputs length mismatch")
    if check:
        _check_supports(regions, elems)
    if rho is None:
        rho = find_time_ordering(regions)
        if rho is None:
            raise ValueError("tuple is not time-orderable")
    if not elems:
        return SymElement.unit()
    te = TensorElement.of(*elems).permute(tuple(rho))
    result = SymElement()
    for words, c in te.items():
        prod = SymElement({words[0]: ONE})
        for w in words[1:]:
            prod = sm.moyal_mul(prod, SymElement({w: ONE}))
        result = result + prod.scale(c)
    return result


def dirac_nary(sm: SymModel, elems) -> SymElement:
    """mu_D^(n): iterated Dirac multiplication (associative, commutative)."""
    elems = list(elems)
    if not elems:
        return SymElement.unit()
    result = SymElement()
    for words, c in TensorElement.of(*elems).items():
        prod = SymElement({words[0]: ONE})
        for w in words[1:]:
            prod = sm.dirac_mul(prod, SymElement({w: ONE}))
        result = result + prod.scale(c)
    return result


# -- constructive time-slice data -------------------------------------------


def eta_gen_map(sm: SymModel, cutoff):
    """eta as a generator map (degree -1) on ambient generators."""

    def fn(g):
        return section_to_elem(homotopy_eta(sm.model, cutoff, gen_to_section(g)))

    return fn


def quasi_inverse_gen_map(sm: SymModel, cutoff):
    """f_* g as a generator map (degree 0): ambient -> sections in the slab,
    viewed ambiently."""

    def fn(g):
        return section_to_elem(quasi_inverse_g(sm.model, cutoff, gen_to_section(g)))

    return fn


def _lift_terms(word, p: int):
    """Symmetrizing lift: word -> (1/p!) sum over permutations of generator
    tuples with Koszul signs."""
    import itertools

    degs = [g[0] for g in word]
    inv_fact = Fraction(1, _factorial(p))
    out = []
    for perm in itertools.permutations(range(p)):
        sign = 1
        for i in range(p):
            for j in range(i + 1, p):
                if perm[i] > perm[j] and degs[perm[i]] % 2 and degs[perm[j]] % 2:
                    sign = -sign
        out.append((tuple(word[k] for k in perm), inv_fact if sign > 0 else -inv_fact))
    return out


def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


def sym_power_homotopy(sm: SymModel, eta_fn, f_fn, word) -> SymElement:
    """H_p(word) for the symmetrized tensor-power homotopy built from a
    homotopy eta (d eta = id - F) and the degree-0 map F."""
    p = len(word)
    if p == 0:
        return SymElement()
    out = SymElement()
    f_elem_cache: dict = {}
    eta_elem_cache: dict = {}

    def f_of(g):
        e = f_elem_cache.get(g)
        if e is None:
            e = f_fn(g)
            f_elem_cache[g] = e
        return e

    def eta_of(g):
        e = eta_elem_cache.get(g)
        if e is None:
            e = eta_fn(g)
            eta_elem_cache[g] = e
        return e

    for gens, coeff in _lift_terms(word, p):
        for k in range(p):
            prefix_deg = sum(g[0] for g in gens[:k])
            sign = -1 if prefix_deg % 2 else 1  # eta has odd degree -1
            factors = [f_of(g) for g in gens[:k]]
            factors.append(eta_of(gens[k]))
            factors.extend(SymElement.of_gen(g) for g in gens[k + 1 :])
            prod = SymElement.unit()
            for f in factors:
                prod = mul(prod, f)
                if not prod:
                    break
            out = out + prod.scale(coeff if sign > 0 else -coeff)
    return out


def sym_power_homotopy_defect(sm: SymModel, eta_fn, f_fn, word) -> SymElement:
    """d(H_p) - (id - Sym^p F) evaluated on a basis word; zero iff the
    constructive quasi-isomorphism certificate holds there."""
    elem = SymElement({word: ONE})
    h_of_w = sym_power_homotopy(sm, eta_fn, f_fn, word)
    q_w = sm.q_sym(elem)
    h_of_qw = SymElement()
    for w2, c in q_w.items():
        h_of_qw = h_of_qw + sym_power_homotopy(sm, eta_fn, f_fn, w2).scale(c)
    boundary = sm.q_sym(h_of_w) + h_of_qw
    target = elem - sym_map(f_fn, elem)
    return boundary - target


def filtration_defects(sm: SymModel, word) -> dict:
    """Decompose Q_h(word) by word length; the filtration statement says the
    only lengths present are len(word) (the classical differential) and
    len(word) - 2 (the BV term)."""
    p = len(word)
    elem = SymElement({word: ONE})
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

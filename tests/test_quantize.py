import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from latticebv import bvtheory, quantize, suites
from latticebv.abstractspace import random_word
from latticebv.bvtheory import delta_basis, homotopy_eta, quasi_inverse_g, tau_0, tau_dirac, tau_minus1
from latticebv.lattice import CutoffData, Lattice, Point, causal_hull, causally_disjoint, slab
from latticebv.models import klein_gordon, maxwell2d
from latticebv.quantize import (
    SymModel,
    dirac_nary,
    fa_product,
    filtration_defects,
    gen_map,
    gen_to_section,
    generators_at,
    q_hbar_tensor,
    sym_power_homotopy,
    sym_power_homotopy_defect,
    tpfa_product,
)
from latticebv.scalars import IH, HScalar, sym_coeff, u_coeffs
from latticebv.suites import DEFAULT_CONFIG, ModelBundle, merge_config, run_suites
from latticebv.symalg import (
    Combination,
    SymElement,
    TensorElement,
    bider_tensor,
    boundary_pairing,
    deformed_mul,
    exp_bider,
    mul,
    normalize,
    sym_map,
    tensor_mu,
    word_degree,
)


def sym_kg(**kw):
    return SymModel(klein_gordon(Lattice(21), **kw))


def sym_mw():
    return SymModel(maxwell2d(Lattice(21)))


def window_gens(sm, t_lo, t_hi, xs):
    return generators_at(sm.model, [Point(t, x) for t in range(t_lo, t_hi + 1) for x in xs])


def random_word_of(rng, gens, max_len, min_len=1):
    while True:
        length = rng.randint(min_len, max_len)
        w, _ = normalize([rng.choice(gens) for _ in range(length)])
        if w is not None:
            return w


def random_elem(rng, gens, max_len, n_words=2):
    out = SymElement()
    for _ in range(n_words):
        w = random_word_of(rng, gens, max_len, min_len=0)
        c = Fraction(rng.randint(-2, 2), rng.randint(1, 2))
        if c:
            out = out + SymElement({w: sym_coeff(c)})
    return out


# -- deformed differential ----------------------------------------------------


def test_q_hbar_on_generators_is_classical():
    sm = sym_kg()
    for g in window_gens(sm, 0, 0, range(0, 2)):
        v = SymElement.of_gen(g)
        assert sm.q_hbar(v) == sm.q_sym(v)


def test_q_hbar_on_pairs_adds_bv_term():
    sm = sym_kg()
    gens = window_gens(sm, 0, 0, range(0, 2))
    for g1 in gens:
        for g2 in gens:
            w, sign = normalize([g1, g2])
            if w is None:
                continue
            elem = SymElement({w: 1})
            tau_val = sm.tau_m1(g1, g2)
            expected_extra = SymElement.unit(tau_val * IH * sign) if tau_val else SymElement()
            assert sm.q_hbar(elem) == sm.q_sym(elem) + expected_extra


def test_q_sym_squares_to_zero():
    rng = random.Random(0)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(25):
            a = random_elem(rng, gens, 4)
            assert not sm.q_sym(sm.q_sym(a))


def test_q_hbar_squares_to_zero():
    rng = random.Random(1)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(25):
            a = random_elem(rng, gens, 6)
            assert not sm.q_hbar(sm.q_hbar(a))


def test_delta_bv_squares_to_zero():
    rng = random.Random(2)
    sm = sym_kg()
    gens = window_gens(sm, -1, 1, range(-1, 2))
    for _ in range(25):
        a = random_elem(rng, gens, 6)
        assert not sm.delta_bv(sm.delta_bv(a))


# -- time-ordered products (BV side) ------------------------------------------


def _regions_stacked(lattice, *time_xs):
    return [causal_hull(lattice, [txy]) for txy in time_xs]


def test_tpfa_empty_tuple_is_unit():
    sm = sym_kg()
    assert tpfa_product(sm, [], []) == SymElement.unit()


def test_tpfa_single_is_pushforward():
    sm = sym_kg()
    r = causal_hull(sm.model.lattice, [(0, 0)])
    a = SymElement.of_gen(sm.generators_in_region(r)[0])
    assert tpfa_product(sm, [r], [a]) == a


def test_tpfa_rejects_non_orderable():
    sm = sym_kg()
    lattice = sm.model.lattice
    a = causal_hull(lattice, [(0, 0), (3, 0)])
    b = causal_hull(lattice, [(0, 3), (3, 3)])
    ga, gb = sm.generators_in_region(a)[0], sm.generators_in_region(b)[0]
    with pytest.raises(ValueError):
        tpfa_product(sm, [a, b], [SymElement.of_gen(ga), SymElement.of_gen(gb)])


def test_tpfa_rejects_bad_support():
    sm = sym_kg()
    lattice = sm.model.lattice
    r = causal_hull(lattice, [(0, 0)])
    far = SymElement.of_gen((0, 5, 5, 0))
    with pytest.raises(ValueError):
        tpfa_product(sm, [r], [far])


def test_tpfa_cochain_map_on_stacked_diamonds():
    rng = random.Random(3)
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        later, earlier = _regions_stacked(lattice, (4, 0), (0, 0))
        g_later = sm.generators_in_region(later)
        g_earlier = sm.generators_in_region(earlier)
        for _ in range(12):
            a = SymElement({random_word_of(rng, g_later, 2): 1})
            b = SymElement({random_word_of(rng, g_earlier, 2): 1})
            te = TensorElement.of(a, b)
            lhs = sm.q_hbar(tensor_mu(te))
            rhs = tensor_mu(q_hbar_tensor(sm, te))
            assert lhs == rhs


# -- Moyal-Weyl product --------------------------------------------------------


def test_moyal_single_contraction():
    sm = sym_kg()
    gens = window_gens(sm, 0, 2, range(0, 2))
    for g1 in gens[:6]:
        for g2 in gens[:6]:
            a, b = SymElement.of_gen(g1), SymElement.of_gen(g2)
            expected = mul(a, b) + SymElement.unit(sm.tau_0(g1, g2) * IH * Fraction(1, 2))
            assert sm.moyal_mul(a, b) == expected


def test_moyal_unital():
    rng = random.Random(4)
    sm = sym_kg()
    gens = window_gens(sm, -1, 1, range(-1, 2))
    for _ in range(10):
        a = random_elem(rng, gens, 4)
        assert sm.moyal_mul(SymElement.unit(), a) == a
        assert sm.moyal_mul(a, SymElement.unit()) == a


def test_moyal_associative():
    rng = random.Random(5)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(8):
            a = random_elem(rng, gens, 3)
            b = random_elem(rng, gens, 3)
            c = random_elem(rng, gens, 3)
            assert sm.moyal_mul(sm.moyal_mul(a, b), c) == sm.moyal_mul(a, sm.moyal_mul(b, c))


def test_moyal_chain_map():
    # Q(a * b) = Qa * b + (-1)^{|a|} a * Qb with Q = Q_sym (degree-wise)
    rng = random.Random(6)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(15):
            w1 = random_word_of(rng, gens, 3)
            w2 = random_word_of(rng, gens, 3)
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            sign = -1 if word_degree(w1) % 2 else 1
            lhs = sm.q_sym(sm.moyal_mul(a, b))
            rhs = sm.moyal_mul(sm.q_sym(a), b) + sm.moyal_mul(a, sm.q_sym(b)).scale(sign)
            assert lhs == rhs


def test_moyal_classical_limit():
    rng = random.Random(7)
    sm = sym_kg()
    gens = window_gens(sm, -1, 1, range(-1, 2))
    for _ in range(10):
        a = random_elem(rng, gens, 3)
        b = random_elem(rng, gens, 3)
        assert sm.moyal_mul(a, b).coeff_at_order(0) == mul(a, b).coeff_at_order(0)


def test_moyal_commutator_generators():
    sm = sym_kg()
    gens = window_gens(sm, 0, 2, range(0, 2))
    for g1 in gens[:6]:
        for g2 in gens[:6]:
            a, b = SymElement.of_gen(g1), SymElement.of_gen(g2)
            comm = sm.star_commutator(a, b)
            assert comm == SymElement.unit(sm.tau_0(g1, g2) * IH)


def test_moyal_commutator_poisson_order():
    # [a, b] - i h {a, b} = O(h^2) for h-free inputs
    rng = random.Random(8)
    sm = sym_kg()
    gens = window_gens(sm, -1, 1, range(-1, 2))
    for _ in range(10):
        w1 = random_word_of(rng, gens, 3)
        w2 = random_word_of(rng, gens, 3)
        a, b = SymElement({w1: 1}), SymElement({w2: 1})
        defect = sm.star_commutator(a, b) - sm.poisson_bracket(a, b).scale(IH)
        assert not defect.coeff_at_order(0)
        assert not defect.coeff_at_order(1)


def homogeneous_commutator(sm, a, b):
    """[a, b] by its definition: a*b minus (-1)^{da db} pb*pa over the
    degree-da part pa of a and the degree-db part pb of b."""
    parts_a, parts_b = {}, {}
    for e, parts in ((a, parts_a), (b, parts_b)):
        for w, c in e.items():
            parts.setdefault(word_degree(w), {})[w] = c
    out = sm.moyal_mul(a, b)
    for da, pa in parts_a.items():
        for db, pb in parts_b.items():
            sign = -1 if da % 2 and db % 2 else 1
            out = out - sm.moyal_mul(SymElement(pb), SymElement(pa)).scale(sign)
    return out


def test_star_commutator_matches_the_homogeneous_parts_definition():
    # the parity split of star_commutator against the sum over homogeneous parts,
    # on elements with parts of several even and several odd degrees
    rng = random.Random(62)
    mixed = nonzero = 0
    for sm in (sym_kg(), sym_kg(kappa=Fraction(1, 2), mass_sq=Fraction(1)), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for i in range(12):
            a, b = random_elem(rng, gens, 4, 10), random_elem(rng, gens, 4, 10)
            if i % 3 == 2:
                a = a.scale(IH + Fraction(1, 3))
            got = sm.star_commutator(a, b)
            want = homogeneous_commutator(sm, a, b)
            assert got.terms == want.terms
            assert _coeff_types(got) == _coeff_types(want)
            degrees = [{word_degree(w) for w in e.terms} for e in (a, b)]
            mixed += all(len({d for d in ds if d % 2 == r}) >= 2 for ds in degrees for r in (0, 1))
            nonzero += bool(got)
    assert mixed >= 5 and nonzero >= 20


def test_moyal_naturality_under_time_translation():
    sm = sym_kg()
    gens = window_gens(sm, 0, 1, range(0, 2))

    def shift_gen(g, dt):
        deg, t, x, f = g
        return (deg, t + dt, x, f)

    def shift_elem(e, dt):
        return SymElement({tuple(shift_gen(g, dt) for g in w): c for w, c in e.items()})

    rng = random.Random(9)
    for _ in range(8):
        a = random_elem(rng, gens, 2)
        b = random_elem(rng, gens, 2)
        assert shift_elem(sm.moyal_mul(a, b), 3) == sm.moyal_mul(shift_elem(a, 3), shift_elem(b, 3))


def _dense_elem(gens):
    """Every normalized word of length 1 or 2 on gens, with coefficients
    cycling through 1, -1/2, 2/3."""
    coeffs = (1, Fraction(-1, 2), Fraction(2, 3))
    words = {(g,) for g in gens}
    words.update(normalize([g, h])[0] for g, h in itertools.combinations_with_replacement(gens, 2))
    words.discard(None)
    return SymElement({w: coeffs[i % 3] for i, w in enumerate(sorted(words))})


def _coeff_types(e):
    return {w: type(c) for w, c in e.items()}


@pytest.mark.parametrize("model", ["kg-massive", "maxwell2d"])
def test_deformed_mul_matches_the_exp_bider_reference(model):
    # mu_h and mu_D order by order (symalg.deformed_mul) against
    # mu o exp(pref <-,->_tau)(a (x) b) built in the tensor square
    if model == "maxwell2d":
        sm = sym_mw()
    else:
        sm = sym_kg(kappa=Fraction(1, 2), mass_sq=Fraction(1))
    rng = random.Random(61)
    gens = window_gens(sm, -1, 1, range(-1, 2))
    pairs = [(random_elem(rng, gens, 4, 3), random_elem(rng, gens, 4, 3)) for _ in range(12)]
    # HScalar coefficients: products of products
    x, y, z, w = (random_elem(rng, gens, 2, 2) + SymElement.of_gen(g) for g in gens[:4])
    x = x.scale(IH + Fraction(1, 3))
    pairs.append((sm.moyal_mul(x, y), sm.dirac_mul(z, w)))
    pairs.append((sm.dirac_mul(sm.moyal_mul(x, y), z), sm.moyal_mul(w, sm.dirac_mul(y, x))))
    dense = _dense_elem(window_gens(sm, 0, 1, [0] if model == "maxwell2d" else [0, 1]))
    pairs.append((dense, dense.scale(Fraction(3, 2))))
    assert any(type(c) is HScalar for a, b in pairs for c in list(a.terms.values()) + list(b.terms.values()))
    assert len(dense.terms) >= 40
    orders = Counter()
    for tau, pref in ((sm.tau_0, IH * Fraction(1, 2)), (sm.tau_d, IH)):
        for a, b in pairs:
            got = deformed_mul(tau, a, b, pref)
            want = tensor_mu(exp_bider(tau, TensorElement.of(a, b), pref))
            assert got.terms == want.terms
            assert _coeff_types(got) == _coeff_types(want)
            orders[max((len(u_coeffs(c)) - 1 for c in got.terms.values()), default=-1)] += 1
    # some products end at u^1, some reach u^2 or higher
    assert orders[1] and sum(n for k, n in orders.items() if k >= 2)


# -- Einstein causality ---------------------------------------------------------


def test_einstein_causality_disjoint_diamonds():
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        r1 = causal_hull(lattice, [(0, 0), (2, 0)])
        r2 = causal_hull(lattice, [(0, 10), (2, 10)])
        assert causally_disjoint(r1, r2)
        g1s = sm.generators_in_region(r1)
        g2s = sm.generators_in_region(r2)
        for g1 in g1s:
            for g2 in g2s:
                comm = sm.star_commutator(SymElement.of_gen(g1), SymElement.of_gen(g2))
                assert not comm
        # a couple of longer words as well
        rng = random.Random(10)
        for _ in range(5):
            a = SymElement({random_word_of(rng, g1s, 3): 1})
            b = SymElement({random_word_of(rng, g2s, 3): 1})
            assert not sm.star_commutator(a, b)


def test_einstein_causality_counter_test():
    sm = sym_kg()
    lattice = sm.model.lattice
    r1 = causal_hull(lattice, [(0, 0)])
    r2 = causal_hull(lattice, [(2, 1)])
    assert not causally_disjoint(r1, r2)
    found = any(
        sm.star_commutator(SymElement.of_gen(g1), SymElement.of_gen(g2))
        for g1 in sm.generators_in_region(r1)
        for g2 in sm.generators_in_region(r2)
    )
    assert found


# -- Dirac multiplication --------------------------------------------------------


def test_dirac_single_contraction():
    sm = sym_kg()
    gens = window_gens(sm, 0, 2, range(0, 2))
    for g1 in gens[:6]:
        for g2 in gens[:6]:
            a, b = SymElement.of_gen(g1), SymElement.of_gen(g2)
            expected = mul(a, b) + SymElement.unit(sm.tau_d(g1, g2) * IH)
            assert sm.dirac_mul(a, b) == expected


def test_dirac_commutative():
    rng = random.Random(11)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(10):
            w1 = random_word_of(rng, gens, 3)
            w2 = random_word_of(rng, gens, 3)
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            sign = -1 if (word_degree(w1) % 2) and (word_degree(w2) % 2) else 1
            assert sm.dirac_mul(a, b) == sm.dirac_mul(b, a).scale(sign)


def test_dirac_associative_and_unital():
    rng = random.Random(12)
    sm = sym_kg()
    gens = window_gens(sm, -1, 1, range(-1, 2))
    for _ in range(8):
        a, b, c = (random_elem(rng, gens, 3) for _ in range(3))
        assert sm.dirac_mul(sm.dirac_mul(a, b), c) == sm.dirac_mul(a, sm.dirac_mul(b, c))
        assert sm.dirac_mul(SymElement.unit(), a) == a


def test_dirac_not_chain_map_witness():
    # exhibit a pair where Q(mu_D(a,b)) != mu_D(Qa, b) ± mu_D(a, Qb)
    sm = sym_kg()
    field = (-1, 0, 0, 0)
    anti = (0, 0, 0, 0)
    a, b = SymElement.of_gen(field), SymElement.of_gen(anti)
    sign = -1 if field[0] % 2 else 1
    lhs = sm.q_sym(sm.dirac_mul(a, b))
    rhs = sm.dirac_mul(sm.q_sym(a), b) + sm.dirac_mul(a, sm.q_sym(b)).scale(sign)
    assert lhs != rhs


# -- AQFT time-ordered products and their Dirac-multiplication form --------------


def test_fa_product_unary_and_empty():
    sm = sym_kg()
    r = causal_hull(sm.model.lattice, [(0, 0)])
    a = SymElement.of_gen(sm.generators_in_region(r)[0])
    assert fa_product(sm, [], []) == SymElement.unit()
    assert fa_product(sm, [r], [a]) == a


def test_fa_product_independent_of_ordering_for_disjoint():
    rng = random.Random(13)
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        r1 = causal_hull(lattice, [(0, 0), (2, 0)])
        r2 = causal_hull(lattice, [(0, 10), (2, 10)])
        assert causally_disjoint(r1, r2)
        g1s, g2s = sm.generators_in_region(r1), sm.generators_in_region(r2)
        for _ in range(6):
            a = SymElement({random_word_of(rng, g1s, 2): 1})
            b = SymElement({random_word_of(rng, g2s, 2): 1})
            one_way = fa_product(sm, [r1, r2], [a, b], rho=(0, 1))
            other = fa_product(sm, [r1, r2], [a, b], rho=(1, 0))
            assert one_way == other


def test_fa_equals_dirac_products_on_time_orderable_tuples():
    # the AQFT time-ordered products can be computed with mu_D, n <= 3
    rng = random.Random(14)
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        regions = _regions_stacked(lattice, (8, 0), (4, 3), (0, 0))
        pools = [sm.generators_in_region(r) for r in regions]
        for n in (2, 3):
            for _ in range(6):
                elems = [SymElement({random_word_of(rng, pools[i], 2): 1}) for i in range(n)]
                lhs = dirac_nary(sm, elems)
                rhs = fa_product(sm, regions[:n], elems)
                assert lhs == rhs


def test_pair_d_power_equals_half_pair_0_power_on_time_ordered():
    # <-,->_D^k = (1/2 <-,->_0)^k on images from a time-ordered pair, k <= 3
    rng = random.Random(15)
    sm = sym_kg()
    lattice = sm.model.lattice
    later, earlier = _regions_stacked(lattice, (4, 0), (0, 0))
    g1s, g2s = sm.generators_in_region(later), sm.generators_in_region(earlier)
    for _ in range(8):
        a = SymElement({random_word_of(rng, g1s, 3): 1})
        b = SymElement({random_word_of(rng, g2s, 3): 1})
        te = TensorElement.of(a, b)
        lhs = te
        rhs = te
        for k in range(1, 4):
            lhs = bider_tensor(sm.tau_d, lhs)
            rhs = bider_tensor(sm.tau_0, rhs).scale(Fraction(1, 2))
            assert lhs == rhs


# -- comparison map ---------------------------------------------------------------


def test_time_ordering_map_small_cases():
    sm = sym_kg()
    gens = window_gens(sm, 0, 2, range(0, 2))
    for g in gens[:4]:
        v = SymElement.of_gen(g)
        assert sm.time_ordering(v) == v
    for g1 in gens[:4]:
        for g2 in gens[:4]:
            w, sign = normalize([g1, g2])
            if w is None:
                continue
            elem = SymElement({w: 1})
            expected = elem + SymElement.unit(sm.tau_d(g1, g2) * IH * sign)
            assert sm.time_ordering(elem) == expected


def test_time_ordering_map_invertible():
    rng = random.Random(16)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(10):
            a = random_elem(rng, gens, 6)
            assert sm.time_ordering(sm.time_ordering(a), -1) == a
            assert sm.time_ordering(sm.time_ordering(a, -1), 1) == a


def test_comparison_chain_map():
    # Q o T = T o Q_h on delta-basis words up to length 4
    rng = random.Random(17)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for length in (1, 2, 3, 4):
            for _ in range(6):
                w = random_word_of(rng, gens, length, min_len=length)
                elem = SymElement({w: 1})
                lhs = sm.q_sym(sm.time_ordering(elem))
                rhs = sm.time_ordering(sm.q_hbar(elem))
                assert lhs == rhs


def test_comparison_multiplicative():
    # T(a b) = mu_D(T a, T b)
    rng = random.Random(18)
    for sm in (sym_kg(), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        for _ in range(10):
            a = random_elem(rng, gens, 3)
            b = random_elem(rng, gens, 3)
            assert sm.time_ordering(mul(a, b)) == sm.dirac_mul(
                sm.time_ordering(a), sm.time_ordering(b)
            )


def test_comparison_intertwines_tuple_products():
    # T o F(tuple) = F_A(tuple) o (T (x) ... (x) T) for lengths 0..4
    rng = random.Random(19)
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        regions_all = _regions_stacked(lattice, (12, 0), (8, 3), (4, 0), (0, 3))
        pools = [sm.generators_in_region(r) for r in regions_all]
        for n in (0, 1, 2, 3, 4):
            regions = regions_all[:n]
            reps = 4 if n else 1
            for _ in range(reps):
                elems = [SymElement({random_word_of(rng, pools[i], 2): 1}) for i in range(n)]
                lhs = sm.time_ordering(tpfa_product(sm, regions, elems))
                t_elems = [sm.time_ordering(e) for e in elems]
                rhs = fa_product(sm, regions, t_elems)
                assert lhs == rhs


def test_comparison_tuples_match_factorized_route():
    # evaluating through the hull factorization gives the same products
    rng = random.Random(20)
    sm = sym_kg()
    lattice = sm.model.lattice
    from latticebv.lattice import factorize_tuple

    regions = _regions_stacked(lattice, (8, 0), (4, 3), (0, 0))
    pools = [sm.generators_in_region(r) for r in regions]
    for _ in range(5):
        elems = [SymElement({random_word_of(rng, pools[i], 2): 1}) for i in range(3)]
        hull, inner, outer = factorize_tuple(regions)
        inner_prod = tpfa_product(sm, inner, elems[:-1])
        via_fact = tpfa_product(sm, [hull, regions[-1]], [inner_prod, elems[-1]])
        direct = tpfa_product(sm, regions, elems)
        assert via_fact == direct
        inner_fa = fa_product(sm, inner, elems[:-1])
        via_fact_fa = fa_product(sm, [hull, regions[-1]], [inner_fa, elems[-1]])
        direct_fa = fa_product(sm, regions, elems)
        assert via_fact_fa == direct_fa


# -- filtration and time-slice -----------------------------------------------------


def test_filtration_preserved():
    rng = random.Random(21)
    sm = sym_kg()
    gens = window_gens(sm, -1, 1, range(-1, 2))
    for p in (0, 1, 2, 3):
        for _ in range(6):
            w = random_word_of(rng, gens, p, min_len=p)
            res = filtration_defects(sm, w)
            assert res["graded_matches_classical"]
            assert res["only_allowed_lengths"]


def test_filtration_p2_unit_component_is_bv_only():
    sm = sym_kg()
    g1 = (-1, 0, 0, 0)
    g2 = (0, 0, 0, 0)
    w, sign = normalize([g1, g2])
    elem = SymElement({w: 1})
    image = sm.q_hbar(elem)
    unit_part = image.terms.get((), None)
    bv = sm.delta_bv(elem).scale(IH)
    assert unit_part == bv.terms.get(())
    graded = SymElement({u: c for u, c in image.items() if len(u) == 2})
    assert graded == sm.q_sym(elem)


def test_sym_power_homotopies_certify_time_slice():
    rng = random.Random(22)
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        region = slab(lattice, -4, 4)
        cutoff = CutoffData(0)
        eta_fn = gen_map(sm, homotopy_eta, cutoff)
        fg_fn = gen_map(sm, quasi_inverse_g, cutoff)
        ambient_gens = window_gens(sm, -3, 3, range(0, 2))
        slab_gens = [g for g in ambient_gens if region.contains(Point(g[1], g[2]))]
        for p in (1, 2, 3):
            for _ in range(4):
                w = random_word_of(rng, ambient_gens, p, min_len=p)
                assert not sym_power_homotopy_defect(sm, eta_fn, fg_fn, w)
            for _ in range(4):
                w = random_word_of(rng, slab_gens, p, min_len=p)
                assert not sym_power_homotopy_defect(sm, eta_fn, fg_fn, w)


def reference_sym_power_homotopy(eta_fn, f_fn, word):
    """H_p(word) as its defining sum: 1/p! times the sum over every order of
    the word, with its Koszul sign, of F on the first k factors, eta on the
    next and the identity on the rest, for k = 0 .. p-1."""
    p = len(word)
    out = SymElement()
    for perm in itertools.permutations(range(p)):
        sign = 1
        for i, j in itertools.combinations(range(p), 2):
            if perm[i] > perm[j] and word[perm[i]][0] % 2 and word[perm[j]][0] % 2:
                sign = -sign
        gens = [word[k] for k in perm]
        for k in range(p):
            eta_sign = -1 if sum(g[0] for g in gens[:k]) % 2 else 1
            factors = [f_fn(g) for g in gens[:k]] + [eta_fn(gens[k])]
            factors += [SymElement.of_gen(g) for g in gens[k + 1 :]]
            prod = SymElement.unit()
            for factor in factors:
                prod = mul(prod, factor)
            out = out + prod.scale(Fraction(sign * eta_sign, math.factorial(p)))
    return out


@pytest.mark.parametrize("model", ["kg-massive", "maxwell2d"])
def test_sym_power_homotopy_matches_permutation_sum(model):
    # the collapsed sum over (eta slot, F slots), which returns p! H_p,
    # against p! times the p!-term symmetrization it replaces, up to p = 4
    if model == "maxwell2d":
        sm = sym_mw()
    else:
        sm = sym_kg(kappa=Fraction(1, 2), mass_sq=Fraction(1))
    rng = random.Random(31)
    cutoff = CutoffData(0)
    eta_fn = gen_map(sm, homotopy_eta, cutoff)
    fg_fn = gen_map(sm, quasi_inverse_g, cutoff)
    gens = window_gens(sm, -3, 3, range(0, 2))
    nonzero = 0
    for p in (1, 2, 3, 4):
        for _ in range(6):
            w = random_word_of(rng, gens, p, min_len=p)
            h = sym_power_homotopy(sm, eta_fn, fg_fn, w)
            assert h == reference_sym_power_homotopy(eta_fn, fg_fn, w).scale(math.factorial(p)), w
            nonzero += bool(h)
    assert nonzero >= 12


def unscaled_sym_power_defect(sm, eta_fn, f_fn, word):
    """d(H_p) - (id - Sym^p F) on a word, from the permutation-sum H_p."""
    elem = SymElement({word: 1})
    out = sm.q_sym(reference_sym_power_homotopy(eta_fn, f_fn, word))
    for w2, c in sm.q_sym(elem).items():
        out = out + reference_sym_power_homotopy(eta_fn, f_fn, w2).scale(c)
    return out - elem + sym_map(f_fn, elem)


@pytest.mark.parametrize("model", ["kg", "kg-massive", "maxwell2d"])
def test_scaled_sym_power_defect_is_p_factorial_times_unscaled(model):
    # the certificate checks p! times the defect, with integer weights; with
    # F = 2 f g in place of f g the defect does not vanish, so the factor shows
    sm = {"kg": sym_kg, "maxwell2d": sym_mw,
          "kg-massive": lambda: sym_kg(kappa=Fraction(1, 2), mass_sq=Fraction(1))}[model]()
    rng = random.Random(33)
    cutoff = CutoffData(0)
    eta_fn = gen_map(sm, homotopy_eta, cutoff)
    fg_fn = gen_map(sm, quasi_inverse_g, cutoff)
    gens = window_gens(sm, -3, 3, range(0, 2))
    nonzero = 0
    for p in (1, 2, 3, 4):
        w = random_word_of(rng, gens, p, min_len=p)
        for f_fn in (fg_fn, lambda g: fg_fn(g).scale(2)):
            scaled = sym_power_homotopy_defect(sm, eta_fn, f_fn, w)
            assert scaled == unscaled_sym_power_defect(sm, eta_fn, f_fn, w).scale(math.factorial(p)), w
            nonzero += bool(scaled)
        assert not sym_power_homotopy_defect(sm, eta_fn, fg_fn, w)
    assert nonzero >= 3


@pytest.mark.parametrize("model", ["kg", "maxwell2d"])
def test_time_slice_check_fails_with_a_wrong_weight(monkeypatch, model):
    # the weight 1/p in place of |S|!(p-1-|S|)! (over p!) breaks H_p for
    # p >= 2, and time-slice-sym-powers, the one check that uses H_p, fails
    config = merge_config(DEFAULT_CONFIG, {
        "model": model, "suites": ["quantization"],
        "windows": {"homotopy_t": [-2, 2]}, "samples": {"timeslice_words": 2},
    })
    assert all(rec.passed for rec in run_suites(config))
    monkeypatch.setattr(quantize, "_slot_weight", lambda sign, p, k: Fraction(sign, p))
    broken = [rec for rec in run_suites(config) if not rec.passed]
    assert [rec.identity for rec in broken] == ["time-slice-sym-powers"]
    assert broken[0].witness.startswith("p=2: ")


def test_sym_layer_accumulates_in_place(monkeypatch):
    # a deterministic work count, not a timing: the Sym-layer loops add
    # into one accumulator, so none of them may build a + b or a - b
    calls = Counter()
    for name in ("__add__", "__sub__"):
        original = getattr(Combination, name)

        def counted(a, b, original=original, name=name):
            calls[name] += 1
            return original(a, b)

        monkeypatch.setattr(Combination, name, counted)
    SymElement.unit() + SymElement.unit() - SymElement.unit()
    assert calls == Counter({"__add__": 1, "__sub__": 1})
    calls.clear()

    sm = sym_mw()
    rng = random.Random(51)
    gens = window_gens(sm, -1, 1, range(0, 2))
    word = random_word_of(rng, gens, 4, min_len=4)
    assert sm.q_sym(SymElement({word: 1}))
    te = TensorElement()
    while not bider_tensor(sm.tau_0, te):  # draw until some pair contracts
        a = SymElement({random_word_of(rng, gens, 3, min_len=3): 1})
        b = SymElement({random_word_of(rng, gens, 3, min_len=3): sym_coeff(Fraction(2, 3))})
        te = TensorElement.of(a, b)
    assert exp_bider(sm.tau_0, te, IH) != te
    assert sm.moyal_mul(a, b) != mul(a, b)
    cutoff = CutoffData(0)
    eta_fn = gen_map(sm, homotopy_eta, cutoff)
    fg_fn = gen_map(sm, quasi_inverse_g, cutoff)
    word = random_word_of(rng, window_gens(sm, -3, 3, range(0, 2)), 3, min_len=3)
    assert sym_power_homotopy(sm, eta_fn, fg_fn, word)
    assert not sym_power_homotopy_defect(sm, eta_fn, fg_fn, word)
    assert calls == Counter()


def test_green_window_outside_support_is_zero():
    sm = sym_kg()
    from latticebv.bvtheory import Section
    delta = Section.delta(0, Point(0, 0))
    assert not sm.model.green(1).apply(delta, -6, -1)
    assert not sm.model.green(-1).apply(delta, 1, 6)


def _translation_class(lattice, g1, g2):
    # degrees, fibers and the offset of g2 from g1 as a point of the cylinder
    return (g1[0], g1[3], g2[0], g2[3], lattice.point(g2[1] - g1[1], g2[2] - g1[2]))


def _count_evaluations(oracle, counts, key_of):
    """Wrap oracle.evaluate so that each run adds one to counts[key_of(g1, g2)]."""
    evaluate = oracle.evaluate

    def counted(g1, g2):
        counts[key_of(g1, g2)] += 1
        return evaluate(g1, g2)

    oracle.evaluate = counted


def test_gen_oracles_match_section_level_pairings():
    # Every generator pair of a window that straddles the ring seam
    # (x in [N-2, N+1], t in [-1, 1]): the oracles, cached by translation
    # class, against the section-level pairings; each evaluator runs exactly
    # once per class
    n_sites = 21
    lattice = Lattice(n_sites)
    for model in (
        klein_gordon(lattice, kappa=Fraction(1, 2), mass_sq=Fraction(1)),
        klein_gordon(lattice, mass_sq=Fraction(1, 2)),
        maxwell2d(lattice),
        klein_gordon(lattice, metric_flip=True),
    ):
        sm = SymModel(model)
        oracles = ((sm.tau_m1, tau_minus1), (sm.tau_0, tau_0), (sm.tau_d, tau_dirac))
        runs = [Counter() for _ in oracles]
        for (oracle, _), counts in zip(oracles, runs):
            _count_evaluations(oracle, counts, lambda g1, g2: _translation_class(lattice, g1, g2))
        gens = window_gens(sm, -1, 1, range(n_sites - 2, n_sites + 2))
        classes = {_translation_class(lattice, g1, g2) for g1 in gens for g2 in gens}
        assert len(classes) < len(gens) ** 2
        for g1 in gens:
            s1 = gen_to_section(g1)
            for g2 in gens:
                s2 = gen_to_section(g2)
                for oracle, section_level in oracles:
                    assert oracle(g1, g2) == section_level(model, s1, s2)
        for counts in runs:
            assert counts.keys() == classes
            assert set(counts.values()) == {1}


def _value_at_sums(sm, g1, g2):
    """(<<g1, L+ g2>>, <<g1, L- g2>>) by the reference route: W applied to
    the delta of g2, then GreenSolver.value_at at g1 per metric entry."""
    model = sm.model
    n1 = g1[0] + 1
    mat = model.metric.blocks.get(n1)
    if mat is None or 1 - n1 not in model.ranks:
        return 0, 0
    w_psi = model.w_op.apply(gen_to_section(g2), model.lattice)
    point = Point(g1[1], g1[2])
    return tuple(
        sum(model.green(d).value_at(w_psi, 1 - n1, point, j) * c for j, c in enumerate(mat[g1[3]]) if c)
        for d in (1, -1)
    )


def test_lambda_values_match_value_at_sums():
    # The slice-table route of SymModel._lambda_values against value_at, on
    # every translation class of a window that straddles the ring seam of 21
    # sites, with one slot reaching a time step past the window (the Q images
    # that the boundary checks pair); kg with kappa 1/2 and m^2 1 gives
    # Fraction values
    seam = range(19, 23)
    for sm in (sym_kg(kappa=Fraction(1, 2), mass_sq=Fraction(1)), sym_mw()):
        lattice = sm.model.lattice
        gens, wider = window_gens(sm, -1, 1, seam), window_gens(sm, -2, 2, seam)
        pairs = [*lattice.class_pairs(wider, gens), *lattice.class_pairs(gens, wider)]
        values = []
        for _, g1, g2 in pairs:
            value = sm._lambda_values(g1, g2)
            assert value == _value_at_sums(sm, g1, g2), (g1, g2)
            values += value
        assert {abs(g1[1] - g2[1]) for _, g1, g2 in pairs} == {0, 1, 2, 3}
        assert any(values)
        if sm.model.name == "kg":
            assert any(type(v) is Fraction and v.denominator > 1 for v in values)


def test_lambda_values_solve_no_slice_for_a_degree_forbidden_pair(monkeypatch):
    # L± delta_g2 lives in bundle degree |g2| + 1 + deg W, so a g1 whose dual
    # degree 1 - (|g1| + 1) is another reads (0, 0) and solves no slice (that
    # the causal config's slices are the same on 21 and 201 sites is checked
    # by test_pairing_and_cut_solves_once_per_translation_class)
    asked = []
    lambda_slices = SymModel._lambda_slices

    def recorded(sm, n, f, dt):
        asked.append((n, f, dt))
        return lambda_slices(sm, n, f, dt)

    monkeypatch.setattr(SymModel, "_lambda_slices", recorded)
    for sm in (sym_kg(kappa=Fraction(1, 2), mass_sq=Fraction(1)), sym_mw()):
        lattice, w_shift = sm.model.lattice, sm.model.w_op.degree_shift
        gens = window_gens(sm, -1, 1, range(-1, 2))
        allowed = 0
        for _, g1, g2 in lattice.class_pairs(gens, gens):
            del asked[:]
            value = sm._lambda_values(g1, g2)
            if -g1[0] != g2[0] + 1 + w_shift:
                assert value == (0, 0) and not asked, (g1, g2)
            else:
                allowed += bool(asked)
        assert allowed


# the flipped-metric failure-injection config of the benchmark's probe
FLIPPED_METRIC_PROBE = {
    "model": "kg",
    "seed": 11,
    "model_params": {"metric_flip": True},
    "regions": {"slab": {"kind": "slab", "t": [-3, 3]}},
}


@pytest.mark.parametrize(
    "override",
    [
        {"model": "kg"},
        {"model": "kg", "model_params": {"kappa": "1/2", "mass_sq": "1"}},
        {"model": "maxwell2d"},
        FLIPPED_METRIC_PROBE,
    ],
)
def test_lattice_pairings_vanish_off_degree(override):
    # the degree rule that the closed-form biderivation and Laplacian rely on
    # when they skip pairs: tau of degree p vanishes on g1, g2 unless
    # |g1| + |g2| + p = 0, on every class pair of the basis window.  The
    # oracles return 0 off degree without a delta pairing, so the off-degree
    # pairs are also read through the section-level pairings of the deltas.
    bundle = ModelBundle(merge_config(DEFAULT_CONFIG, override))
    sm, gens = bundle.sym, bundle.gens_window()
    routes = ((sm.tau_m1, tau_minus1), (sm.tau_0, tau_0), (sm.tau_d, tau_dirac))
    for tau, section_tau in routes:
        off = nonzero = 0
        for _, g1, g2 in bundle.lattice.class_pairs(gens, gens):
            val = tau(g1, g2)
            if g1[0] + g2[0] + tau.degree != 0:
                off += 1
                assert not val, (tau.name, g1, g2)
                assert not section_tau(sm.model, gen_to_section(g1), gen_to_section(g2)), (tau.name, g1, g2)
            else:
                nonzero += bool(val)
        assert off and nonzero, tau.name


def test_pairing_and_cut_solves_once_per_translation_class(monkeypatch):
    # Deterministic, no timing: maxwell2d structures and theorems suites on
    # the benchmark's causal windows (3x3 basis window, 3-slice slab).  Each
    # oracle evaluates at most once per translation class of its model, over
    # both suites together (the theorem checks read the same oracles, the
    # counterexample's massive kg model its own), each tau_0 and tau_D
    # evaluation reads its pair of Green values once, from slices of L± of
    # the origin delta solved once per (degree, fiber, time offset,
    # direction), and eta and g solve a delta directly at most once per
    # (degree, t - t0, fiber); the theorems suite solves nothing else; the
    # number of each is the same on 21 and on 201 sites
    runs: Counter = Counter()
    outside = []  # Green solves of the theorems suite outside slices, eta and g
    sym_init = SymModel.__init__
    lambda_values = SymModel._lambda_values
    lambda_slices = SymModel._lambda_slices
    green_apply = bvtheory.GreenSolver.apply
    theorems = suites.SUITES["theorems"]
    # the theorems suite, the oracle evaluation, and the slice entry or eta
    # or g solve, being run
    stack = []

    def within(entry, fn, *args):
        stack.append(entry)
        try:
            return fn(*args)
        finally:
            stack.pop()

    def counted_lambda_values(sm, g1, g2):
        # keyed by the oracle whose evaluation runs it
        oracle = stack[-1][0] if stack else None
        runs[("L", oracle, sm.model.name, _translation_class(sm.model.lattice, g1, g2))] += 1
        return lambda_values(sm, g1, g2)

    def tracked_lambda_slices(sm, n, f, dt):
        return within(("slice", sm.model.name, n, f, dt), lambda_slices, sm, n, f, dt)

    def counted_apply(solver, source, t_lo, t_hi):
        if stack and stack[-1][0] == "slice":
            runs[(*stack[-1], solver.direction)] += 1
        elif stack[:1] == [("theorems",)] and stack[-1][0] not in ("eta", "g"):
            outside.append((solver.direction, t_lo, t_hi))
        return green_apply(solver, source, t_lo, t_hi)

    def init(sm, model):
        sym_init(sm, model)
        for oracle in (sm.tau_m1, sm.tau_0, sm.tau_d):
            _count_evaluations(
                oracle,
                runs,
                lambda g1, g2, name=oracle.name: (
                    name, model.name, _translation_class(model.lattice, g1, g2)
                ),
            )
            oracle.evaluate = lambda g1, g2, name=oracle.name, ev=oracle.evaluate: within(
                (name,), ev, g1, g2
            )

    def counted_solve(name, solve):
        def counted(model, cutoff, delta):
            ((n, t, _, f),) = delta.data
            runs[(name, n, t - cutoff.t0, f)] += 1
            return within((name,), solve, model, cutoff, delta)

        return counted

    monkeypatch.setattr(SymModel, "__init__", init)
    monkeypatch.setattr(SymModel, "_lambda_values", counted_lambda_values)
    monkeypatch.setattr(SymModel, "_lambda_slices", tracked_lambda_slices)
    monkeypatch.setattr(bvtheory.GreenSolver, "apply", counted_apply)
    monkeypatch.setattr(bvtheory, "_eta_of_delta", counted_solve("eta", bvtheory._eta_of_delta))
    monkeypatch.setattr(bvtheory, "_g_of_delta", counted_solve("g", bvtheory._g_of_delta))
    monkeypatch.setitem(suites.SUITES, "theorems", lambda bundle: within(("theorems",), theorems, bundle))
    totals = []
    for n_sites in (21, 201):
        runs.clear()
        config = merge_config(
            DEFAULT_CONFIG,
            {
                "model": "maxwell2d",
                "lattice": {"n_sites": n_sites},
                "suites": ["structures", "theorems"],
                "windows": {"basis_t": [-1, 1], "basis_x": [-1, 1], "homotopy_t": [-1, 1]},
                "regions": {"slab": {"kind": "slab", "t": [-1, 1]}},
            },
        )
        records = run_suites(config)
        assert records and all(rec.passed for rec in records)
        assert set(runs.values()) == {1}
        assert not outside
        assert {key[1] for key in runs if key[0] in ("tau_0", "tau_D")} == {"maxwell2d", "kg"}
        assert {key[1] for key in runs if key[0] == "L"} == {"tau_0", "tau_D"}
        totals.append(Counter(key[0] for key in runs))
    assert totals[0] == totals[1]
    assert totals[0].keys() == {"tau_m1", "tau_0", "tau_D", "L", "slice", "eta", "g"}


@pytest.mark.parametrize("model", ["kg", "maxwell2d"])
def test_theorem_check_fails_with_its_delta_pair_witness(monkeypatch, model):
    # causality-vanishing reads tau_0 from the class-keyed oracle; a value
    # of 1 on the first class of the disjoint pair fails it, with that
    # pair of deltas as witness
    config = merge_config(DEFAULT_CONFIG, {"model": model, "suites": ["theorems"]})
    bundle = ModelBundle(config)
    r1, r2 = bundle.regions["disjoint_pair"]
    sm = bundle.sym
    target, g1, g2 = next(
        bundle.lattice.class_pairs(sm.generators_in_region(r1), sm.generators_in_region(r2))
    )
    ev_0 = SymModel._ev_0

    def planted(sm, h1, h2):
        return 1 if sm.model.lattice.class_key(h1, h2) == target else ev_0(sm, h1, h2)

    monkeypatch.setattr(SymModel, "_ev_0", planted)
    (record,) = [rec for rec in run_suites(config) if rec.identity == "causality-vanishing"]
    assert not record.passed
    assert record.witness == suites._fmt_pair(gen_to_section(g1), gen_to_section(g2))


def _class_pair_windows():
    # on 21 sites, a window that straddles the ring seam paired with a window
    # elsewhere; on 5 sites, windows 11 and 8 sites wide, which wrap the ring
    # more than once
    for sm in (sym_kg(), sym_mw()):
        yield sm, window_gens(sm, -1, 1, range(19, 23)), window_gens(sm, 0, 2, range(-1, 2))
    sm = SymModel(klein_gordon(Lattice(5)))
    yield sm, window_gens(sm, -1, 1, range(-3, 8)), window_gens(sm, 0, 1, range(2, 10))


def test_class_pairs_keeps_product_order_one_pair_per_class():
    for sm, gens1, gens2 in _class_pair_windows():
        pairs = list(itertools.product(gens1, gens2))
        lattice = sm.model.lattice
        kept = list(lattice.class_pairs(gens1, gens2))
        # each kept pair comes with its own class key
        assert all(key == lattice.class_key(g1, g2) for key, g1, g2 in kept)
        keys = [_translation_class(lattice, g1, g2) for _, g1, g2 in kept]
        assert len(set(keys)) == len(keys)
        assert set(keys) == {_translation_class(lattice, g1, g2) for g1, g2 in pairs}
        assert len(kept) < len(pairs)
        # kept pairs appear in product order, each the first of its class
        first = {}
        for i, (g1, g2) in enumerate(pairs):
            first.setdefault(_translation_class(lattice, g1, g2), i)
        assert [pairs[i] for i in sorted(first.values())] == [(g1, g2) for _, g1, g2 in kept]


def test_class_key_agrees_with_translation_class():
    # class_key is the oracle's class with its cylinder offset flattened
    for sm, gens1, gens2 in _class_pair_windows():
        lattice = sm.model.lattice
        for g1, g2 in itertools.product(gens1, gens2):
            *labels, offset = _translation_class(lattice, g1, g2)
            assert lattice.class_key(g1, g2) == (*labels, *offset)


# the eleven checks that quantify over translation classes
CLASS_CHECKS = (
    "pairing-shifted-symmetric",
    "pairing-unshifted-antisymmetric",
    "pairing-dirac-symmetric",
    "pairing-dirac-trivializes",
    "pairing-unshifted-cochain",
    "cauchy-zeta-homotopy",
    "causality-vanishing",
    "causality-counterexample",
    "time-ordered-half",
    "time-ordered-half-counterexample",
    "einstein-causality",
)


def _first_failure(cases):
    """What SuiteRunner.check records of the cases: True, or the first
    failing outcome."""
    for outcome in cases:
        if outcome is not True:
            return outcome
    return True


def per_pair_reference(bundle):
    """The eleven checks over every case: every generator pair of the
    window, the uncached d(tau) evaluators, the full delta basis of the
    Cauchy region, every delta pair of the causality and time-ordering
    regions, and every generator pair of the Einstein-causality regions.
    Maps each identity to True or to its first witness."""
    sm, model, lattice = bundle.sym, bundle.model, bundle.lattice
    gens = bundle.gens_window()
    pairs = list(itertools.product(gens, gens))

    def symmetry(tau, s):
        for g1, g2 in pairs:
            base = tau(g1, g2)
            rhs = base if s > 0 else -base
            lhs = tau(g2, g1)
            koszul = -1 if g1[0] % 2 and g2[0] % 2 else 1
            yield (lhs if koszul > 0 else -lhs) == rhs or f"{g1} | {g2}"

    d_tau_d = boundary_pairing(sm.tau_d, sm.qgen).evaluate
    d_tau_0 = boundary_pairing(sm.tau_0, sm.qgen).evaluate
    region = bundle.regions["slab"]
    cutoff = CutoffData(bundle.config["cutoff_t0"])

    def zeta():
        for psi in delta_basis(model, sorted(region.points)):
            term1 = model.q_op.apply(bvtheory.homotopy_zeta(model, cutoff, region, psi), lattice)
            term2 = homotopy_eta(model, cutoff, model.q_op.apply(psi, lattice))
            lhs = (term1 + term2).scale(-1)
            yield lhs == psi - quasi_inverse_g(model, cutoff, psi) or suites._fmt_section(psi)

    def delta_pairs(m, r1, r2):
        return itertools.product(delta_basis(m, sorted(r1.points)), delta_basis(m, sorted(r2.points)))

    def half_holds(m, psi1, psi2):
        return tau_dirac(m, psi1, psi2) == tau_0(m, psi1, psi2) * Fraction(1, 2)

    def vanishing():
        r1, r2 = bundle.regions["disjoint_pair"]
        yield suites.causally_disjoint(r1, r2) or "configured pair is not causally disjoint"
        for psi1, psi2 in delta_pairs(model, r1, r2):
            yield not tau_0(model, psi1, psi2) or suites._fmt_pair(psi1, psi2)

    def vanishing_counter():
        r1, r2 = bundle.regions["connected_pair"]
        yield not suites.causally_disjoint(r1, r2) or "configured pair is causally disjoint"
        yield any(tau_0(model, psi1, psi2) for psi1, psi2 in delta_pairs(model, r1, r2)) or (
            "no nonzero pairing found across causally connected regions"
        )

    def half():
        later, earlier = bundle.regions["stacked_pair"]
        yield suites.is_time_ordered([later, earlier]) or "configured stacked pair is not time-ordered"
        for psi1, psi2 in delta_pairs(model, later, earlier):
            yield half_holds(model, psi1, psi2) or suites._fmt_pair(psi1, psi2)

    def half_counter():
        aux = klein_gordon(lattice, mass_sq=Fraction(1))
        a, b = (suites.parse_region(lattice, lit) for lit in bundle.config["regions"]["nonordered_pair"])
        yield not suites.is_time_ordered([a, b]) or "configured pair is time-ordered"
        yield any(not half_holds(aux, psi1, psi2) for psi1, psi2 in delta_pairs(aux, a, b)) or (
            "no violation found for the non-time-ordered pair"
        )

    def einstein():
        rng = bundle.rng("quant-einstein")
        r1, r2 = bundle.regions["disjoint_pair"]
        g1s, g2s = sm.generators_in_region(r1), sm.generators_in_region(r2)
        for g1, g2 in itertools.product(g1s, g2s):
            commutator = sm.star_commutator(SymElement.of_gen(g1), SymElement.of_gen(g2))
            yield not commutator or f"{g1} | {g2}"
        for _ in range(6):
            a = SymElement({random_word(rng, g1s, 3): 1})
            b = SymElement({random_word(rng, g2s, 3): 1})
            yield not sm.star_commutator(a, b) or f"{suites._fmt_elem(a)} | {suites._fmt_elem(b)}"

    cases = {
        "causality-vanishing": vanishing(),
        "causality-counterexample": vanishing_counter(),
        "time-ordered-half": half(),
        "time-ordered-half-counterexample": half_counter(),
        "pairing-shifted-symmetric": symmetry(sm.tau_m1, 1),
        "pairing-unshifted-antisymmetric": symmetry(sm.tau_0, -1),
        "pairing-dirac-symmetric": symmetry(sm.tau_d, 1),
        "pairing-dirac-trivializes": (
            d_tau_d(g1, g2) == sm.tau_m1(g1, g2) or f"{g1} | {g2}" for g1, g2 in pairs
        ),
        "pairing-unshifted-cochain": (not d_tau_0(g1, g2) or f"{g1} | {g2}" for g1, g2 in pairs),
        "cauchy-zeta-homotopy": zeta(),
        "einstein-causality": einstein(),
    }
    return {identity: _first_failure(c) for identity, c in cases.items()}


CAUSAL_WINDOWS = {
    "suites": ["structures", "theorems", "quantization"],
    "windows": {"basis_t": [-1, 1], "basis_x": [-1, 1], "homotopy_t": [-1, 1]},
    "regions": {"slab": {"kind": "slab", "t": [-1, 1]}},
}


# causally connected regions given as the disjoint pair and non-ordered ones
# as the stacked pair, with the region predicates forced true, so that the
# causality and time-ordering loops fail at a delta pair and the
# Einstein-causality loop at a generator pair
FORCED_REGIONS = {
    "model": "kg",
    "model_params": {"mass_sq": "1"},
    "regions": {
        "disjoint_pair": DEFAULT_CONFIG["regions"]["connected_pair"],
        "stacked_pair": DEFAULT_CONFIG["regions"]["nonordered_pair"],
    },
}
# the same on maxwell2d, whose connected pair has six noncommuting generator
# pairs where kg has one, so that the order of the loop shows in the witness
FORCED_REGIONS_MAXWELL = {"model": "maxwell2d", "regions": FORCED_REGIONS["regions"]}
FORCED_FAILING = {"causality-vanishing", "causality-counterexample", "time-ordered-half",
                  "time-ordered-half-counterexample", "einstein-causality"}
# tau_m1 of maxwell2d raised by 1 on the first class whose degrees tau_m1
# forbids, where the d(tau) checks take d(tau_D) as 0 unevaluated:
# pairing-dirac-trivializes must still read tau_m1 there and fail (the
# class is its own reverse, of even degree, so tau_m1 stays symmetric)
PLANTED_FAILING = {"pairing-dirac-trivializes"}


@pytest.mark.parametrize(
    "override, failing",
    [
        ({"model": "kg", "model_params": {"kappa": "1/2", "mass_sq": "1"}}, set()),
        ({"model": "maxwell2d"}, set()),
        # the flipped-metric probe: the same failing pairs as every pair gives
        (FLIPPED_METRIC_PROBE, {"pairing-shifted-symmetric", "pairing-dirac-trivializes"}),
        (FORCED_REGIONS, FORCED_FAILING),
        (FORCED_REGIONS_MAXWELL, FORCED_FAILING),
        ({"model": "maxwell2d"}, PLANTED_FAILING),
    ],
)
def test_class_quantified_checks_match_per_pair_reference(monkeypatch, override, failing):
    if failing is FORCED_FAILING:
        monkeypatch.setattr(suites, "causally_disjoint", lambda r1, r2: True)
        monkeypatch.setattr(suites, "is_time_ordered", lambda regions: True)
    config = merge_config(merge_config(DEFAULT_CONFIG, CAUSAL_WINDOWS), override)
    if failing is PLANTED_FAILING:
        bundle = ModelBundle(config)
        gens = bundle.gens_window()
        target = next(key for key, g1, g2 in bundle.lattice.class_pairs(gens, gens) if g1[0] + g2[0] + 1)
        ev_m1 = SymModel._ev_m1

        def planted(sm, h1, h2):
            value = ev_m1(sm, h1, h2)
            return value + 1 if sm.model.lattice.class_key(h1, h2) == target else value

        monkeypatch.setattr(SymModel, "_ev_m1", planted)
    records = {rec.identity: rec for rec in run_suites(config)}
    reference = per_pair_reference(ModelBundle(config))
    assert {k for k, v in reference.items() if v is not True} == failing
    for identity in CLASS_CHECKS:
        rec, ref = records[identity], reference[identity]
        assert rec.passed == (ref is True)
        assert rec.witness == (None if ref is True else ref)


@pytest.mark.parametrize(
    "override",
    [{"model": "maxwell2d"}, {"model": "kg", "model_params": {"kappa": "1/2", "mass_sq": "1"}}],
)
def test_boundary_checks_evaluate_d_tau_on_degree_allowed_class_pairs(monkeypatch, override):
    # d(tau) has degree p + 1: the two d(tau) checks evaluate
    # symalg.boundary_pairing on the class pairs whose degrees sum to
    # -(p + 1), in class_pairs order, and on no other pair
    seen = {}
    boundary_pairing = suites.boundary_pairing

    def recorded(tau, dmap):
        d_tau = boundary_pairing(tau, dmap)
        calls = seen.setdefault(tau.name, [])
        evaluate = d_tau.evaluate

        def ev(g1, g2):
            calls.append((g1, g2))
            return evaluate(g1, g2)

        d_tau.evaluate = ev
        return d_tau

    monkeypatch.setattr(suites, "boundary_pairing", recorded)
    config = merge_config(merge_config(DEFAULT_CONFIG, CAUSAL_WINDOWS), {**override, "suites": ["structures"]})
    records = run_suites(config)
    assert records and all(rec.passed for rec in records)
    bundle = ModelBundle(config)
    gens = bundle.gens_window()
    pairs = [(g1, g2) for _, g1, g2 in bundle.lattice.class_pairs(gens, gens)]
    allowed = [(g1, g2) for g1, g2 in pairs if g1[0] + g2[0] + 1 == 0]
    assert 0 < len(allowed) < len(pairs)
    assert seen == {"tau_D": allowed, "tau_0": allowed}


@pytest.mark.parametrize(
    "literal, one_per_slice",
    [
        ({"kind": "slab", "t": [-2, 2]}, True),
        # holds the cut band (whole slices at |t| <= 1 on 9 sites), not all of
        # its slices are whole
        ({"kind": "hull", "seeds": [[-5, 0], [5, 0]]}, False),
    ],
)
def test_zeta_checks_one_delta_per_slice_only_on_x_invariant_regions(monkeypatch, literal, one_per_slice):
    # a slab is closed under x -> x + 1 and gets one delta per (degree, t,
    # fiber); any other region gets every delta
    seen = []
    homotopy_zeta = suites.homotopy_zeta

    def counted(model, cutoff, region, psi):
        ((key, _),) = psi.items()
        seen.append(key)
        return homotopy_zeta(model, cutoff, region, psi)

    monkeypatch.setattr(suites, "homotopy_zeta", counted)
    config = merge_config(
        DEFAULT_CONFIG,
        {"lattice": {"n_sites": 9}, "suites": ["theorems"], "regions": {"slab": literal}},
    )
    bundle = ModelBundle(config)
    region = bundle.regions["slab"]
    every = [key for psi in delta_basis(bundle.model, sorted(region.points)) for key, _ in psi.items()]
    records = {rec.identity: rec for rec in run_suites(config)}
    assert records["cauchy-zeta-homotopy"].passed
    if one_per_slice:
        classes = {(n, t, f) for n, t, _, f in every}
        assert len(seen) == len(classes) < len(every)
        assert {(n, t, f) for n, t, _, f in seen} == classes
    else:
        assert seen == every


def test_comparison_tuples_with_scrambled_listing():
    # the tuple surfaces accept regions in any order; the nontrivial
    # time-ordering permutation exercises the Koszul action on tensor slots
    rng = random.Random(24)
    for sm in (sym_kg(), sym_mw()):
        lattice = sm.model.lattice
        ordered = _regions_stacked(lattice, (12, 0), (8, 3), (4, 0), (0, 3))
        scramble = [2, 0, 3, 1]
        regions = [ordered[i] for i in scramble]
        pools = [sm.generators_in_region(r) for r in regions]
        for n in (2, 3, 4):
            for _ in range(3):
                elems = [SymElement({random_word_of(rng, pools[i], 2): 1}) for i in range(n)]
                lhs = sm.time_ordering(tpfa_product(sm, regions[:n], elems))
                rhs = fa_product(sm, regions[:n], [sm.time_ordering(e) for e in elems])
                assert lhs == rhs


def test_fa_all_orderings_agree_for_mutually_disjoint_triple():
    import itertools

    from latticebv.lattice import causally_disjoint as _disj

    sm = sym_kg()
    lattice = sm.model.lattice
    regions = [
        causal_hull(lattice, [(0, 0), (1, 0)]),
        causal_hull(lattice, [(0, 7), (1, 7)]),
        causal_hull(lattice, [(0, 14), (1, 14)]),
    ]
    for r1, r2 in itertools.combinations(regions, 2):
        assert _disj(r1, r2)
    pools = [sm.generators_in_region(r) for r in regions]
    rng = random.Random(25)
    for _ in range(4):
        elems = [SymElement({random_word_of(rng, pools[i], 2): 1}) for i in range(3)]
        results = {
            str(sorted(fa_product(sm, regions, elems, rho=rho).terms.items(),
                       key=lambda kv: kv[0]))
            for rho in itertools.permutations(range(3))
        }
        assert len(results) == 1

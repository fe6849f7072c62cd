import random
from fractions import Fraction

import pytest

from latticebv.lattice import Lattice, Point, Region, causal_hull, causally_disjoint, make_cutoff, slab
from latticebv.models import klein_gordon, maxwell2d
from latticebv.quantize import (
    SymModel,
    dirac_nary,
    eta_gen_map,
    fa_product,
    filtration_defects,
    q_hbar_tensor,
    quasi_inverse_gen_map,
    sym_power_homotopy_defect,
    tpfa_product,
)
from latticebv.scalars import HBAR, HScalar, I, ONE
from latticebv.symalg import (
    SymElement,
    TensorElement,
    bider_tensor,
    mul,
    normalize,
    tensor_mu,
    word_degree,
)

IH = I * HBAR


def sym_kg(**kw):
    return SymModel(klein_gordon(Lattice(21), **kw))


def sym_mw():
    return SymModel(maxwell2d(Lattice(21)))


def window_gens(sm, t_lo, t_hi, xs):
    return sm.generators_at([Point(t, x) for t in range(t_lo, t_hi + 1) for x in xs])


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
            out = out + SymElement({w: HScalar.of(c)})
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
            elem = SymElement({w: ONE})
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
            a = SymElement({random_word_of(rng, g_later, 2): ONE})
            b = SymElement({random_word_of(rng, g_earlier, 2): ONE})
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
            a, b = SymElement({w1: ONE}), SymElement({w2: ONE})
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
        a, b = SymElement({w1: ONE}), SymElement({w2: ONE})
        defect = sm.star_commutator(a, b) - sm.poisson_bracket(a, b).scale(IH)
        assert not defect.coeff_at_order(0)
        assert not defect.coeff_at_order(1)


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
            a = SymElement({random_word_of(rng, g1s, 3): ONE})
            b = SymElement({random_word_of(rng, g2s, 3): ONE})
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
            a, b = SymElement({w1: ONE}), SymElement({w2: ONE})
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
            a = SymElement({random_word_of(rng, g1s, 2): ONE})
            b = SymElement({random_word_of(rng, g2s, 2): ONE})
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
                elems = [SymElement({random_word_of(rng, pools[i], 2): ONE}) for i in range(n)]
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
        a = SymElement({random_word_of(rng, g1s, 3): ONE})
        b = SymElement({random_word_of(rng, g2s, 3): ONE})
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
            elem = SymElement({w: ONE})
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
                elem = SymElement({w: ONE})
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
                elems = [SymElement({random_word_of(rng, pools[i], 2): ONE}) for i in range(n)]
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
    ambient = Region.all_of(lattice)
    for _ in range(5):
        elems = [SymElement({random_word_of(rng, pools[i], 2): ONE}) for i in range(3)]
        hull, inner, outer = factorize_tuple(regions, ambient)
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
    elem = SymElement({w: ONE})
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
        cutoff = make_cutoff(0)
        eta_fn = eta_gen_map(sm, cutoff)
        fg_fn = quasi_inverse_gen_map(sm, cutoff)
        ambient_gens = window_gens(sm, -3, 3, range(0, 2))
        slab_gens = [g for g in ambient_gens if region.contains(Point(g[1], g[2]))]
        for p in (1, 2, 3):
            for _ in range(4):
                w = random_word_of(rng, ambient_gens, p, min_len=p)
                assert not sym_power_homotopy_defect(sm, eta_fn, fg_fn, w)
            for _ in range(4):
                w = random_word_of(rng, slab_gens, p, min_len=p)
                assert not sym_power_homotopy_defect(sm, eta_fn, fg_fn, w)


def test_green_window_outside_support_is_zero():
    sm = sym_kg()
    from latticebv.bvtheory import Section
    delta = Section.delta(0, Point(0, 0))
    assert not sm.model.green(1).apply(delta, -6, -1)
    assert not sm.model.green(-1).apply(delta, 1, 6)


def test_gen_oracles_match_section_level_pairings():
    from latticebv.bvtheory import tau_0 as tau0_sec, tau_dirac as taud_sec, tau_minus1 as taum1_sec
    from latticebv.quantize import gen_to_section
    for sm in (sym_kg(mass_sq=Fraction(1, 2)), sym_mw()):
        gens = window_gens(sm, -1, 1, range(-1, 2))
        rng = random.Random(23)
        for _ in range(60):
            g1, g2 = rng.choice(gens), rng.choice(gens)
            s1, s2 = gen_to_section(g1), gen_to_section(g2)
            assert sm.tau_m1(g1, g2) == taum1_sec(sm.model, s1, s2)
            assert sm.tau_0(g1, g2) == tau0_sec(sm.model, s1, s2)
            assert sm.tau_d(g1, g2) == taud_sec(sm.model, s1, s2)


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
                elems = [SymElement({random_word_of(rng, pools[i], 2): ONE}) for i in range(n)]
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
        elems = [SymElement({random_word_of(rng, pools[i], 2): ONE}) for i in range(3)]
        results = {
            str(sorted(fa_product(sm, regions, elems, rho=rho).terms.items(),
                       key=lambda kv: kv[0]))
            for rho in itertools.permutations(range(3))
        }
        assert len(results) == 1

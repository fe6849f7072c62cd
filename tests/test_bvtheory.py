import itertools
import random
import sys
from fractions import Fraction

import pytest

from latticebv.bvtheory import (
    FiberMetric,
    FreeBVModel,
    GreenSolver,
    NotGreenHyperbolic,
    Section,
    Stencil,
    StencilEntry,
    delta_basis,
    homotopy_eta,
    homotopy_zeta,
    lambda_diff,
    lambda_dirac,
    lambda_pm,
    quasi_inverse_g,
    check_cutoff_in_region,
    tau_0,
    tau_dirac,
    tau_minus1,
    window_points,
    _eta_of_delta,
    _g_of_delta,
)
from latticebv.lattice import CutoffData, Lattice, Point, causal_hull, causally_disjoint, is_time_ordered, slab
from latticebv.models import klein_gordon, maxwell2d


def kg21(**kw):
    return klein_gordon(Lattice(21), **kw)


def mw21():
    return maxwell2d(Lattice(21))


def pure_time(mass_sq=Fraction(0)):
    return klein_gordon(Lattice(1), kappa=Fraction(0), mass_sq=mass_sq)


def reference_stencil_apply(stencil, section, lattice):
    """The Fraction route for Stencil.apply: one product and one sum of
    rationals per (input term, stencil entry), scanning every entry."""
    out = {}
    for (n, t, x, fin), val in section.items():
        for e in stencil.entries.get(n, ()):
            if e.fin != fin:
                continue
            key = (n + stencil.degree_shift, t - e.dt, (x - e.dx) % lattice.n_sites, e.fout)
            out[key] = out.get(key, 0) + val * e.coeff
    return Section(out)


def random_section(rng, model, points, n_terms=3, degrees=None):
    out = Section()
    degs = degrees if degrees is not None else model.degrees()
    for _ in range(n_terms):
        p = rng.choice(points)
        n = rng.choice(degs)
        f = rng.randrange(model.rank(n))
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        if c:
            out = out + Section.delta(n, model.lattice.point(p.t, p.x), f, c)
    return out


# -- stencils ----------------------------------------------------------------


def test_identity_stencil_and_zero():
    model = kg21()
    ident = Stencil(0, {0: [StencilEntry(0, 0, 0, 0, Fraction(1))]})
    s = Section.delta(0, Point(2, 3), 0, Fraction(5, 2))
    assert ident.apply(s, model.lattice) == s
    assert not ident.apply(Section(), model.lattice)


def test_kg_stencil_on_delta_matches_hand_sum():
    model = kg21(kappa=Fraction(2), mass_sq=Fraction(3))
    s = Section.delta(0, Point(0, 0))
    img = model.q_op.apply(s, model.lattice)
    # output at (t, x) reads input at (t + dt, x + dx): a delta at the origin
    # contributes at the reflected offsets
    expected = (
        Section.delta(1, Point(-1, 0), 0, 1)
        + Section.delta(1, Point(1, 0), 0, 1)
        + Section.delta(1, Point(0, 0), 0, Fraction(-2) + 4 + 3)
        + Section.delta(1, Point(0, 20), 0, -2)
        + Section.delta(1, Point(0, 1), 0, -2)
    )
    assert img == expected
    assert img == reference_stencil_apply(model.q_op, s, model.lattice)


def test_stencil_apply_matches_brute_on_random_sections():
    rng = random.Random(0)
    for model in (kg21(), mw21()):
        pts = window_points(-2, 2, range(-2, 3))
        for _ in range(20):
            s = random_section(rng, model, pts)
            for op in (model.q_op, model.w_op, model.p_op):
                assert op.apply(s, model.lattice) == reference_stencil_apply(op, s, model.lattice)


def test_q_squares_to_zero_as_stencil():
    for model in (kg21(), mw21(), pure_time()):
        assert model.q_op.compose(model.q_op).is_zero()


def test_witness_composition_identities():
    # QWW = WWQ, PW = WP, PQ = QP as exact stencil identities
    for model in (kg21(), mw21()):
        q, w, p = model.q_op, model.w_op, model.p_op
        ww = w.compose(w)
        assert q.compose(ww) == ww.compose(q)
        assert p.compose(w) == w.compose(p)
        assert p.compose(q) == q.compose(p)


def test_maxwell_p_is_componentwise_wave():
    model = mw21()
    kg = kg21(kappa=Fraction(1), mass_sq=Fraction(0))
    wave = kg.q_op.entries[0]  # scalar wave stencil entries
    for deg in model.degrees():
        entries = model.p_op.entries[deg]
        per_fiber = {}
        for e in entries:
            assert e.fin == e.fout
            per_fiber.setdefault(e.fin, []).append((e.dt, e.dx, e.coeff))
        for f, es in per_fiber.items():
            assert sorted(es) == sorted((e.dt, e.dx, e.coeff) for e in wave)


def test_metric_antisymmetry_and_nondegeneracy():
    for model in (kg21(), mw21()):
        assert model.metric.is_graded_antisymmetric()
        assert model.metric.is_nondegenerate()
    assert not klein_gordon(Lattice(21), metric_flip=True).metric.is_graded_antisymmetric()
    assert not maxwell2d(Lattice(21), metric_flip=True).metric.is_graded_antisymmetric()


def test_nondegeneracy_fails_on_a_singular_or_non_square_block():
    invertible = ((0, 1), (1, 0))  # needs a row swap to pivot
    assert FiberMetric({0: invertible, 1: invertible}).is_nondegenerate()
    assert not FiberMetric({0: invertible, 1: ((1, 2), (2, 4))}).is_nondegenerate()
    assert not FiberMetric({0: ((1, 0, 0), (0, 1, 0))}).is_nondegenerate()


def _metric_compat_defect(model, phi1, phi2):
    # <<Q phi1, phi2>> + (-1)^{bundle degree phi1} <<phi1, Q phi2>> over
    # homogeneous parts
    lattice = model.lattice
    acc = 0
    for n in model.degrees():
        part = Section({k: v for k, v in phi1.items() if k[0] == n})
        if not part:
            continue
        q1 = model.q_op.apply(part, lattice)
        acc = acc + model.int_pairing(q1, phi2)
        sign = -1 if n % 2 else 1
        term = model.int_pairing(part, model.q_op.apply(phi2, lattice))
        acc = acc + (term if sign > 0 else -term)
    return acc


def test_int_pairing_sums_mixed_terms_exactly():
    # values that mix ints and halves, over every degree and fiber of a few
    # points: <<phi, psi>> equals the Fraction sum over the metric entries and
    # is an int whenever that sum is integral, including sums of halves that
    # cancel to an integer
    rng = random.Random(23)
    mixed = (1, -2, 3, Fraction(1, 2), Fraction(-3, 2), Fraction(5, 2))
    lattice = Lattice(21)
    points = [Point(0, 0), Point(0, 20), Point(1, 3)]
    kinds = set()
    for model in (
        klein_gordon(lattice, kappa=Fraction(1, 2), mass_sq=Fraction(1)),
        maxwell2d(lattice),
        klein_gordon(lattice, metric_flip=True),
    ):
        keys = list(model.delta_keys(points))
        for _ in range(60):
            phi = Section({k: rng.choice(mixed) for k in keys})
            psi = Section({k: rng.choice(mixed) for k in keys if rng.random() < 0.8})
            ref = Fraction(0)
            for (n, t, x, i), v in phi.items():
                for j, c in enumerate(model.metric.blocks[n][i] if n in model.metric.blocks else ()):
                    ref += Fraction(v) * Fraction(psi.terms.get((1 - n, t, x, j), 0)) * Fraction(c)
            value = model.int_pairing(phi, psi)
            assert value == ref
            assert type(value) is (int if ref.denominator == 1 else Fraction), (value, ref)
            kinds.add(ref.denominator)
    assert {1, 2} <= kinds


def test_metric_compatibility():
    rng = random.Random(1)
    pts = window_points(-2, 2, range(-2, 3))
    for model in (kg21(), mw21()):
        for s1 in delta_basis(model, window_points(0, 0, range(0, 2))):
            for s2 in delta_basis(model, window_points(0, 1, range(0, 2))):
                assert not _metric_compat_defect(model, s1, s2)
        for _ in range(10):
            phi1 = random_section(rng, model, pts)
            phi2 = random_section(rng, model, pts)
            assert not _metric_compat_defect(model, phi1, phi2)


def test_metric_compatibility_disjoint_supports_trivial():
    model = kg21()
    phi1 = Section.delta(0, Point(0, 0))
    phi2 = Section.delta(1, Point(0, 10))
    assert not model.int_pairing(model.q_op.apply(phi1, model.lattice), phi2)
    assert not _metric_compat_defect(model, phi1, phi2)


def test_flipped_metric_fails_compatibility():
    model = klein_gordon(Lattice(21), metric_flip=True)
    phi1 = Section.delta(0, Point(0, 0))
    phi2 = Section.delta(0, Point(1, 0))
    assert _metric_compat_defect(model, phi1, phi2)


def test_witness_self_adjointness():
    # <<W phi1, phi2>> = (-1)^{bundle deg phi1} <<phi1, W phi2>> on delta pairs
    for model in (kg21(), mw21()):
        basis = delta_basis(model, window_points(-1, 1, range(-1, 2)))
        for s1 in basis:
            n1 = next(iter(s1.degrees()))
            w1 = model.w_op.apply(s1, model.lattice)
            for s2 in basis:
                lhs = model.int_pairing(w1, s2)
                rhs = model.int_pairing(s1, model.w_op.apply(s2, model.lattice))
                sign = -1 if n1 % 2 else 1
                assert lhs == (rhs if sign > 0 else -rhs)


def test_degenerate_p_rejected():
    lattice = Lattice(5)
    metric = klein_gordon(lattice).metric
    # Q = 0 gives P = 0: no retarded/advanced solves exist
    zero_q = Stencil(1, {})
    w = Stencil(-1, {1: [StencilEntry(0, 0, 0, 0, Fraction(1))]})
    model = FreeBVModel("bad-zero", lattice, {0: 1, 1: 1}, zero_q, w, metric)
    with pytest.raises(NotGreenHyperbolic):
        model.solve_data(0)
    # top-time block off the spatial diagonal: no causal forward substitution
    skew_q = Stencil(1, {0: [StencilEntry(1, 1, 0, 0, Fraction(1))]})
    model2 = FreeBVModel("bad-skew", lattice, {0: 1, 1: 1}, skew_q, w, metric)
    with pytest.raises(NotGreenHyperbolic):
        model2.solve_data(0)


# -- Green solvers -----------------------------------------------------------


def test_pure_time_retarded_ramp():
    model = pure_time()
    delta = Section.delta(0, Point(0, 0))
    sol = model.green(1).apply(delta, -3, 6)
    expected = Section()
    for t in range(-3, 7):
        if max(t, 0):
            expected = expected + Section.delta(0, Point(t, 0), 0, max(t, 0))
    assert sol == expected


def test_pure_time_advanced_ramp():
    model = pure_time()
    delta = Section.delta(0, Point(0, 0))
    sol = model.green(-1).apply(delta, -6, 3)
    expected = Section()
    for t in range(-6, 4):
        if max(-t, 0):
            expected = expected + Section.delta(0, Point(t, 0), 0, max(-t, 0))
    assert sol == expected


def _restricted_p_apply(model, proc_window, t_lo, t_hi):
    """Apply P to a windowed evaluation, restricted to where inputs are known."""
    r = model.p_op.time_radius()
    inner = model.p_op.apply(proc_window, model.lattice).restrict_times(t_lo + r, t_hi - r)
    return inner


def test_green_defining_conditions_on_delta_basis():
    for model in (kg21(), mw21()):
        basis = delta_basis(model, window_points(-2, 2, range(-2, 3)))
        r = model.p_op.time_radius()
        for phi in basis:
            for direction in (1, -1):
                sol = model.green(direction).apply(phi, -12, 12)
                lhs = _restricted_p_apply(model, sol, -12, 12)
                assert lhs == phi.restrict_times(-12 + r, 12 - r)
                # G(P phi) = phi
                back = model.green(direction).apply(
                    model.p_op.apply(phi, model.lattice), -12, 12
                )
                assert back == phi


def test_green_conditions_on_random_sections():
    rng = random.Random(2)
    pts = window_points(-3, 3, range(-3, 4))
    for model in (kg21(kappa=Fraction(1, 2), mass_sq=Fraction(1, 3)), mw21()):
        r = model.p_op.time_radius()
        for _ in range(5):
            phi = random_section(rng, model, pts, n_terms=4)
            if not phi:
                continue
            for direction in (1, -1):
                sol = model.green(direction).apply(phi, -12, 12)
                assert _restricted_p_apply(model, sol, -12, 12) == phi.restrict_times(
                    -12 + r, 12 - r
                )
                back = model.green(direction).apply(
                    model.p_op.apply(phi, model.lattice), -12, 12
                )
                assert back == phi


def test_green_support_in_cones():
    for model in (kg21(), mw21()):
        lattice = model.lattice
        basis = delta_basis(model, window_points(-2, 2, range(-2, 3)))
        for phi in basis:
            seeds = sorted(phi.support_points())
            for direction in (1, -1):
                sol = model.green(direction).apply(phi, -12, 12)
                assert sol
                for p in sol.support_points():
                    assert any(lattice.in_cone(s, p, direction) for s in seeds)


def test_retarded_differs_from_advanced():
    for model in (kg21(), mw21()):
        phi = delta_basis(model, [Point(0, 0)])[0]
        plus = model.green(1).apply(phi, -8, 8)
        minus = model.green(-1).apply(phi, -8, 8)
        assert plus != minus


def test_green_memo_extends_consistently():
    model = kg21()
    phi = Section.delta(0, Point(0, 0))
    first = model.green(1).apply(phi, 0, 3)
    second = model.green(1).apply(phi, 0, 8)
    assert first == second.restrict_times(0, 3)
    assert list(model.green(1)._kernels) == [(0, 0)]


def reference_green(model, direction, source, t_lo, t_hi):
    """G± source on [t_lo, t_hi] by marching the whole source directly, every
    site of the ring in every slice: the independent route for the kernel
    tables, which translate and sum one delta solve per (degree, fiber)."""
    n_sites = model.lattice.n_sites
    out = Section()
    for degree in sorted(source.degrees()):
        src = {k: v for k, v in source.items() if k[0] == degree}
        data = model.solve_data(degree)
        if direction > 0:
            reach, entries, inv = data.d_plus, data.lower_entries, data.top_inv
            eq_t, last = min(k[1] for k in src), t_hi - reach
        else:
            reach, entries, inv = -data.d_minus, data.upper_entries, data.bot_inv
            eq_t, last = max(k[1] for k in src), t_lo - reach
        ranks = range(model.rank(degree))
        slices = {}
        while (last - eq_t) * direction >= 0:
            sl = {}
            for x in range(n_sites):
                rhs = [src.get((degree, eq_t, x, f), 0) for f in ranks]
                for e in entries:
                    val = slices.get(eq_t + e.dt, {}).get(((x + e.dx) % n_sites, e.fin))
                    if val:
                        rhs[e.fout] -= val * e.coeff
                for f in ranks:
                    acc = sum(rhs[g] * inv[f][g] for g in ranks)
                    if acc:
                        sl[(x, f)] = acc
            slices[eq_t + reach] = sl
            eq_t += direction
        out = out + Section(
            {
                (degree, t, x, f): v
                for t, sl in slices.items()
                if t_lo <= t <= t_hi
                for (x, f), v in sl.items()
            }
        )
    return out


@pytest.mark.parametrize("slope", [1, 2])
@pytest.mark.parametrize("n_sites", [1, 2, 3, 5, 9])
def test_green_kernel_route_matches_full_ring_solve(n_sites, slope):
    # apply and value_at (translate-and-sum of kernels) against the direct
    # solve of 4-point sources with mixed degrees, fibers and non-integer
    # rationals; the cones wrap these rings within the window
    rng = random.Random(100 * n_sites + slope)
    lattice = Lattice(n_sites, slope)
    for model in (
        klein_gordon(lattice, kappa=Fraction(1, 2), mass_sq=Fraction(1)),
        maxwell2d(lattice),
    ):
        degrees = model.degrees()
        for _ in range(3):
            source = Section()
            while len(source.data) < 4:
                n = degrees[len(source.data) % len(degrees)]
                point = lattice.point(rng.randint(-2, 2), rng.randrange(n_sites))
                c = Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), rng.choice((2, 3)))
                source = source + Section.delta(n, point, rng.randrange(model.rank(n)), c)
            assert len(source.degrees()) > 1
            for direction in (1, -1):
                expected = reference_green(model, direction, source, -7, 7)
                assert expected
                solver = model.green(direction)
                assert solver.apply(source, -7, 7) == expected
                for t in range(-7, 8):
                    for x in range(n_sites):
                        for n in model.degrees():
                            for f in range(model.rank(n)):
                                value = solver.value_at(source, n, Point(t, x), f)
                                assert value == expected.data.get((n, t, x, f), 0)


def test_green_kernel_sweep_stays_in_cone():
    # Deterministic, no timing: on a 1001-site ring every kernel slice lies
    # within ring distance slope*|t| of the origin, and before the cone wraps
    # it equals the 21-site kernel site by site; marching through |t| <= 9
    # executes exactly as many lines of GreenSolver.kernel on both rings, so
    # the work does not grow with the ring
    code = GreenSolver.kernel.__code__

    def march(model, direction, steps):
        lines = [0]

        def tracer(frame, event, arg):
            if frame.f_code is not code:
                return None

            def count(frame, event, arg):
                if event == "line":
                    lines[0] += 1
                return count

            return count

        solver = model.green(direction)
        outer = sys.gettrace()
        sys.settrace(tracer)
        try:
            for n in model.degrees():
                for f in range(model.rank(n)):
                    solver.kernel(n, f, direction * steps)
        finally:
            sys.settrace(outer)
        return solver._kernels, lines[0]

    for build in (
        lambda lat: klein_gordon(lat, kappa=Fraction(1, 2), mass_sq=Fraction(1)),
        maxwell2d,
    ):
        for direction in (1, -1):
            for slope in (1, 2):
                big = Lattice(1001, slope)
                kernels, _ = march(build(big), direction, 12)
                for slices in kernels.values():
                    for t, sl in slices.items():
                        assert all(big.ring_dist(x, 0) <= slope * abs(t) for x, _ in sl)
            big_kernels, big_lines = march(build(Lattice(1001)), direction, 9)
            small_kernels, small_lines = march(build(Lattice(21)), direction, 9)
            assert big_lines == small_lines
            assert big_kernels.keys() == small_kernels.keys()
            for key, slices in big_kernels.items():
                assert slices.keys() == small_kernels[key].keys()
                for t, sl in slices.items():
                    assert sl
                    signed = {(((x + 500) % 1001 - 500) % 21, f): v for (x, f), v in sl.items()}
                    assert signed == small_kernels[key][t]


def test_green_commutes_with_w_and_q():
    # G± W = W G± and G± Q = Q G± on sampled sections within safe windows
    rng = random.Random(3)
    for model in (kg21(), mw21()):
        pts = window_points(-1, 1, range(-1, 2))
        for _ in range(4):
            phi = random_section(rng, model, pts)
            if not phi:
                continue
            for direction in (1, -1):
                for op in (model.w_op, model.q_op):
                    r = op.time_radius()
                    lhs = op.apply(model.green(direction).apply(phi, -10 - r, 10 + r), model.lattice)
                    lhs = lhs.restrict_times(-10, 10)
                    rhs = model.green(direction).apply(op.apply(phi, model.lattice), -10, 10)
                    assert lhs == rhs


def test_lambda_orders_agree():
    # W G± phi = G±(W phi) on windows
    rng = random.Random(4)
    for model in (kg21(), mw21()):
        pts = window_points(-1, 1, range(-1, 2))
        for _ in range(4):
            phi = random_section(rng, model, pts)
            if not phi:
                continue
            for direction in (1, -1):
                rw = model.w_op.time_radius()
                via_w_first = lambda_pm(model, phi, direction, -8, 8)
                g_then_w = model.w_op.apply(
                    model.green(direction).apply(phi, -8 - rw, 8 + rw), model.lattice
                ).restrict_times(-8, 8)
                assert via_w_first == g_then_w


def test_green_adjointness():
    # <<psi1, G± psi2>> = <<G∓ psi1, psi2>>; skew for G, symmetric for G_D
    rng = random.Random(5)
    for model in (kg21(), mw21()):
        pts = window_points(-2, 2, range(-2, 3))
        for _ in range(6):
            psi1 = random_section(rng, model, pts)
            psi2 = random_section(rng, model, pts)
            if not psi1 or not psi2:
                continue
            lo1, hi1 = psi1.min_t(), psi1.max_t()
            lo2, hi2 = psi2.min_t(), psi2.max_t()
            gp_psi2 = model.green(1).apply(psi2, lo1, hi1)
            gm_psi2 = model.green(-1).apply(psi2, lo1, hi1)
            gp_psi1 = model.green(1).apply(psi1, lo2, hi2)
            gm_psi1 = model.green(-1).apply(psi1, lo2, hi2)
            assert model.int_pairing(psi1, gp_psi2) == model.int_pairing(gm_psi1, psi2)
            assert model.int_pairing(psi1, gm_psi2) == model.int_pairing(gp_psi1, psi2)
            g_12 = gp_psi2 - gm_psi2
            g_21 = gp_psi1 - gm_psi1
            assert model.int_pairing(psi1, g_12) == -model.int_pairing(g_21, psi2)
            gd_12 = (gp_psi2 + gm_psi2).scale(Fraction(1, 2))
            gd_21 = (gp_psi1 + gm_psi1).scale(Fraction(1, 2))
            assert model.int_pairing(psi1, gd_12) == model.int_pairing(gd_21, psi2)


def test_del_lambda_pm_is_inclusion():
    # Q(L± psi) + L±(Q psi) = psi on evaluation windows (delta basis)
    for model in (kg21(), mw21()):
        rq = model.q_op.time_radius()
        for psi in delta_basis(model, window_points(-1, 1, range(-1, 2))):
            for direction in (1, -1):
                lam = lambda_pm(model, psi, direction, -8 - rq, 8 + rq)
                term1 = model.q_op.apply(lam, model.lattice).restrict_times(-8, 8)
                qpsi = model.q_op.apply(psi, model.lattice)
                term2 = lambda_pm(model, qpsi, direction, -8, 8)
                assert term1 + term2 == psi.restrict_times(-8, 8)


def test_lambda_diff_is_cochain_map():
    # Q(L psi) + L(Q psi) = 0 (the difference of two copies of the inclusion)
    for model in (kg21(), mw21()):
        rq = model.q_op.time_radius()
        for psi in delta_basis(model, window_points(0, 0, range(0, 2))):
            lam = lambda_diff(model, psi, -8 - rq, 8 + rq)
            term1 = model.q_op.apply(lam, model.lattice).restrict_times(-8, 8)
            term2 = lambda_diff(model, model.q_op.apply(psi, model.lattice), -8, 8)
            assert not (term1 + term2)


def test_lambda_diff_and_dirac_match_lambda_pm():
    # lambda_pm, one direction at a time, is the reference for the two-sided maps
    half = Fraction(1, 2)
    for model in (kg21(kappa=half, mass_sq=Fraction(1)), mw21()):
        for psi in delta_basis(model, window_points(-1, 1, range(-1, 2))):
            plus = lambda_pm(model, psi, 1, -4, 4)
            minus = lambda_pm(model, psi, -1, -4, 4)
            assert lambda_diff(model, psi, -4, 4) == plus - minus
            assert lambda_dirac(model, psi, -4, 4) == (plus + minus).scale(half)


def test_lambda_naturality_under_time_translation():
    model = kg21()
    psi = Section.delta(1, Point(0, 1), 0, Fraction(3, 2)) + Section.delta(0, Point(1, 2))
    for direction in (1, -1):
        direct = lambda_pm(model, psi.translate_time(4), direction, -4, 12)
        translated = lambda_pm(model, psi, direction, -8, 8).translate_time(4)
        assert direct == translated


# -- pairings ----------------------------------------------------------------


def test_tau_minus1_kg_single_point():
    model = kg21()
    field = Section.delta(0, Point(0, 0))  # shifted degree -1
    antifield = Section.delta(1, Point(0, 0))  # shifted degree 0
    # (-1)^{-1} * metric(0, 1) entry = (-1) * (-1) = +1
    assert tau_minus1(model, field, antifield) == 1
    assert tau_minus1(model, antifield, field) == 1


def test_tau_minus1_disjoint_supports():
    model = kg21()
    a = Section.delta(0, Point(0, 0))
    b = Section.delta(1, Point(2, 5))
    assert not tau_minus1(model, a, b)


def test_tau_minus1_symmetry():
    rng = random.Random(6)
    pts = window_points(-2, 2, range(-2, 3))
    for model in (kg21(), mw21()):
        for psi1 in delta_basis(model, window_points(0, 0, range(0, 2))):
            for psi2 in delta_basis(model, window_points(0, 0, range(0, 2))):
                a = next(iter(psi1.degrees())) - 1
                b = next(iter(psi2.degrees())) - 1
                sign = -1 if (a % 2) and (b % 2) else 1
                lhs = tau_minus1(model, psi2, psi1)
                rhs = tau_minus1(model, psi1, psi2)
                assert lhs == (rhs if sign > 0 else -rhs)


def test_tau0_pure_time_value():
    model = pure_time()
    psi1 = Section.delta(1, Point(0, 0))
    psi2 = Section.delta(1, Point(2, 0))
    assert tau_0(model, psi1, psi2) == -2


def test_tau0_antisymmetry_and_tau_d_symmetry():
    for model in (kg21(), mw21()):
        basis = delta_basis(model, window_points(-1, 1, range(-1, 2)))
        for psi1 in basis:
            for psi2 in basis:
                a = next(iter(psi1.degrees())) - 1
                b = next(iter(psi2.degrees())) - 1
                koszul = -1 if (a % 2) and (b % 2) else 1
                t0_12 = tau_0(model, psi1, psi2)
                t0_21 = tau_0(model, psi2, psi1)
                assert t0_21.__mul__(koszul) == -t0_12 if koszul < 0 else t0_21 == -t0_12
                td_12 = tau_dirac(model, psi1, psi2)
                td_21 = tau_dirac(model, psi2, psi1)
                assert (td_21 if koszul > 0 else -td_21) == td_12


def test_tau_d_is_average():
    rng = random.Random(7)
    model = kg21()
    pts = window_points(-1, 1, range(-1, 2))
    for _ in range(10):
        psi1 = random_section(rng, model, pts)
        psi2 = random_section(rng, model, pts)
        if not psi1 or not psi2:
            continue
        lo, hi = psi1.min_t(), psi1.max_t()
        via_plus = model.int_pairing(psi1, lambda_pm(model, psi2, 1, lo, hi))
        via_minus = model.int_pairing(psi1, lambda_pm(model, psi2, -1, lo, hi))
        assert tau_dirac(model, psi1, psi2) == (via_plus + via_minus) * Fraction(1, 2)


def _d_tau(model, tau_fn, psi1, psi2):
    """d(tau)(psi1 (x) psi2) for a degree-0 pairing on the shifted complex."""
    q = model.q_op
    lattice = model.lattice
    acc = tau_fn(model, q.apply(psi1, lattice), psi2)
    for n in psi1.degrees():
        part = Section({k: v for k, v in psi1.items() if k[0] == n})
        sign = -1 if (n - 1) % 2 else 1
        term = tau_fn(model, part, q.apply(psi2, lattice))
        acc = acc + (term if sign > 0 else -term)
    return acc


def test_tau_d_trivializes_shifted_pairing():
    # d(tau_D) = tau_m1 on sampled homogeneous pairs
    rng = random.Random(8)
    for model in (kg21(), mw21()):
        basis = delta_basis(model, window_points(-1, 1, range(-1, 2)))
        for _ in range(40):
            psi1, psi2 = rng.choice(basis), rng.choice(basis)
            assert _d_tau(model, tau_dirac, psi1, psi2) == tau_minus1(model, psi1, psi2)


def test_tau0_is_cochain_map():
    rng = random.Random(9)
    for model in (kg21(), mw21()):
        basis = delta_basis(model, window_points(-1, 1, range(-1, 2)))
        for _ in range(30):
            psi1, psi2 = rng.choice(basis), rng.choice(basis)
            assert not _d_tau(model, tau_0, psi1, psi2)


def test_tau_naturality_under_time_translation():
    model = kg21()
    rng = random.Random(10)
    pts = window_points(-1, 1, range(-1, 2))
    for _ in range(10):
        psi1 = random_section(rng, model, pts)
        psi2 = random_section(rng, model, pts)
        for fn in (tau_minus1, tau_0, tau_dirac):
            assert fn(model, psi1, psi2) == fn(
                model, psi1.translate_time(5), psi2.translate_time(5)
            )


# -- causality and time-slice ------------------------------------------------


def test_causality_vanishing_on_disjoint_diamonds():
    for model in (kg21(), mw21()):
        lattice = model.lattice
        r1 = causal_hull(lattice, [(0, 0), (2, 0)])
        r2 = causal_hull(lattice, [(0, 10), (2, 10)])
        assert causally_disjoint(r1, r2)
        for psi1 in delta_basis(model, sorted(r1.points)):
            for psi2 in delta_basis(model, sorted(r2.points)):
                assert not tau_0(model, psi1, psi2)


def test_causality_counter_test_connected_diamonds():
    model = kg21()
    lattice = model.lattice
    r1 = causal_hull(lattice, [(0, 0)])
    r2 = causal_hull(lattice, [(2, 1)])
    assert not causally_disjoint(r1, r2)
    found = any(
        tau_0(model, psi1, psi2)
        for psi1 in delta_basis(model, sorted(r1.points))
        for psi2 in delta_basis(model, sorted(r2.points))
    )
    assert found


def test_time_ordered_half_identity():
    # tau_D = tau_0 / 2 on a stacked time-ordered pair, full delta basis
    for model in (kg21(), mw21()):
        lattice = model.lattice
        later = causal_hull(lattice, [(4, 0)])
        earlier = causal_hull(lattice, [(0, 0)])
        assert is_time_ordered([later, earlier])
        for psi1 in delta_basis(model, sorted(later.points)):
            for psi2 in delta_basis(model, sorted(earlier.points)):
                assert tau_dirac(model, psi1, psi2) == tau_0(model, psi1, psi2) * Fraction(1, 2)


def test_time_ordered_half_fails_without_time_ordering():
    # (a, b) in this order is NOT time-ordered and their causal links run
    # strictly inside the cone, where the massive kernel is nonzero
    model = kg21(mass_sq=Fraction(1))
    lattice = model.lattice
    a = causal_hull(lattice, [(0, 0), (3, 0)])
    b = causal_hull(lattice, [(1, 3), (4, 3)])
    assert not is_time_ordered([a, b])
    found = any(
        tau_dirac(model, psi1, psi2) != tau_0(model, psi1, psi2) * Fraction(1, 2)
        for psi1 in delta_basis(model, sorted(a.points))
        for psi2 in delta_basis(model, sorted(b.points))
    )
    assert found


def _eta_boundary_defect(model, cutoff, psi):
    # -(Q eta + eta Q) - (psi - g psi), all ambient sections
    q = model.q_op
    lattice = model.lattice
    term1 = q.apply(homotopy_eta(model, cutoff, psi), lattice)
    term2 = homotopy_eta(model, cutoff, q.apply(psi, lattice))
    lhs = (term1 + term2).scale(-1)
    rhs = psi - quasi_inverse_g(model, cutoff, psi)
    return lhs - rhs


def test_quasi_inverse_fixes_sections_at_the_cut():
    # expanding [Q, chi_+] L on a source at the cut times t0, t0+1 gives the
    # section back in the sectors where W is the identity (KG antifields);
    # in W-degenerate sectors g is only homotopic to the identity (see the
    # eta/zeta tests), and there it annihilates deltas
    cutoff = CutoffData(0)
    for model in (kg21(), kg21(mass_sq=Fraction(2, 3))):
        for t in (0, 1):
            for x in range(-1, 2):
                anti = Section.delta(1, model.lattice.point(t, x))
                assert quasi_inverse_g(model, cutoff, anti) == anti
                field = Section.delta(0, model.lattice.point(t, x))
                assert not quasi_inverse_g(model, cutoff, field)


def test_quasi_inverse_lands_in_slab():
    for model in (kg21(), mw21()):
        lattice = model.lattice
        region = slab(lattice, -4, 4)
        cutoff = CutoffData(0)
        check_cutoff_in_region(model, cutoff, region)
        for psi in delta_basis(model, window_points(-7, 7, range(0, 2))):
            out = quasi_inverse_g(model, cutoff, psi)
            assert out.supported_in(region)


def test_eta_homotopy_identity():
    for model in (kg21(), mw21()):
        cutoff = CutoffData(0)
        for psi in delta_basis(model, window_points(-3, 3, range(-1, 2))):
            assert not _eta_boundary_defect(model, cutoff, psi)


def test_zeta_homotopy_identity():
    # d(zeta) = id - g f_* on the slab's delta basis
    for model in (kg21(), mw21()):
        lattice = model.lattice
        region = slab(lattice, -4, 4)
        cutoff = CutoffData(0)
        q = model.q_op
        for psi in delta_basis(model, window_points(-3, 3, range(0, 2))):
            assert psi.supported_in(region)
            zeta_psi = homotopy_zeta(model, cutoff, region, psi)
            term1 = q.apply(zeta_psi, lattice)
            term2 = homotopy_eta(model, cutoff, q.apply(psi, lattice))
            lhs = (term1 + term2).scale(-1)
            rhs = psi - quasi_inverse_g(model, cutoff, psi)
            assert lhs == rhs


def test_zeta_requires_slab_support():
    model = kg21()
    region = slab(model.lattice, -2, 2)
    cutoff = CutoffData(0)
    outside = Section.delta(0, Point(5, 0))
    with pytest.raises(ValueError):
        homotopy_zeta(model, cutoff, region, outside)


def reference_g(model, cutoff, psi):
    """g(psi) = [Q, chi_+] (L psi) of a whole source in one Green solve: the
    independent route for the translate-and-sum of delta solutions."""
    if not psi:
        return Section()
    rt = max(model.q_op.time_radius(), 1)
    t0 = cutoff.t0
    band_lo, band_hi = t0 + 1 - rt, t0 + rt
    lam = lambda_diff(model, psi, band_lo - rt, band_hi + rt)
    clipped = lam.multiply_indicator(cutoff.chi_plus)
    out = model.q_op.apply(clipped, model.lattice) - model.q_op.apply(
        lam, model.lattice
    ).multiply_indicator(cutoff.chi_plus)
    return out.restrict_times(band_lo, band_hi)


def reference_eta(model, cutoff, psi):
    """eta(psi) = -chi_- L+ psi - chi_+ L- psi of a whole source in one Green
    solve per direction."""
    if not psi:
        return Section()
    rt = model.w_op.time_radius()
    t0 = cutoff.t0
    plus_part = lambda_pm(model, psi, 1, psi.min_t() - rt, t0).multiply_indicator(
        cutoff.chi_minus
    )
    minus_part = lambda_pm(model, psi, -1, t0 + 1, psi.max_t() + rt).multiply_indicator(
        cutoff.chi_plus
    )
    return (plus_part + minus_part).scale(-1)


@pytest.mark.parametrize("n_sites", [5, 9, 21])
def test_cut_maps_match_direct_solve(n_sites):
    # eta and g (translate-and-sum of one delta solution per (degree, t - t0,
    # fiber)) against the direct solve of 4-point sources with mixed degrees,
    # fibers and non-integer rationals at times t0 - 3 .. t0 + 3; two cuts
    # share each model's delta solutions, which are stored relative to the cut
    rng = random.Random(300 + n_sites)
    lattice = Lattice(n_sites)
    for model in (
        klein_gordon(lattice, kappa=Fraction(1, 2), mass_sq=Fraction(1)),
        maxwell2d(lattice),
    ):
        degrees = model.degrees()
        nonzero = set()
        for t0 in (0, 2, -1):
            cutoff = CutoffData(t0)
            for _ in range(4):
                source = Section()
                while len(source.data) < 4:
                    n = degrees[len(source.data) % len(degrees)]
                    point = lattice.point(t0 + rng.randint(-3, 3), rng.randrange(n_sites))
                    c = Fraction(rng.choice((-5, -3, -1, 1, 3, 5)), rng.choice((2, 3)))
                    source = source + Section.delta(n, point, rng.randrange(model.rank(n)), c)
                assert len(source.degrees()) > 1
                eta = reference_eta(model, cutoff, source)
                g = reference_g(model, cutoff, source)
                nonzero.update(name for name, v in (("eta", eta), ("g", g)) if v)
                assert homotopy_eta(model, cutoff, source) == eta
                assert quasi_inverse_g(model, cutoff, source) == g
        assert nonzero == {"eta", "g"}
        assert not homotopy_eta(model, cutoff, Section())
        assert not quasi_inverse_g(model, cutoff, Section())


def test_cutoff_outside_region_rejected():
    model = kg21()
    region = slab(model.lattice, -1, 1)
    with pytest.raises(ValueError):
        check_cutoff_in_region(model, CutoffData(5), region)


def test_tau0_kills_p_exact_sources():
    # psi2 = P chi: G(P chi) = chi - chi = 0, so tau_0(psi1, P chi) = 0, while
    # tau_D(psi1, P chi) = <<psi1, W chi>>
    rng = random.Random(20)
    for model in (kg21(kappa=Fraction(1, 2), mass_sq=Fraction(1)), mw21()):
        pts = window_points(-1, 1, range(-1, 2))
        for _ in range(6):
            chi = random_section(rng, model, pts)
            psi1 = random_section(rng, model, pts)
            if not chi or not psi1:
                continue
            p_chi = model.p_op.apply(chi, model.lattice)
            assert not tau_0(model, psi1, p_chi)
            w_chi = model.w_op.apply(chi, model.lattice)
            assert tau_dirac(model, psi1, p_chi) == model.int_pairing(psi1, w_chi)


# -- exact rationals and shared solvers ----------------------------------------


def _is_narrow_rational(v):
    return type(v) is int or (type(v) is Fraction and v.denominator > 1)


def test_rational_solver_oracle_on_fractional_sources():
    # P(G± s) = s exactly on the window for sources with non-integer
    # coefficients; every stored kernel value, every solved value, every
    # stencil image, every eta and g value and every pairing is a narrowed
    # rational (int, or Fraction with denominator > 1), never an HScalar.
    # The maxwell2d kernels are integral (integer P, unit top block), so its
    # Fractions come from the solved values.
    rng = random.Random(41)
    pts = window_points(-2, 2, range(-2, 3))
    cutoff = CutoffData(0)
    for model in (kg21(kappa=Fraction(1, 2), mass_sq=Fraction(1)), mw21()):
        r = model.p_op.time_radius()
        solved = []
        for _ in range(4):
            source = Section()
            for _ in range(4):
                p = rng.choice(pts)
                n = rng.choice(model.degrees())
                c = Fraction(rng.choice((-5, -4, -2, -1, 1, 2, 4, 5)), rng.choice((2, 3)))
                point = model.lattice.point(p.t, p.x)
                source = source + Section.delta(n, point, rng.randrange(model.rank(n)), c)
            assert any(type(v) is Fraction for _, v in source.items())
            for direction in (1, -1):
                sol = model.green(direction).apply(source, -10, 10)
                assert _restricted_p_apply(model, sol, -10, 10) == source.restrict_times(
                    -10 + r, 10 - r
                )
                solved.extend(v for _, v in sol.items())
            for op in (model.q_op, model.w_op, model.p_op):
                solved.extend(v for _, v in op.apply(source, model.lattice).items())
            for cut_map in (homotopy_eta, quasi_inverse_g):
                solved.extend(v for _, v in cut_map(model, cutoff, source).items())
            psi = random_section(rng, model, pts)
            for value in (
                tau_minus1(model, psi, source),
                tau_0(model, psi, source),
                tau_dirac(model, psi, source),
                tau_0(model, source, source),
            ):
                assert _is_narrow_rational(value)
        stored = [
            v
            for direction in (1, -1)
            for slices in model.green(direction)._kernels.values()
            for sl in slices.values()
            for v in sl.values()
        ]
        assert stored and all(_is_narrow_rational(v) for v in stored + solved)
        assert any(type(v) is Fraction for v in stored + solved)


# -- integer-numerator loops against their Fraction routes ---------------------


def reference_translate_sum(solver, source, t_lo, t_hi):
    """The Fraction route for GreenSolver.apply: one product and one sum of
    rationals per (source term, kernel value) over the stored slices."""
    n_sites = solver.model.lattice.n_sites
    out = {}
    for (n, ts, xs, f), v in source.items():
        lo, hi = t_lo - ts, t_hi - ts
        slices = solver.kernel(n, f, hi if solver.direction > 0 else lo)
        for off in range(lo, hi + 1):
            for (x, fout), kv in slices.get(off, {}).items():
                key = (n, ts + off, (x + xs) % n_sites, fout)
                out[key] = out.get(key, 0) + v * kv
    return Section(out)


def reference_cut_sum(model, cutoff, psi, solve):
    """The Fraction route for the translate-and-sum of eta and g: each
    source term times the solution of its delta moved to x = 0, shifted back."""
    n_sites = model.lattice.n_sites
    out = {}
    for (n, t, xs, f), v in psi.items():
        for (m, s, x, g), w in solve(model, cutoff, Section.delta(n, Point(t, 0), f)).items():
            key = (m, s, (x + xs) % n_sites, g)
            out[key] = out.get(key, 0) + v * w
    return Section(out)


def _typed(section):
    # keys in order, with the type of each value: int and Fraction(2, 1)
    # compare equal, a narrowed section never holds the second
    return [(k, type(v), v) for k, v in section.items()]


def _oracle_models():
    # power-of-2 kernel denominators, powers of 3, and all-int kernels
    return (
        kg21(kappa=Fraction(1, 2), mass_sq=Fraction(1)),
        kg21(kappa=Fraction(1, 3)),
        mw21(),
    )


def _integer_routes(model, cutoff):
    """(name, integer route, Fraction route) of each loop, as maps of a section."""
    lattice = model.lattice
    routes = [
        (f"stencil {name}", lambda s, op=op: op.apply(s, lattice),
         lambda s, op=op: reference_stencil_apply(op, s, lattice))
        for name, op in (("q", model.q_op), ("w", model.w_op), ("p", model.p_op))
    ]
    routes += [
        (f"green {d}", lambda s, d=d: model.green(d).apply(s, -6, 6),
         lambda s, d=d: reference_translate_sum(model.green(d), s, -6, 6))
        for d in (1, -1)
    ]
    routes += [
        ("eta", lambda s: homotopy_eta(model, cutoff, s),
         lambda s: reference_cut_sum(model, cutoff, s, _eta_of_delta)),
        ("g", lambda s: quasi_inverse_g(model, cutoff, s),
         lambda s: reference_cut_sum(model, cutoff, s, _g_of_delta)),
    ]
    return routes


def test_integer_loops_match_fraction_routes_on_mixed_denominators():
    # random sources whose coefficients mix denominators 1..7, and all-int
    # sources: same keys in the same order, same values, same types
    rng = random.Random(1300)
    pts = window_points(-2, 2, range(-2, 3))
    cutoff = CutoffData(0)
    for model in _oracle_models():
        routes = _integer_routes(model, cutoff)
        seen_fraction = set()
        for trial in range(6):
            source = Section()
            for _ in range(5):
                p = rng.choice(pts)
                n = rng.choice(model.degrees())
                den = 1 if trial % 3 == 0 else rng.randint(1, 7)
                c = Fraction(rng.choice((-7, -3, -2, -1, 1, 2, 3, 7)), den)
                point = model.lattice.point(p.t, p.x)
                source = source + Section.delta(n, point, rng.randrange(model.rank(n)), c)
            assert source
            for name, route, reference in routes:
                got = route(source)
                assert _typed(got) == _typed(reference(source)), (model.name, name)
                if any(type(v) is Fraction for _, v in got.items()):
                    seen_fraction.add(name)
        assert seen_fraction == {name for name, _, _ in routes}, model.name


def test_integer_loops_drop_cancelled_keys():
    # a two-term source whose images cancel exactly on one output key: that
    # key is absent from the integer route, as from the Fraction route.  Only
    # kg's W (pointwise) has no two deltas with overlapping images.
    cutoff = CutoffData(0)
    for model in _oracle_models():
        lattice = model.lattice
        routes = _integer_routes(model, cutoff)
        checked = set()
        for name, route, reference in routes:
            # the first pair of deltas of one degree, near each other and the
            # cut, whose images overlap
            for n, t, (dt, dx) in itertools.product(
                model.degrees(), (0, -1, 1, -2), ((0, 1), (0, 2), (1, 1))
            ):
                d1 = Section.delta(n, lattice.point(t, 0), 0, Fraction(1, 3))
                d2 = Section.delta(n, lattice.point(t + dt, dx), 0, 1)
                img1, img2 = reference(d1), reference(d2)
                common = [k for k in img1.data if k in img2.data]
                if common:
                    break
            else:
                continue
            key = common[0]
            source = d1.scale(img2.data[key]) - d2.scale(img1.data[key])
            assert len(source.data) == 2
            got = route(source)
            assert key not in got.data, (model.name, name)
            assert _typed(got) == _typed(reference(source)), (model.name, name)
            checked.add(name)
        missed = {name for name, _, _ in routes} - checked
        assert missed <= ({"stencil w"} if model.name == "kg" else set()), model.name

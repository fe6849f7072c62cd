import pytest

from latticebv.lattice import (
    CutoffData,
    Lattice,
    Point,
    Region,
    UnsupportedInput,
    causal_future,
    causal_hull,
    causally_disjoint,
    factorize_tuple,
    find_time_ordering,
    is_cauchy_region,
    is_time_ordered,
    make_cutoff,
    slab,
    validate_ring_size,
)


def brute_future(lattice, seeds, t_lo, t_hi):
    """Brute-force cone membership by stepwise breadth-first growth."""
    seeds = {lattice.point(*p) for p in seeds}
    out = set()
    frontier = {p for p in seeds}
    for t in range(t_lo, t_hi + 1):
        frontier |= {p for p in seeds if p.t == t}
        out |= {p for p in frontier if p.t == t}
        nxt = set()
        for p in frontier:
            if p.t <= t:
                for d in range(-lattice.slope, lattice.slope + 1):
                    nxt.add(lattice.point(t + 1, p.x + d))
        frontier = {p for p in nxt}
    return out


def test_future_cone_slice():
    lattice = Lattice(9)
    member, pts = causal_future(lattice, [(0, 0)], horizon=2)
    slice2 = {p for p in pts if p.t == 2}
    assert slice2 == {Point(2, x % 9) for x in range(-2, 3)}


def test_future_contains_seeds():
    lattice = Lattice(9)
    member, pts = causal_future(lattice, [(0, 0), (1, 3)], horizon=0)
    assert member(Point(0, 0)) and member(Point(1, 3))


def test_future_wraps_small_ring():
    lattice = Lattice(5)
    member, pts = causal_future(lattice, [(0, 0)], horizon=3)
    assert {p for p in pts if p.t == 3} == set(lattice.slice_points(3))
    # cross-check the full enumeration against stepwise growth
    assert set(pts) == brute_future(lattice, [(0, 0)], 0, 3)


def test_future_transitive():
    lattice = Lattice(9, slope=2)
    member, pts = causal_future(lattice, [(0, 2)], horizon=3)
    again = causal_future(lattice, pts, horizon=0)[0]
    for p in pts:
        assert member(p) == again(p)


def test_hull_of_point():
    lattice = Lattice(9)
    r = causal_hull(lattice, [(0, 0)])
    assert r.points == {Point(0, 0)}


def test_hull_diamond_frozen():
    lattice = Lattice(9)
    r = causal_hull(lattice, [(0, 0), (2, 0)])
    expected = {Point(0, 0), Point(1, 8), Point(1, 0), Point(1, 1), Point(2, 0)}
    assert r.points == expected
    # brute-force oracle: points lying in someone's future and someone's past
    brute = set()
    for t in range(0, 3):
        for q in lattice.slice_points(t):
            if any(lattice.in_future_of(Point(*s), q) for s in [(0, 0), (2, 0)]) and any(
                lattice.in_past_of(Point(*s), q) for s in [(0, 0), (2, 0)]
            ):
                brute.add(q)
    assert r.points == brute


def test_hull_idempotent_and_convex():
    lattice = Lattice(11)
    r = causal_hull(lattice, [(0, 0), (3, 1)])
    assert causal_hull(lattice, r.points).points == r.points
    assert r.is_causally_convex()
    t_lo, t_hi = r.time_range()
    assert (t_lo, t_hi) == (0, 3)


def test_causally_disjoint_diamonds():
    lattice = Lattice(9)
    r1 = causal_hull(lattice, [(0, 0)])
    r2 = causal_hull(lattice, [(0, 3)])
    assert causally_disjoint(r1, r2)
    assert causally_disjoint(r2, r1)


def test_not_disjoint_with_self_or_cone():
    lattice = Lattice(9)
    r1 = causal_hull(lattice, [(0, 0)])
    assert not causally_disjoint(r1, r1)
    r2 = causal_hull(lattice, [(2, 1)])
    assert not causally_disjoint(r1, r2)


def test_disjoint_requires_finite():
    lattice = Lattice(9)
    with pytest.raises(UnsupportedInput):
        causally_disjoint(Region.all_of(lattice), Region.all_of(lattice))


def test_time_ordering_of_stacked_pair():
    lattice = Lattice(21)
    later = causal_hull(lattice, [(5, 0)])
    earlier = causal_hull(lattice, [(0, 0)])
    assert is_time_ordered([later, earlier])
    assert not is_time_ordered([earlier, later])


def test_disjoint_pair_both_orders():
    lattice = Lattice(21)
    r1 = causal_hull(lattice, [(0, 0)])
    r2 = causal_hull(lattice, [(0, 9)])
    assert causally_disjoint(r1, r2)
    assert is_time_ordered([r1, r2]) and is_time_ordered([r2, r1])


def test_empty_tuple_time_ordered():
    assert is_time_ordered([])
    assert find_time_ordering([]) == ()


def test_find_time_ordering_sorts_future_first():
    lattice = Lattice(21)
    earlier = causal_hull(lattice, [(0, 0)])
    later = causal_hull(lattice, [(5, 0)])
    rho = find_time_ordering([earlier, later])
    assert rho == (1, 0)
    rho2 = find_time_ordering([later, earlier])
    assert rho2 == (0, 1)


def test_find_time_ordering_cyclic_none():
    lattice = Lattice(21)
    a = causal_hull(lattice, [(0, 0), (3, 0)])
    b = causal_hull(lattice, [(0, 3), (3, 3)])
    assert not (a.points & b.points)
    # each meets the other's future: no consistent order
    assert find_time_ordering([a, b]) is None


def test_find_time_ordering_rejects_overlap():
    lattice = Lattice(21)
    r1 = causal_hull(lattice, [(0, 0), (2, 0)])
    r2 = causal_hull(lattice, [(1, 0)])
    with pytest.raises(ValueError):
        find_time_ordering([r1, r2])


def test_factorize_pair():
    lattice = Lattice(21)
    later = causal_hull(lattice, [(5, 0)])
    earlier = causal_hull(lattice, [(0, 0)])
    hull, inner, outer = factorize_tuple([later, earlier], Region.all_of(lattice))
    assert hull.points == later.points
    assert outer[0] is hull and outer[1] is earlier
    assert is_time_ordered(outer)


def test_factorize_stacked_triple():
    lattice = Lattice(21)
    rs = [
        causal_hull(lattice, [(8, 0)]),
        causal_hull(lattice, [(4, 3)]),
        causal_hull(lattice, [(0, 0)]),
    ]
    hull, inner, outer = factorize_tuple(rs, Region.all_of(lattice))
    assert is_time_ordered(inner)
    assert is_time_ordered(outer)
    for r in inner:
        assert hull.contains_region(r)


def test_factorize_inside_common_diamond():
    lattice = Lattice(21)
    big = causal_hull(lattice, [(0, 0), (6, 0)])
    rs = [causal_hull(lattice, [(4, 0)]), causal_hull(lattice, [(2, 0)]), causal_hull(lattice, [(0, 5)])]
    hull, inner, outer = factorize_tuple(rs, Region.all_of(lattice))
    # the hull is that of the first two regions' union, not any ambient slab
    assert hull.points == causal_hull(lattice, [(4, 0), (2, 0)]).points
    assert big.contains_region(hull)
    assert len(hull.points) < len(big.points)


def test_cauchy_region():
    lattice = Lattice(7)
    ambient = Region.all_of(lattice)
    assert is_cauchy_region(ambient, ambient)
    s = slab(lattice, -1, 2)
    assert is_cauchy_region(s, ambient)
    small = causal_hull(lattice, [(0, 0), (2, 0)])
    assert not is_cauchy_region(small, ambient)


def test_slab_is_full_block():
    lattice = Lattice(5)
    s = slab(lattice, 0, 2)
    assert s.points == {Point(t, x) for t in range(0, 3) for x in range(5)}
    assert s.is_causally_convex()


def test_cutoff_partition():
    cut = make_cutoff(0)
    assert isinstance(cut, CutoffData)
    for t in range(-4, 5):
        assert cut.chi_plus(t) + cut.chi_minus(t) == 1
    assert cut.chi_plus(1) == 1 and cut.chi_plus(0) == 0
    # supp chi_+ = {t >= 1} inside I^+(Sigma_-) = {t >= 0}
    assert cut.sigma_minus == -1 and cut.sigma_plus == 1


def test_validate_ring_size():
    lattice = Lattice(5)
    r = causal_hull(lattice, [(0, 0), (3, 0)])
    with pytest.raises(ValueError):
        validate_ring_size(lattice, [r])
    validate_ring_size(Lattice(21), [causal_hull(Lattice(21), [(0, 0), (3, 0)])])


def test_region_translate():
    lattice = Lattice(9)
    r = causal_hull(lattice, [(0, 0), (2, 0)])
    r2 = r.translate(5)
    assert r2.points == {Point(p.t + 5, p.x) for p in r.points}

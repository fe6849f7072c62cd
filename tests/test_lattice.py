import copy
import pickle
import random

import pytest

from latticebv import lattice as lattice_module
from latticebv.lattice import (
    CutoffData,
    Lattice,
    Point,
    Region,
    causal_hull,
    causally_disjoint,
    factorize_tuple,
    find_time_ordering,
    is_time_ordered,
    slab,
    validate_ring_size,
)


def is_causally_convex(region):
    """Oracle: the region is its own causal hull."""
    return causal_hull(region.lattice, region.points).points == region.points


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


def test_future_wraps_small_ring():
    # the closed-form cone test against stepwise growth; both cones wrap the
    # ring before t = 3 (5 sites at slope 1, 9 sites at slope 2)
    for lattice, seeds in ((Lattice(5), [(0, 0)]), (Lattice(9, slope=2), [(0, 2), (1, 6)])):
        bases = [lattice.point(*s) for s in seeds]
        closed = {
            q
            for t in range(0, 4)
            for q in lattice.slice_points(t)
            if any(lattice.in_future_of(b, q) for b in bases)
        }
        assert closed == brute_future(lattice, seeds, 0, 3)
        assert set(bases) <= closed
        assert {p for p in closed if p.t == 3} == set(lattice.slice_points(3))


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


def brute_hull(lattice, seeds):
    """The definition: the points of the seeds' time span that lie in the
    causal future of one seed and the causal past of one, found by testing
    every site of every slice."""
    bases = [lattice.point(*s) for s in seeds]
    return {
        q
        for t in range(min(b.t for b in bases), max(b.t for b in bases) + 1)
        for q in lattice.slice_points(t)
        if any(lattice.in_future_of(b, q) for b in bases)
        and any(lattice.in_past_of(b, q) for b in bases)
    }


@pytest.mark.parametrize("n_sites, slope", [(1, 1), (2, 1), (5, 1), (6, 2), (9, 2), (21, 1), (21, 3)])
def test_hull_matches_the_definition_on_random_seeds(n_sites, slope):
    # causal_hull tests only the sites of each slice's future cone; the
    # scan of every site is the reference, cones that wrap the ring included
    lattice = Lattice(n_sites, slope)
    rng = random.Random(100 * n_sites + slope)
    for _ in range(40):
        seeds = [(rng.randint(-3, 3), rng.randint(-n_sites, 2 * n_sites)) for _ in range(rng.randint(1, 4))]
        assert causal_hull(lattice, seeds).points == brute_hull(lattice, seeds), seeds


def test_hull_idempotent_and_convex():
    lattice = Lattice(11)
    r = causal_hull(lattice, [(0, 0), (3, 1)])
    assert causal_hull(lattice, r.points).points == r.points
    assert is_causally_convex(r)
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


def test_find_time_ordering_places_the_smallest_free_index_first():
    lattice = Lattice(21)
    # region 2 lies in the future of region 0; regions 1 and 3 are causally
    # disjoint from every other region, so only 2 before 0 is forced
    regions = [causal_hull(lattice, [p]) for p in ((0, 0), (0, 10), (5, 0), (2, 14))]
    for i, j in ((0, 1), (0, 3), (1, 2), (1, 3), (2, 3)):
        assert causally_disjoint(regions[i], regions[j])
    assert not causally_disjoint(regions[0], regions[2])
    assert find_time_ordering(regions) == (1, 2, 0, 3)


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
    hull, inner, outer = factorize_tuple([later, earlier])
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
    hull, inner, outer = factorize_tuple(rs)
    assert is_time_ordered(inner)
    assert is_time_ordered(outer)
    for r in inner:
        assert hull.contains_region(r)


def test_factorize_inside_common_diamond():
    lattice = Lattice(21)
    big = causal_hull(lattice, [(0, 0), (6, 0)])
    rs = [causal_hull(lattice, [(4, 0)]), causal_hull(lattice, [(2, 0)]), causal_hull(lattice, [(0, 5)])]
    hull, inner, outer = factorize_tuple(rs)
    # the hull is that of the first two regions' union, not any ambient slab
    assert hull.points == causal_hull(lattice, [(4, 0), (2, 0)]).points
    assert big.contains_region(hull)
    assert len(hull.points) < len(big.points)


def _stacked_triple():
    lattice = Lattice(21)
    return [causal_hull(lattice, [(t, x)]) for t, x in ((8, 0), (4, 3), (0, 0))]


@pytest.mark.parametrize(
    "spoil, message",
    [
        # drop the earliest point, a seed of the second region
        (lambda points: points - {min(points)}, "misses an inner region"),
        # add a point in the past of the last region, which J^+ of the hull then meets
        (lambda points: points | {Point(-1, 0)}, "not time-ordered"),
    ],
)
def test_factorize_raises_when_the_hull_breaks_an_invariant(monkeypatch, spoil, message):
    # the invariants are checked with a raise, so they still hold under python -O
    rs = _stacked_triple()
    hull = lattice_module.causal_hull

    def spoiled_hull(lattice, seeds):
        return Region(lattice, frozenset(spoil(hull(lattice, seeds).points)))

    monkeypatch.setattr(lattice_module, "causal_hull", spoiled_hull)
    with pytest.raises(ValueError, match=message):
        factorize_tuple(rs)


def test_slab_is_full_block():
    lattice = Lattice(5)
    s = slab(lattice, 0, 2)
    assert s.points == {Point(t, x) for t in range(0, 3) for x in range(5)}
    assert is_causally_convex(s)


@pytest.mark.parametrize("n_sites", [1, 2, 5, 21])
def test_slab_is_the_hull_of_its_two_slices(n_sites):
    # slab builds its points directly; the hull of the two full slices is
    # the reference
    for slope in (1, 2, 3):
        lattice = Lattice(n_sites, slope)
        for t_lo, t_hi in ((0, 0), (-1, 1), (-4, 4), (2, 5)):
            seeds = lattice.slice_points(t_lo) + lattice.slice_points(t_hi)
            s, hull = slab(lattice, t_lo, t_hi), causal_hull(lattice, seeds)
            assert s == hull


def test_cutoff_partition():
    cut = CutoffData(0)
    for t in range(-4, 5):
        assert cut.chi_plus(t) + cut.chi_minus(t) == 1
    assert cut.chi_plus(1) == 1 and cut.chi_plus(0) == 0


def test_validate_ring_size():
    lattice = Lattice(5)
    r = causal_hull(lattice, [(0, 0), (3, 0)])
    with pytest.raises(ValueError):
        validate_ring_size(lattice, [r])
    validate_ring_size(Lattice(21), [causal_hull(Lattice(21), [(0, 0), (3, 0)])])


def test_regions_are_hashable_keys():
    # equal regions, built by different routes or on equal lattices, collapse
    # to one dict key and one set member
    lattice = Lattice(9)
    point = causal_hull(lattice, [(0, 0)])
    assert hash(point) == hash(causal_hull(Lattice(9), [(0, 9)]))
    diamond = causal_hull(lattice, [(0, 0), (2, 0)])
    block = slab(Lattice(9), 0, 2)
    regions = [point, diamond, block, causal_hull(Lattice(9), [(2, 9), (0, 0)]),
               causal_hull(lattice, lattice.slice_points(0) + lattice.slice_points(2))]
    assert len(set(regions)) == 3
    index = {r: i for i, r in enumerate(regions)}
    assert index == {point: 0, diamond: 3, block: 4}
    assert causal_hull(Lattice(9, slope=2), [(0, 0)]) not in index
    assert hash(Lattice(9)) == hash(lattice) and Lattice(9) != Lattice(9, 2)


def test_lattice_is_a_validated_frozen_value():
    assert repr(Lattice(21)) == "Lattice(n_sites=21, slope=1)"
    for bad in ((0,), (5, 0)):
        with pytest.raises(ValueError):
            Lattice(*bad)
    lattice = Lattice(5, slope=2)
    with pytest.raises(AttributeError):
        lattice.n_sites = 7
    assert [lattice.shift(x, 3) for x in (-8, -1, 0, 2, 9)] == [0, 2, 3, 0, 2]
    # the cone rule admits |dx| <= slope * dt and nothing when dt < 0
    assert [d for d in range(-6, 7) if lattice.within_slope(d, 2)] == list(range(-4, 5))
    assert not any(lattice.within_slope(d, -1) for d in range(-6, 7))


def test_lattice_and_regions_survive_copy_and_pickle():
    # copies of a frozen value are equal values of the same type, and a
    # region copied or pickled with its lattice is still the same dict key
    lattice = Lattice(5, slope=2)
    region = causal_hull(lattice, [(0, 0), (2, 1)])
    for clone in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
        assert (type(clone(lattice)), clone(lattice)) == (Lattice, lattice)
        assert clone(region) == region and hash(clone(region)) == hash(region)
        assert clone(region).lattice == lattice

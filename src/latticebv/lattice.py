"""Discrete globally hyperbolic spacetimes: an infinite time axis times a
spatial ring Z_N, with slope-bounded causal cones.

The ambient cylinder is fixed; "spacetime regions" are its causally convex
subsets and morphisms are inclusions and translations.  A point (t', x')
lies in the causal future of (t, x) iff the ring distance from x to x' is at
most slope*(t' - t).
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional


class Point(NamedTuple):
    t: int
    x: int


class Lattice:
    """Spatial ring Z_N of n_sites with a causal cone of the given slope.

    The lattice owns its translation group, so no other module reduces
    modulo n_sites: :meth:`shift` moves a site along the ring,
    :meth:`within_slope` is the one cone rule (:meth:`in_future_of` applies
    it to the ring distance of two points), and :meth:`class_key` and
    :meth:`class_pairs` sort generator pairs into translation classes.

    A validated, immutable value: equal to and hashed as its
    (n_sites, slope), and equal to no other type.  It holds the ring
    distance of every offset, so a cone test is one lookup.
    """

    __slots__ = ("n_sites", "slope", "_dist")

    def __init__(self, n_sites: int, slope: int = 1):
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if slope < 1:
            raise ValueError("slope must be >= 1")
        object.__setattr__(self, "n_sites", n_sites)
        object.__setattr__(self, "slope", slope)
        object.__setattr__(self, "_dist", tuple(min(d, n_sites - d) for d in range(n_sites)))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __repr__(self):
        return f"Lattice(n_sites={self.n_sites!r}, slope={self.slope!r})"

    def __eq__(self, other):
        if type(other) is not Lattice:
            return NotImplemented
        return self.n_sites == other.n_sites and self.slope == other.slope

    def __hash__(self):
        return hash((self.n_sites, self.slope))

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor, since
        # __setattr__ refuses the slot-by-slot restore they would otherwise use
        return Lattice, (self.n_sites, self.slope)

    def shift(self, x: int, a: int) -> int:
        """The site x translated by a along the ring."""
        return (x + a) % self.n_sites

    def point(self, t: int, x: int) -> Point:
        return Point(t, x % self.n_sites)

    def ring_dist(self, x1: int, x2: int) -> int:
        return self._dist[(x1 - x2) % self.n_sites]

    def within_slope(self, dx: int, dt: int) -> bool:
        """|dx| <= slope * dt: a spatial offset dx reachable in dt >= 0 time
        steps; false for every dx when dt < 0."""
        return abs(dx) <= self.slope * dt

    def in_future_of(self, base: Point, q: Point) -> bool:
        """q in J^+(base): within_slope of their ring distance, inlined."""
        return self._dist[(q.x - base.x) % self.n_sites] <= self.slope * (q.t - base.t)

    def in_past_of(self, base: Point, q: Point) -> bool:
        return self.in_future_of(q, base)

    def in_cone(self, base: Point, q: Point, direction: int) -> bool:
        if direction > 0:
            return self.in_future_of(base, q)
        return self.in_past_of(base, q)

    def slice_points(self, t: int) -> list[Point]:
        return [Point(t, x) for x in range(self.n_sites)]

    def class_key(self, g1, g2) -> tuple:
        """Translation class of a generator pair (degree, t, x, fiber):
        degrees, fibers and the offset of g2 from g1 on the cylinder.  Q, W
        and the fiber metric do not depend on the site and G± are unique, so
        every pairing of two deltas takes one value per class."""
        return g1[0], g1[3], g2[0], g2[3], g2[1] - g1[1], (g2[2] - g1[2]) % self.n_sites

    def class_pairs(self, gens1, gens2):
        """(class_key(g1, g2), g1, g2) for the pairs of product(gens1, gens2)
        in that order, skipping every pair whose translation class has
        already appeared.  The pairings, Q and the fiber metric take one
        value per class, so a check over these pairs quantifies over the
        generator basis modulo translation: it decides what the check over
        every pair decides, and its first failing pair is the same."""
        seen = set()
        for g1, g2 in product(gens1, gens2):
            key = self.class_key(g1, g2)
            if key not in seen:
                seen.add(key)
                yield key, g1, g2


class Region(NamedTuple):
    """A finite, nonempty, causally convex set of points of the cylinder.

    Built only by :func:`causal_hull` and :func:`slab`, so convexity holds by
    construction.  Hashable, as its lattice is: equal regions are one dict
    key.
    """

    lattice: Lattice
    points: frozenset

    def contains(self, p: Point) -> bool:
        return p in self.points

    def contains_region(self, other: "Region") -> bool:
        return other.points <= self.points

    def time_range(self):
        ts = [p.t for p in self.points]
        return min(ts), max(ts)


def causal_hull(lattice: Lattice, seeds) -> Region:
    """Smallest causally convex region containing the seeds: J^+(S) & J^-(S).

    Finite because the intersection of an up-cone and a down-cone is trapped
    between the extreme seed times.
    """
    seeds = [lattice.point(*p) for p in seeds]
    if not seeds:
        raise ValueError("causal_hull needs a nonempty seed set")
    t_lo = min(p.t for p in seeds)
    t_hi = max(p.t for p in seeds)
    pts = set()
    for t in range(t_lo, t_hi + 1):
        # J^+(S) at t: sites within slope*(t - s.t) of a seed s; ring distances are <= n/2
        reach = set()
        for s in seeds:
            if s.t <= t:
                r = min(lattice.slope * (t - s.t), lattice.n_sites // 2)
                reach.update(lattice.shift(s.x, dx) for dx in range(-r, r + 1))
        for x in reach:
            q = Point(t, x)
            if any(lattice.in_past_of(s, q) for s in seeds):
                pts.add(q)
    return Region(lattice, frozenset(pts))


def slab(lattice: Lattice, t_lo: int, t_hi: int) -> Region:
    """Causally convex slab t_lo <= t <= t_hi, the hull of its two end slices."""
    if t_lo > t_hi:
        raise ValueError("t_lo > t_hi")
    pts = set()
    for t in range(t_lo, t_hi + 1):
        pts.update(lattice.slice_points(t))
    return Region(lattice, frozenset(pts))


def _meets_future(r_past: Region, r_future: Region) -> bool:
    """J^+(r_past) intersects r_future?"""
    lattice = r_past.lattice
    return any(lattice.in_future_of(p, q) for p in r_past.points for q in r_future.points)


def causally_disjoint(r1: Region, r2: Region) -> bool:
    """No causal curve connects the regions: (J^+ u J^-)(r1) misses r2."""
    return not (_meets_future(r1, r2) or _meets_future(r2, r1))


def is_time_ordered(regions) -> bool:
    """J^+(R_i) misses R_j for all i < j (first region is latest)."""
    rs = list(regions)
    for i in range(len(rs)):
        for j in range(i + 1, len(rs)):
            if _meets_future(rs[i], rs[j]):
                return False
    return True


def find_time_ordering(regions) -> Optional[tuple]:
    """Permutation rho with (R_rho[0], ..., R_rho[n-1]) time-ordered, or None.

    Regions must be pairwise set-disjoint.  If J^+(R_i) meets R_j then i must
    come after j; topological sort, smallest original index first among the
    available nodes (deterministic tie-break).
    """
    rs = list(regions)
    n = len(rs)
    for i in range(n):
        for j in range(i + 1, n):
            if rs[i].points & rs[j].points:
                raise ValueError("overlapping regions in tuple")
    # edge j -> i when i must be placed after j
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and _meets_future(rs[i], rs[j]):
                succ[j].append(i)
                indeg[i] += 1
    ready = {i for i in range(n) if indeg[i] == 0}
    order = []
    while ready:
        i = min(ready)
        ready.remove(i)
        order.append(i)
        for k in succ[i]:
            indeg[k] -= 1
            if indeg[k] == 0:
                ready.add(k)
    if len(order) != n:
        return None
    return tuple(order)


def factorize_tuple(regions):
    """Split a time-ordered tuple (n >= 2) as (hull of the first n-1, last).

    Returns (hull_region, inner_regions, outer_pair) where the inner tuple
    lives inside the hull, (hull, last) is a time-ordered pair, and the
    inclusions compose to the original ones.
    """
    rs = list(regions)
    if len(rs) < 2:
        raise ValueError("factorization needs length >= 2")
    if not is_time_ordered(rs):
        raise ValueError("tuple is not time-ordered")
    seeds = [p for r in rs[:-1] for p in r.points]
    hull = causal_hull(rs[0].lattice, seeds)
    if not all(hull.contains_region(r) for r in rs[:-1]):
        raise ValueError("hull misses an inner region")
    outer = [hull, rs[-1]]
    if not is_time_ordered(outer):
        raise ValueError("hull and last region are not time-ordered")
    return hull, rs[:-1], outer


class CutoffData(NamedTuple):
    """Partition of unity {chi_+, chi_-} subordinate to the two-sided cover
    around a cut time: chi_+ = [t >= t0+1], chi_- = [t <= t0].

    The slices Sigma_- = {t = t0-1} and Sigma_+ = {t = t0+1} satisfy
    supp chi_+ in I^+(Sigma_-) and supp chi_- in I^-(Sigma_+).
    """

    t0: int

    def chi_plus(self, t: int) -> int:
        return 1 if t >= self.t0 + 1 else 0

    def chi_minus(self, t: int) -> int:
        return 1 - self.chi_plus(t)


def validate_ring_size(lattice: Lattice, regions) -> None:
    """Reject configs where the compact ring wraps the cones of the test
    regions: require n_sites > 2*slope*(joint time extent)."""
    ranges = [r.time_range() for r in regions]
    extent = max(hi for _, hi in ranges) - min(lo for lo, _ in ranges) + 1
    if lattice.n_sites <= 2 * lattice.slope * extent:
        raise ValueError(
            f"ring size {lattice.n_sites} too small for regions spanning "
            f"{extent} time steps at slope {lattice.slope}: cones wrap"
        )

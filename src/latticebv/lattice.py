"""Discrete globally hyperbolic spacetimes: an infinite time axis times a
spatial ring Z_N, with slope-bounded causal cones.

The ambient cylinder is fixed; "spacetime regions" are its causally convex
subsets and morphisms are inclusions (plus time translations).  A point
(t', x') lies in the causal future of (t, x) iff t' >= t and the ring
distance from x to x' is at most slope*(t' - t).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import NamedTuple, Optional


class Point(NamedTuple):
    t: int
    x: int


class UnsupportedInput(ValueError):
    pass


class Lattice:
    """Spatial ring of n_sites with a causal cone of the given slope."""

    def __init__(self, n_sites: int, slope: int = 1):
        if n_sites < 1:
            raise ValueError("n_sites must be >= 1")
        if slope < 1:
            raise ValueError("slope must be >= 1")
        self.n_sites = n_sites
        self.slope = slope

    def __eq__(self, other):
        return (
            isinstance(other, Lattice)
            and self.n_sites == other.n_sites
            and self.slope == other.slope
        )

    def __repr__(self):
        return f"Lattice(n_sites={self.n_sites}, slope={self.slope})"

    def point(self, t: int, x: int) -> Point:
        return Point(t, x % self.n_sites)

    def ring_dist(self, x1: int, x2: int) -> int:
        d = (x1 - x2) % self.n_sites
        return min(d, self.n_sites - d)

    def in_future_of(self, base: Point, q: Point) -> bool:
        """q in J^+(base)."""
        dt = q.t - base.t
        return dt >= 0 and self.ring_dist(q.x, base.x) <= self.slope * dt

    def in_past_of(self, base: Point, q: Point) -> bool:
        return self.in_future_of(Point(-base.t, base.x), Point(-q.t, q.x))

    def in_cone(self, base: Point, q: Point, direction: int) -> bool:
        if direction > 0:
            return self.in_future_of(base, q)
        return self.in_past_of(base, q)

    def slice_points(self, t: int) -> list[Point]:
        return [Point(t, x) for x in range(self.n_sites)]


def causal_future(lattice: Lattice, seeds, horizon: int, direction: int = 1):
    """J^±(S): (membership predicate, enumeration up to the horizon).

    The enumeration covers slices t in [extreme t of S, extreme + horizon]
    (moving with the cone direction); the predicate is valid everywhere.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    seeds = [lattice.point(*p) for p in seeds]
    if not seeds:
        return (lambda q: False), []

    def member(q: Point) -> bool:
        return any(lattice.in_cone(s, q, direction) for s in seeds)

    base_t = min(p.t for p in seeds) if direction > 0 else max(p.t for p in seeds)
    pts = []
    for k in range(horizon + 1):
        t = base_t + k * direction
        pts.extend(q for q in lattice.slice_points(t) if member(q))
    return member, pts


@dataclass(frozen=True)
class Region:
    """A subset of the ambient cylinder: 'all', or a finite causal hull.

    Causally convex hulls are constructed through :func:`causal_hull`, which
    tags the region so convexity is known by construction (and testable via
    :meth:`is_causally_convex`).
    """

    lattice: Lattice
    kind: str  # "all" | "hull"
    points: Optional[frozenset] = None
    seeds: tuple = field(default=())

    @staticmethod
    def all_of(lattice: Lattice) -> "Region":
        return Region(lattice, "all")

    @property
    def is_finite(self) -> bool:
        return self.points is not None

    def contains(self, p: Point) -> bool:
        if self.kind == "all":
            return True
        return p in self.points

    def contains_region(self, other: "Region") -> bool:
        if self.kind == "all":
            return True
        if not other.is_finite:
            return False
        return other.points <= self.points

    def time_range(self):
        if not self.is_finite or not self.points:
            raise UnsupportedInput("time_range needs a nonempty finite region")
        ts = [p.t for p in self.points]
        return min(ts), max(ts)

    def is_causally_convex(self) -> bool:
        if self.kind == "all":
            return True
        return causal_hull(self.lattice, self.points).points == self.points

    def translate(self, dt: int) -> "Region":
        if self.kind == "all":
            return self
        pts = frozenset(Point(p.t + dt, p.x) for p in self.points)
        return Region(self.lattice, self.kind, pts, tuple(Point(s.t + dt, s.x) for s in self.seeds))


def causal_hull(lattice: Lattice, seeds) -> Region:
    """Smallest causally convex region containing the seeds: J^+(S) & J^-(S).

    Finite because the intersection of an up-cone and a down-cone is trapped
    between the extreme seed times.
    """
    seeds = [lattice.point(*p) for p in seeds]
    if not seeds:
        raise UnsupportedInput("causal_hull needs a nonempty seed set")
    t_lo = min(p.t for p in seeds)
    t_hi = max(p.t for p in seeds)
    pts = set()
    for t in range(t_lo, t_hi + 1):
        for q in lattice.slice_points(t):
            if any(lattice.in_future_of(s, q) for s in seeds) and any(
                lattice.in_past_of(s, q) for s in seeds
            ):
                pts.add(q)
    return Region(lattice, "hull", frozenset(pts), tuple(seeds))


def slab(lattice: Lattice, t_lo: int, t_hi: int) -> Region:
    """Causally convex slab t_lo <= t <= t_hi (hull of two full slices)."""
    if t_lo > t_hi:
        raise ValueError("t_lo > t_hi")
    return causal_hull(lattice, lattice.slice_points(t_lo) + lattice.slice_points(t_hi))


def _meets_future(r_past: Region, r_future: Region) -> bool:
    """J^+(r_past) intersects r_future?  At least one region must be finite."""
    lattice = r_past.lattice
    if r_past.is_finite and r_future.is_finite:
        return any(
            lattice.in_future_of(p, q) for p in r_past.points for q in r_future.points
        )
    if not r_past.is_finite and not r_future.is_finite:
        raise UnsupportedInput("need at least one finite region")
    # One region is 'all': its cone meets anything nonempty.
    fin = r_past if r_past.is_finite else r_future
    return bool(fin.points)


def causally_disjoint(r1: Region, r2: Region) -> bool:
    """No causal curve connects the regions: (J^+ u J^-)(r1) misses r2."""
    if not r1.is_finite and not r2.is_finite:
        raise UnsupportedInput("causally_disjoint needs a finite region")
    if (r1.is_finite and not r1.points) or (r2.is_finite and not r2.points):
        return True
    if not r1.is_finite or not r2.is_finite:
        return False  # the 'all' region meets everything
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
            if rs[i].is_finite and rs[j].is_finite and rs[i].points & rs[j].points:
                raise ValueError("overlapping regions in tuple")
    # edge j -> i when i must be placed after j
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in range(n):
            if i != j and _meets_future(rs[i], rs[j]):
                succ[j].append(i)
                indeg[i] += 1
    ready = [i for i in range(n) if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        i = heapq.heappop(ready)
        order.append(i)
        for k in succ[i]:
            indeg[k] -= 1
            if indeg[k] == 0:
                heapq.heappush(ready, k)
    if len(order) != n:
        return None
    return tuple(order)


def factorize_tuple(regions, target: Region):
    """Split a time-ordered tuple (n >= 2) as (hull of the first n-1, last).

    Returns (hull_region, inner_regions, outer_pair) where the inner tuple
    lives inside the hull, (hull, last) is a time-ordered pair in the target,
    and the inclusions compose to the original ones.
    """
    rs = list(regions)
    if len(rs) < 2:
        raise ValueError("factorization needs length >= 2")
    if not is_time_ordered(rs):
        raise ValueError("tuple is not time-ordered")
    lattice = target.lattice
    seeds = [p for r in rs[:-1] for p in r.points]
    hull = causal_hull(lattice, seeds)
    for r in rs[:-1]:
        assert hull.contains_region(r)
    outer = [hull, rs[-1]]
    assert is_time_ordered(outer)
    return hull, rs[:-1], outer


def is_cauchy_region(region: Region, target: Region) -> bool:
    """Does the region contain a full constant-time slice of the target?"""
    if target.kind != "all":
        raise UnsupportedInput("only the ambient target is supported")
    if region.kind == "all":
        return True
    if not region.points:
        return False
    lattice = region.lattice
    t_lo, t_hi = region.time_range()
    full = set(range(lattice.n_sites))
    for t in range(t_lo, t_hi + 1):
        if {p.x for p in region.points if p.t == t} == full:
            return True
    return False


@dataclass(frozen=True)
class CutoffData:
    """Partition of unity {chi_+, chi_-} subordinate to the two-sided cover
    around a cut time: chi_+ = [t >= t0+1], chi_- = [t <= t0].

    The slices Sigma_- = {t = t0-1} and Sigma_+ = {t = t0+1} satisfy
    supp chi_+ in I^+(Sigma_-) and supp chi_- in I^-(Sigma_+).
    """

    t0: int

    @property
    def sigma_minus(self) -> int:
        return self.t0 - 1

    @property
    def sigma_plus(self) -> int:
        return self.t0 + 1

    def chi_plus(self, t: int) -> int:
        return 1 if t >= self.t0 + 1 else 0

    def chi_minus(self, t: int) -> int:
        return 1 - self.chi_plus(t)


def make_cutoff(t0: int) -> CutoffData:
    return CutoffData(t0)


def validate_ring_size(lattice: Lattice, regions) -> None:
    """Reject configs where the compact ring wraps the cones of the test
    regions: require n_sites > 2*slope*(joint time extent)."""
    finite = [r for r in regions if r.is_finite and r.points]
    if not finite:
        return
    t_lo = min(r.time_range()[0] for r in finite)
    t_hi = max(r.time_range()[1] for r in finite)
    extent = t_hi - t_lo + 1
    if lattice.n_sites <= 2 * lattice.slope * extent:
        raise ValueError(
            f"ring size {lattice.n_sites} too small for regions spanning "
            f"{extent} time steps at slope {lattice.slope}: cones wrap"
        )

"""Free field complexes on the lattice: finite-stencil operators Q and W, a
degree -1 fiber metric, retarded/advanced solvers for P = QW + WQ, the
homotopies Lambda_{+,-,D} and the three pairings they induce.

Degree conventions
------------------
Sections are graded by the bundle degree n; the fiber metric pairs degree n
with degree 1 - n.  The observable complex is the 1-shift: a bundle-degree-n
section sits in shifted degree n - 1 and the shifted differential is -Q.
All pairing formulas below are expressed through shifted degrees:

    tau_m1(psi1, psi2) = (-1)^{|psi1|} <<psi1, psi2>>          (degree +1, symmetric)
    tau_0 (psi1, psi2) = <<psi1, (L+ - L-) psi2>>              (degree 0, anti-symmetric)
    tau_D (psi1, psi2) = <<psi1, (L+ + L-)/2 psi2>>            (degree 0, symmetric)

with <<phi, psi>> the pointwise fiber metric summed over the lattice
(volume weight 1 per point) and L± = G±(W -).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .lattice import Lattice, Point, Region, CutoffData
from .scalars import rational

SectionKey = tuple  # (degree, t, x, fiber)


class Section:
    """Finitely supported graded section: {(deg, t, x, fiber): rational}.

    Values are exact rationals narrowed by :func:`rational`: a nonzero
    ``int``, or a ``Fraction`` whose denominator is not 1.
    """

    __slots__ = ("data",)

    def __init__(self, data=None):
        self.data = {k: rational(v) for k, v in (data or {}).items() if v}

    @staticmethod
    def delta(degree: int, point: Point, fiber: int = 0, coeff=1) -> "Section":
        return Section({(degree, point.t, point.x, fiber): coeff})

    def __bool__(self):
        return bool(self.data)

    def __eq__(self, other):
        return isinstance(other, Section) and self.data == other.data

    def __add__(self, other):
        out = dict(self.data)
        for k, v in other.data.items():
            s = out.get(k, 0) + v
            if s:
                out[k] = s if type(s) is int else rational(s)
            else:
                out.pop(k, None)
        res = Section()
        res.data = out
        return res

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c) -> "Section":
        c = rational(c)
        res = Section()
        if c:
            res.data = {k: rational(v * c) for k, v in self.data.items()}
        return res

    def items(self):
        return self.data.items()

    def support_points(self):
        return {Point(t, x) for (_, t, x, _) in self.data}

    def degrees(self):
        return {k[0] for k in self.data}

    def min_t(self) -> int:
        return min(k[1] for k in self.data)

    def max_t(self) -> int:
        return max(k[1] for k in self.data)

    def restrict_times(self, t_lo, t_hi) -> "Section":
        res = Section()
        res.data = {k: v for k, v in self.data.items() if t_lo <= k[1] <= t_hi}
        return res

    def multiply_indicator(self, chi_of_t) -> "Section":
        res = Section()
        res.data = {k: v for k, v in self.data.items() if chi_of_t(k[1])}
        return res

    def translate_time(self, dt: int) -> "Section":
        res = Section()
        res.data = {(d, t + dt, x, f): v for (d, t, x, f), v in self.data.items()}
        return res

    def supported_in(self, region: Region) -> bool:
        return all(region.contains(p) for p in self.support_points())

    def __repr__(self):
        return f"Section({self.data!r})"


ZERO_SECTION = Section()


@dataclass(frozen=True)
class StencilEntry:
    dt: int
    dx: int
    fin: int
    fout: int
    coeff: int | Fraction


class Stencil:
    """Translation-invariant finite-stencil operator of fixed degree shift.

    Convention: (S phi)(n + shift, (t, x), fout) =
        sum over entries e at input degree n with e.fout == fout of
        e.coeff * phi(n, (t + e.dt, x + e.dx), e.fin).

    Coefficients are merged per offset and narrowed by :func:`rational`.
    """

    def __init__(self, degree_shift: int, entries: dict):
        self.degree_shift = degree_shift
        self.entries = {}
        for n, es in entries.items():
            merged: dict = {}
            for e in es:
                key = (e.dt, e.dx, e.fin, e.fout)
                merged[key] = merged.get(key, 0) + e.coeff
            cleaned = tuple(
                StencilEntry(dt, dx, fin, fout, rational(c))
                for (dt, dx, fin, fout), c in sorted(merged.items())
                if c
            )
            if cleaned:
                self.entries[n] = cleaned

    def __eq__(self, other):
        return (
            isinstance(other, Stencil)
            and self.degree_shift == other.degree_shift
            and self.entries == other.entries
        )

    def is_zero(self) -> bool:
        return not self.entries

    def time_radius(self) -> int:
        r = 0
        for es in self.entries.values():
            for e in es:
                r = max(r, abs(e.dt))
        return r

    def apply(self, section: Section, lattice: Lattice) -> Section:
        out: dict = {}
        shift = self.degree_shift
        n_sites = lattice.n_sites
        for (n, t, x, fin), val in section.items():
            for e in self.entries.get(n, ()):
                if e.fin != fin:
                    continue
                key = (n + shift, t - e.dt, (x - e.dx) % n_sites, e.fout)
                s = out.get(key, 0) + val * e.coeff
                if s:
                    out[key] = s if type(s) is int else rational(s)
                else:
                    out.pop(key, None)
        res = Section()
        res.data = out
        return res

    def compose(self, other: "Stencil") -> "Stencil":
        """self after other."""
        entries: dict = {}
        for n, es_other in other.entries.items():
            mid = n + other.degree_shift
            es_self = self.entries.get(mid, ())
            if not es_self:
                continue
            acc = entries.setdefault(n, [])
            for eo in es_other:
                for es in es_self:
                    if es.fin != eo.fout:
                        continue
                    acc.append(
                        StencilEntry(
                            es.dt + eo.dt,
                            es.dx + eo.dx,
                            eo.fin,
                            es.fout,
                            es.coeff * eo.coeff,
                        )
                    )
        return Stencil(self.degree_shift + other.degree_shift, entries)

    def add(self, other: "Stencil") -> "Stencil":
        if self.degree_shift != other.degree_shift:
            raise ValueError("degree shift mismatch")
        entries: dict = {n: list(es) for n, es in self.entries.items()}
        for n, es in other.entries.items():
            entries.setdefault(n, []).extend(es)
        return Stencil(self.degree_shift, entries)

    def scale(self, c) -> "Stencil":
        return Stencil(
            self.degree_shift,
            {
                n: [StencilEntry(e.dt, e.dx, e.fin, e.fout, e.coeff * c) for e in es]
                for n, es in self.entries.items()
            },
        )

    def sub(self, other: "Stencil") -> "Stencil":
        return self.add(other.scale(-1))


class FiberMetric:
    """Degree -1 fiber metric: blocks[n] pairs bundle degree n (first slot)
    with degree 1-n (second slot).  Graded anti-symmetry amounts to
    blocks[1-n] = -transpose(blocks[n]) since n(1-n) is always even."""

    def __init__(self, blocks: dict):
        self.blocks = {
            n: tuple(tuple(rational(c) for c in row) for row in mat)
            for n, mat in blocks.items()
        }

    def is_graded_antisymmetric(self) -> bool:
        for n, mat in self.blocks.items():
            other = self.blocks.get(1 - n)
            if other is None:
                return False
            rows, cols = len(mat), len(mat[0]) if mat else 0
            if len(other) != cols or (other and len(other[0]) != rows):
                return False
            for i in range(rows):
                for j in range(cols):
                    if other[j][i] != -mat[i][j]:
                        return False
        return True

    def is_nondegenerate(self) -> bool:
        for mat in self.blocks.values():
            if len(mat) != len(mat[0]):
                return False
            if _det(mat) == 0:
                return False
        return True


def _det(mat) -> Fraction:
    m = [[Fraction(c) for c in row] for row in mat]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                factor = m[r][col] / m[col][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[col])]
    return det


def _invert(mat):
    n = len(mat)
    aug = [
        [Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
        for i, row in enumerate(mat)
    ]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col]
        aug[col] = [a / inv for a in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(rational(c) for c in row[n:]) for row in aug)


class NotGreenHyperbolic(ValueError):
    pass


@dataclass
class _DegreeSolveData:
    d_plus: int
    d_minus: int
    top_inv: tuple
    bot_inv: tuple
    lower_entries: tuple  # entries with dt < d_plus (retarded recursion)
    upper_entries: tuple  # entries with dt > -d_minus (advanced recursion)


class FreeBVModel:
    """A free field complex (Q, fiber metric, witness W) on the lattice.

    P := QW + WQ is assembled by exact stencil composition; its per-degree
    causal-triangular solve data (invertible spatially-diagonal top and
    bottom time blocks) is what makes the retarded and advanced solvers
    exact.
    """

    def __init__(self, name, lattice: Lattice, ranks: dict, q_op: Stencil, w_op: Stencil, metric: FiberMetric):
        self.name = name
        self.lattice = lattice
        self.ranks = dict(ranks)
        self.q_op = q_op
        self.w_op = w_op
        self.metric = metric
        self.p_op = q_op.compose(w_op).add(w_op.compose(q_op))
        self._solve_data: dict = {}
        self._solvers: dict = {}

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, degree: int) -> int:
        return self.ranks.get(degree, 0)

    def solve_data(self, degree: int) -> _DegreeSolveData:
        data = self._solve_data.get(degree)
        if data is None:
            data = self._solve_data.setdefault(degree, self._build_solve_data(degree))
        return data

    def _build_solve_data(self, degree: int) -> _DegreeSolveData:
        entries = self.p_op.entries.get(degree, ())
        rank = self.rank(degree)
        if not entries:
            raise NotGreenHyperbolic(f"P vanishes in degree {degree}")
        d_plus = max(e.dt for e in entries)
        d_minus = -min(e.dt for e in entries)
        slope = self.lattice.slope

        def block(dt_sel):
            mat = [[0] * rank for _ in range(rank)]
            for e in entries:
                if e.dt == dt_sel:
                    if e.dx != 0:
                        raise NotGreenHyperbolic(
                            f"time-extreme block at dt={dt_sel} not spatially diagonal"
                        )
                    mat[e.fout][e.fin] += e.coeff
            return mat

        try:
            top_inv = _invert(block(d_plus))
            bot_inv = _invert(block(-d_minus))
        except ValueError as exc:
            raise NotGreenHyperbolic(f"boundary block singular in degree {degree}") from exc
        lower = tuple(e for e in entries if e.dt < d_plus)
        upper = tuple(e for e in entries if e.dt > -d_minus)
        for e in lower:
            if abs(e.dx) > slope * (d_plus - e.dt):
                raise NotGreenHyperbolic("retarded propagation leaves the causal cone")
        for e in upper:
            if abs(e.dx) > slope * (e.dt + d_minus):
                raise NotGreenHyperbolic("advanced propagation leaves the causal cone")
        return _DegreeSolveData(d_plus, d_minus, top_inv, bot_inv, lower, upper)

    def green(self, direction: int) -> "GreenSolver":
        solver = self._solvers.get(direction)
        if solver is None:
            # setdefault: threads racing here all get the one stored solver
            solver = self._solvers.setdefault(direction, GreenSolver(self, direction))
        return solver

    # -- integration pairing -------------------------------------------

    def int_pairing(self, phi: Section, psi: Section):
        """<<phi, psi>> = sum over points of the fiber metric pairing."""
        acc = 0
        metric = self.metric
        for (n, t, x, i), v in phi.items():
            m = 1 - n
            mat = metric.blocks.get(n)
            if mat is None:
                continue
            row = mat[i]
            for j, coeff in enumerate(row):
                if not coeff:
                    continue
                w = psi.data.get((m, t, x, j))
                if w is not None:
                    acc += v * w * coeff
        return rational(acc)


class GreenSolver:
    """Retarded (direction +1) or advanced (direction -1) solver for P.

    Sources are memoized: repeated window requests extend the previously
    solved time slices instead of recomputing.  Solver and states may be
    shared between threads: each state fills its slices under its own lock.
    """

    def __init__(self, model: FreeBVModel, direction: int):
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        self.model = model
        self.direction = direction
        self._memo: dict = {}

    def apply(self, source: Section, t_lo: int, t_hi: int) -> Section:
        """The solution of P psi = source with supp(psi) in J^±(supp source),
        evaluated on the time window [t_lo, t_hi]."""
        if not source:
            return Section()
        out = Section()
        for degree in sorted(source.degrees()):
            part = Section()
            part.data = {k: v for k, v in source.items() if k[0] == degree}
            state = self._state(degree, part)
            out = out + state.window(t_lo, t_hi)
        return out

    def _state(self, degree: int, source: Section) -> "_SolveState":
        key = (degree, tuple(sorted(source.items(), key=lambda kv: kv[0])))
        state = self._memo.get(key)
        if state is None:
            # setdefault: threads racing here all get the one stored state
            state = self._memo.setdefault(
                key, _SolveState(self.model, self.direction, degree, source)
            )
        return state

    def value_at(self, source: Section, degree: int, point: Point, fiber: int):
        """Single solved value; avoids materializing window sections."""
        part = Section()
        part.data = {k: v for k, v in source.items() if k[0] == degree}
        if not part:
            return 0
        state = self._state(degree, part)
        state._ensure_time(point.t)
        return state._value(point.t, point.x, fiber)


class _SolveState:
    """The time slices of one source's solution, filled on demand.

    An equation at time eq_t determines the slice at eq_t + d_plus
    (retarded) or eq_t - d_minus (advanced) from slices already solved.
    Slices behind the frontier eq_t are final; the lock keeps the slice
    write and the frontier step of one equation together.
    """

    def __init__(self, model: FreeBVModel, direction: int, degree: int, source: Section):
        self.model = model
        self.direction = direction
        self.degree = degree
        self.source = source
        self.data = model.solve_data(degree)
        # first equation time to read; slices strictly behind the frontier are known
        self.eq_t = source.min_t() if direction > 0 else source.max_t()
        self.slices: dict = {}
        self._lock = threading.Lock()

    def _value(self, t: int, x: int, fiber: int):
        sl = self.slices.get(t)
        if sl is None:
            return 0
        return sl.get((x, fiber), 0)

    def _ensure_time(self, t: int) -> None:
        data = self.data
        step = self.direction
        if step > 0:
            reach, entries, inv = data.d_plus, data.lower_entries, data.top_inv
        else:
            reach, entries, inv = -data.d_minus, data.upper_entries, data.bot_inv
        n_sites = self.model.lattice.n_sites
        ranks = range(self.model.rank(self.degree))
        degree = self.degree
        source = self.source.data
        slices = self.slices
        with self._lock:
            while (t - self.eq_t - reach) * step >= 0:
                eq_t = self.eq_t
                # the known slices each entry reads, fixed for this equation time
                terms = [
                    (known, e.dx, e.fin, e.fout, e.coeff)
                    for e in entries
                    if (known := slices.get(eq_t + e.dt))
                ]
                sl: dict = {}
                for x in range(n_sites):
                    rhs = [source.get((degree, eq_t, x, f), 0) for f in ranks]
                    for known, dx, fin, fout, coeff in terms:
                        val = known.get(((x + dx) % n_sites, fin))
                        if val:
                            rhs[fout] -= val * coeff
                    for f in ranks:
                        acc = 0
                        for g in ranks:
                            c = inv[f][g]
                            if c and rhs[g]:
                                acc += rhs[g] * c
                        if acc:
                            sl[(x, f)] = acc if type(acc) is int else rational(acc)
                slices[eq_t + reach] = sl
                self.eq_t = eq_t + step

    def window(self, t_lo: int, t_hi: int) -> Section:
        if t_lo > t_hi:
            return Section()
        if self.direction > 0:
            self._ensure_time(t_hi)
        else:
            self._ensure_time(t_lo)
        out: dict = {}
        for t in range(t_lo, t_hi + 1):
            sl = self.slices.get(t)
            if not sl:
                continue
            for (x, f), v in sl.items():
                out[(self.degree, t, x, f)] = v
        res = Section()
        res.data = out
        return res


# -- Green homotopies and pairings --------------------------------------


def lambda_pm(model: FreeBVModel, psi: Section, direction: int, t_lo: int, t_hi: int) -> Section:
    """L± psi = G±(W psi), evaluated on the window [t_lo, t_hi]."""
    w_psi = model.w_op.apply(psi, model.lattice)
    if not w_psi:
        return Section()
    return model.green(direction).apply(w_psi, t_lo, t_hi)


def lambda_diff(model: FreeBVModel, psi: Section, t_lo: int, t_hi: int) -> Section:
    """The retarded-minus-advanced map L = L+ - L- on the window."""
    return lambda_pm(model, psi, 1, t_lo, t_hi) - lambda_pm(model, psi, -1, t_lo, t_hi)


def lambda_dirac(model: FreeBVModel, psi: Section, t_lo: int, t_hi: int) -> Section:
    """L_D = (L+ + L-)/2 on the window."""
    half = Fraction(1, 2)
    return (
        lambda_pm(model, psi, 1, t_lo, t_hi) + lambda_pm(model, psi, -1, t_lo, t_hi)
    ).scale(half)


def _shifted_sign(n: int) -> int:
    # (-1)^(shifted degree) for bundle degree n
    return -1 if (n - 1) % 2 else 1


def tau_minus1(model: FreeBVModel, psi1: Section, psi2: Section):
    """(-1)^{|psi1|} <<psi1, psi2>> per homogeneous part (shifted degrees)."""
    acc = 0
    by_deg: dict = {}
    for k, v in psi1.items():
        by_deg.setdefault(k[0], {})[k] = v
    for n, data in by_deg.items():
        part = Section()
        part.data = data
        val = model.int_pairing(part, psi2)
        if val:
            acc += val if _shifted_sign(n) > 0 else -val
    return rational(acc)


def _pair_window(psi1: Section):
    return psi1.min_t(), psi1.max_t()


def tau_0(model: FreeBVModel, psi1: Section, psi2: Section):
    """<<psi1, L psi2>>; the metric is pointwise, so the window where L psi2
    is needed is exactly the time extent of supp psi1."""
    if not psi1 or not psi2:
        return 0
    t_lo, t_hi = _pair_window(psi1)
    return model.int_pairing(psi1, lambda_diff(model, psi2, t_lo, t_hi))


def tau_dirac(model: FreeBVModel, psi1: Section, psi2: Section):
    """<<psi1, L_D psi2>>."""
    if not psi1 or not psi2:
        return 0
    t_lo, t_hi = _pair_window(psi1)
    return model.int_pairing(psi1, lambda_dirac(model, psi2, t_lo, t_hi))


# -- region samples -------------------------------------------------------


def delta_basis(model: FreeBVModel, points) -> list:
    """All delta sections (every degree, fiber) over the given points.

    Points are reduced to canonical ring coordinates here, so windows may be
    specified with negative x offsets.
    """
    out = []
    for p in points:
        q = model.lattice.point(p.t, p.x)
        for n in model.degrees():
            for f in range(model.rank(n)):
                out.append(Section.delta(n, q, f))
    return out


def window_points(t_lo: int, t_hi: int, xs) -> list:
    return [Point(t, x) for t in range(t_lo, t_hi + 1) for x in xs]


# -- Cauchy quasi-inverse (slab regions) ----------------------------------


def quasi_inverse_g(model: FreeBVModel, cutoff: CutoffData, psi: Section) -> Section:
    """g(psi) = [Q, chi_+] (L psi): compactly supported near the cut, equal to
    the identity in cohomology for the inclusion of the surrounding slab.

    [Q, chi_+] vanishes wherever chi_+ is constant across the stencil depth,
    so the result is confined to the band of width 2*radius around the cut.
    """
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


def homotopy_eta(model: FreeBVModel, cutoff: CutoffData, psi: Section) -> Section:
    """eta(psi) = -chi_- L+ psi - chi_+ L- psi (compact: the cutoffs clip the
    retarded/advanced tails)."""
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


def homotopy_zeta(model: FreeBVModel, cutoff: CutoffData, region: Region, psi: Section) -> Section:
    """zeta = eta restricted to sections supported in the Cauchy region; the
    output is checked to stay inside the region."""
    if not psi.supported_in(region):
        raise ValueError("zeta input not supported in the region")
    out = homotopy_eta(model, cutoff, psi)
    if not out.supported_in(region):
        raise ValueError("zeta output leaves the region; move the cutoff inward")
    return out


def check_cutoff_in_region(model: FreeBVModel, cutoff: CutoffData, region: Region) -> None:
    """The cut band (cutoff slices plus stencil margins) must lie inside the
    region for g and zeta to land where they should."""
    rt = max(model.q_op.time_radius(), model.w_op.time_radius(), 1)
    lattice = model.lattice
    for t in range(cutoff.t0 - rt, cutoff.t0 + rt + 1):
        for p in lattice.slice_points(t):
            if not region.contains(p):
                raise ValueError("cutoff slices (with stencil margin) leave the region")

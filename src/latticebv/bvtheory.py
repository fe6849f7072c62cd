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

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .lattice import Lattice, Point, Region, CutoffData
from .scalars import Combination, rational


class Section(Combination):
    """Finitely supported graded section: {(deg, t, x, fiber): rational}.

    Values are exact rationals narrowed by :func:`rational`: a nonzero
    ``int``, or a ``Fraction`` whose denominator is not 1.
    """

    __slots__ = ()
    coerce = staticmethod(rational)

    @property
    def data(self):
        # read-only view of terms: the benchmark tracer keys Green sources on
        # section.data, a dict, because a Combination is unhashable
        return self.terms

    @staticmethod
    def delta(degree: int, point: Point, fiber: int = 0, coeff=1) -> "Section":
        return Section({(degree, point.t, point.x, fiber): coeff})

    def support_points(self):
        return {Point(t, x) for (_, t, x, _) in self.terms}

    def degrees(self):
        return {k[0] for k in self.terms}

    def min_t(self) -> int:
        return min(k[1] for k in self.terms)

    def max_t(self) -> int:
        return max(k[1] for k in self.terms)

    def restrict_times(self, t_lo, t_hi) -> "Section":
        return self._with_terms({k: v for k, v in self.terms.items() if t_lo <= k[1] <= t_hi})

    def translate_time(self, dt: int) -> "Section":
        return self._with_terms(
            {(d, t + dt, x, f): v for (d, t, x, f), v in self.terms.items()}
        )

    def supported_in(self, region: Region) -> bool:
        return all(region.contains(p) for p in self.support_points())


def _integer_form(items):
    """(d, pairs): the (key, rational) pairs of items as (key, integer
    numerator) pairs over d, their least common denominator; items itself
    when d is 1.  items must be iterable twice."""
    den = 1
    for _, v in items:
        if type(v) is not int:
            den = lcm(den, v.denominator)
    if den == 1:
        return 1, items
    return den, tuple((k, v.numerator * (den // v.denominator)) for k, v in items)


def _translate_sum(section: Section, parts, shift) -> Section:
    """The image of section under a map that commutes with x-translation:
    parts(n, t, f) yields the image of the delta at (n, t, x = 0, f) as parts
    (d, dt, entries), each entry ((m, y, g), c) the value c / d at (m, t + dt,
    y, g).  Integer numerators are summed over one denominator, rescaled when
    a part needs a new one, then narrowed as :func:`rational` narrows them,
    zero keys dropped: the exact sum, as with ``Fraction`` terms."""
    den, items = _integer_form(section.items())
    out: dict = {}
    scale = 1  # out holds numerators over den * scale
    for (n, t, x, f), a in items:
        for d, dt, entries in parts(n, t, f):
            if scale % d:
                k = lcm(scale, d) // scale
                scale *= k
                for key in out:
                    out[key] *= k
            b = a * (scale // d)
            s = t + dt
            for (m, y, g), c in entries:
                key = (m, s, shift(y, x), g)
                out[key] = out.get(key, 0) + b * c
    den *= scale
    if den != 1:
        out = {k: v // den if v % den == 0 else Fraction(v, den) for k, v in out.items() if v}
    elif 0 in out.values():
        out = {k: v for k, v in out.items() if v}
    return section._with_terms(out)


class StencilEntry(NamedTuple):
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
    :meth:`apply` is a :func:`_translate_sum`.
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
        # (degree, fin) -> the parts of the image of that delta, one per dt
        den, numerators = _integer_form(
            tuple(((n, e), e.coeff) for n, es in self.entries.items() for e in es)
        )
        runs: dict = {}
        for (n, e), c in numerators:
            by_dt = runs.setdefault((n, e.fin), {})
            by_dt.setdefault(-e.dt, []).append(((n + degree_shift, -e.dx, e.fout), c))
        self._parts = {k: [(den, dt, es) for dt, es in by_dt.items()] for k, by_dt in runs.items()}

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
        parts = self._parts
        return _translate_sum(section, lambda n, t, f: parts.get((n, f), ()), lattice.shift)

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
            try:
                _invert(mat)
            except ValueError:
                return False
        return True


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


class _DegreeSolveData(NamedTuple):
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
        # eta and g of a delta at x = 0, by (degree, t - t0, fiber)
        self._eta_deltas: dict = {}
        self._g_deltas: dict = {}

    def degrees(self):
        return sorted(self.ranks)

    def rank(self, degree: int) -> int:
        return self.ranks.get(degree, 0)

    def delta_keys(self, points):
        """The keys (degree, t, x, fiber) of the delta sections over the
        points: per point, every degree, then every fiber.  Points are
        reduced to canonical ring coordinates here, so windows may be
        specified with negative x offsets."""
        for p in points:
            t, x = self.lattice.point(p.t, p.x)
            for n in self.degrees():
                for f in range(self.rank(n)):
                    yield n, t, x, f

    def solve_data(self, degree: int) -> _DegreeSolveData:
        data = self._solve_data.get(degree)
        if data is None:
            data = self._solve_data[degree] = self._build_solve_data(degree)
        return data

    def _build_solve_data(self, degree: int) -> _DegreeSolveData:
        entries = self.p_op.entries.get(degree, ())
        rank = self.rank(degree)
        if not entries:
            raise NotGreenHyperbolic(f"P vanishes in degree {degree}")
        d_plus = max(e.dt for e in entries)
        d_minus = -min(e.dt for e in entries)
        within_slope = self.lattice.within_slope

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
            if not within_slope(e.dx, d_plus - e.dt):
                raise NotGreenHyperbolic("retarded propagation leaves the causal cone")
        for e in upper:
            if not within_slope(e.dx, e.dt + d_minus):
                raise NotGreenHyperbolic("advanced propagation leaves the causal cone")
        return _DegreeSolveData(d_plus, d_minus, top_inv, bot_inv, lower, upper)

    def green(self, direction: int) -> "GreenSolver":
        solver = self._solvers.get(direction)
        if solver is None:
            solver = self._solvers[direction] = GreenSolver(self, direction)
        return solver

    # -- integration pairing -------------------------------------------

    def int_pairing(self, phi: Section, psi: Section):
        """<<phi, psi>> = sum over points of the fiber metric pairing.  The
        integer terms add as ints, only the others as Fractions."""
        whole = part = 0
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
                w = psi.terms.get((m, t, x, j))
                if w is not None:
                    term = v * w * coeff
                    if type(term) is int:
                        whole += term
                    else:
                        part += term
        return rational(whole + part) if part else whole


class GreenSolver:
    """Retarded (direction +1) or advanced (direction -1) solver for P.

    P is translation invariant and its retarded and advanced Green operators
    are unique, so G± of any source is a translate-and-sum of one kernel per
    (degree, fiber): the solution for a unit delta at (t, x) = (0, 0), kept
    as slices {t: {(x, fout): value}} and time-marched on demand.
    :meth:`apply` is a :func:`_translate_sum`.
    """

    def __init__(self, model: FreeBVModel, direction: int):
        if direction not in (1, -1):
            raise ValueError("direction must be +1 or -1")
        self.model = model
        self.direction = direction
        self._kernels: dict = {}
        # (degree, fiber) -> {t: that kernel slice as a _translate_sum part}
        self._slice_forms: dict = {}

    def kernel(self, degree: int, fiber: int, t: int) -> dict:
        """The slices of the (degree, fiber) kernel, solved through time
        offset t; a slice that is absent is zero.

        The equation at time eq_t determines the slice at eq_t + d_plus
        (retarded) or eq_t - d_minus (advanced) from the slices before it.
        Every slice is stored, so the next equation time is step * len.  A
        new slice is solved only on the sites that the nonzero sites of the
        known slices reach, plus the source site: inside the cone until it
        wraps the ring.
        """
        slices = self._kernels.get((degree, fiber))
        if slices is None:
            slices = self._kernels[(degree, fiber)] = {}
        data = self.model.solve_data(degree)
        step = self.direction
        if step > 0:
            reach, entries, inv = data.d_plus, data.lower_entries, data.top_inv
        else:
            reach, entries, inv = -data.d_minus, data.upper_entries, data.bot_inv
        eq_t = step * len(slices)
        shift = self.model.lattice.shift
        rank = self.model.rank(degree)
        ranks = range(rank)
        while (t - eq_t - reach) * step >= 0:
            rhs = {0: [int(f == fiber) for f in ranks]} if eq_t == 0 else {}
            for e in entries:
                known = slices.get(eq_t + e.dt)
                if not known:
                    continue
                dx, fin, fout, coeff = e.dx, e.fin, e.fout, e.coeff
                for (y, g), val in known.items():
                    if g == fin:
                        row = rhs.get(x := shift(y, -dx))
                        if row is None:
                            row = rhs[x] = [0] * rank
                        row[fout] -= val * coeff
            sl: dict = {}
            for x, row in rhs.items():
                for f in ranks:
                    acc = 0
                    for g in ranks:
                        c = inv[f][g]
                        if c and row[g]:
                            acc += row[g] * c
                    if acc:
                        sl[(x, f)] = acc if type(acc) is int else rational(acc)
            slices[eq_t + reach] = sl
            eq_t += step
        return slices

    def apply(self, source: Section, t_lo: int, t_hi: int) -> Section:
        """The solution of P psi = source with supp(psi) in J^±(supp source),
        evaluated on the time window [t_lo, t_hi]."""

        def parts(n, t, f):  # the nonzero kernel slices in the window
            lo, hi = t_lo - t, t_hi - t
            data = self.model.solve_data(n)
            if self.direction > 0:  # the march stores no slice before d_plus
                lo = max(lo, data.d_plus)
                slices = self.kernel(n, f, hi)
            else:  # nor after -d_minus
                hi = min(hi, -data.d_minus)
                slices = self.kernel(n, f, lo)
            forms = self._slice_forms.setdefault((n, f), {})
            for off in range(lo, hi + 1):
                part = forms.get(off)
                if part is None:
                    sl = slices.get(off)
                    if not sl:
                        continue
                    d, entries = _integer_form(tuple(((n, x, g), v) for (x, g), v in sl.items()))
                    part = forms[off] = (d, off, entries)
                yield part

        return _translate_sum(source, parts, self.model.lattice.shift)

    def value_at(self, source: Section, degree: int, point: Point, fiber: int):
        """Single solved value, one kernel lookup per source term.  The
        reference route: the tests compare it with a direct solve, and the
        slice tables of ``quantize.SymModel`` with it; no check reads it."""
        shift = self.model.lattice.shift
        acc = 0
        for (n, ts, xs, f), v in source.items():
            if n != degree:
                continue
            off = point.t - ts
            sl = self.kernel(n, f, off).get(off)
            if sl:
                kv = sl.get((shift(point.x, -xs), fiber))
                if kv:
                    acc += v * kv
        return rational(acc)


# -- Green homotopies and pairings --------------------------------------


def lambda_pm(model: FreeBVModel, psi: Section, direction: int, t_lo: int, t_hi: int) -> Section:
    """L± psi = G±(W psi), evaluated on the window [t_lo, t_hi]."""
    w_psi = model.w_op.apply(psi, model.lattice)
    if not w_psi:
        return Section()
    return model.green(direction).apply(w_psi, t_lo, t_hi)


def _lambda_sum(model: FreeBVModel, psi: Section, t_lo: int, t_hi: int, c_plus, c_minus) -> Section:
    """c_plus L+ psi + c_minus L- psi on the window, with W psi applied once."""
    out = Section()
    w_psi = model.w_op.apply(psi, model.lattice)
    if w_psi:
        out.add_scaled(model.green(1).apply(w_psi, t_lo, t_hi), c_plus)
        out.add_scaled(model.green(-1).apply(w_psi, t_lo, t_hi), c_minus)
    return out


def lambda_diff(model: FreeBVModel, psi: Section, t_lo: int, t_hi: int) -> Section:
    """The retarded-minus-advanced map L = L+ - L- on the window."""
    return _lambda_sum(model, psi, t_lo, t_hi, 1, -1)


def lambda_dirac(model: FreeBVModel, psi: Section, t_lo: int, t_hi: int) -> Section:
    """L_D = (L+ + L-)/2 on the window."""
    half = Fraction(1, 2)
    return _lambda_sum(model, psi, t_lo, t_hi, half, half)


def tau_minus1(model: FreeBVModel, psi1: Section, psi2: Section):
    """(-1)^{|psi1|} <<psi1, psi2>> per homogeneous part; the shifted degree
    of bundle degree n is n - 1, so the parts of even n change sign."""
    signed = psi1._with_terms({k: v if k[0] % 2 else -v for k, v in psi1.items()})
    return model.int_pairing(signed, psi2)


def _pair_through(lam, model: FreeBVModel, psi1: Section, psi2: Section):
    """<<psi1, lam psi2>>; the metric is pointwise, so the window where
    lam psi2 is needed is exactly the time extent of supp psi1."""
    if not psi1 or not psi2:
        return 0
    return model.int_pairing(psi1, lam(model, psi2, psi1.min_t(), psi1.max_t()))


def tau_0(model: FreeBVModel, psi1: Section, psi2: Section):
    """<<psi1, L psi2>>."""
    return _pair_through(lambda_diff, model, psi1, psi2)


def tau_dirac(model: FreeBVModel, psi1: Section, psi2: Section):
    """<<psi1, L_D psi2>>."""
    return _pair_through(lambda_dirac, model, psi1, psi2)


# -- region samples -------------------------------------------------------


def delta_basis(model: FreeBVModel, points) -> list:
    """All delta sections (every degree, fiber) over the given points, in
    the order of :meth:`FreeBVModel.delta_keys`."""
    return [Section({key: 1}) for key in model.delta_keys(points)]


def window_points(t_lo: int, t_hi: int, xs) -> list:
    return [Point(t, x) for t in range(t_lo, t_hi + 1) for x in xs]


# -- Cauchy quasi-inverse (slab regions) ----------------------------------


def _cut_translate_sum(model: FreeBVModel, cutoff: CutoffData, psi: Section, table: dict, solve) -> Section:
    """A :func:`_translate_sum` of solve(model, cutoff, delta), kept in table
    by (degree, t - t0, fiber) as runs of one time relative to the delta."""
    t0 = cutoff.t0

    def parts(n, t, f):
        runs = table.get((n, t - t0, f))
        if runs is None:
            runs = []
            d, items = _integer_form(solve(model, cutoff, Section.delta(n, Point(t, 0), f)).items())
            for (m, s, y, g), c in items:
                if not runs or runs[-1][1] != s - t:
                    runs.append((d, s - t, []))
                runs[-1][2].append(((m, y, g), c))
            table[(n, t - t0, f)] = runs
        return runs

    return _translate_sum(psi, parts, model.lattice.shift)


def _g_of_delta(model: FreeBVModel, cutoff: CutoffData, delta: Section) -> Section:
    """[Q, chi_+] u = Q(chi_+ u) - chi_+ Q(u) for u = L delta.  At time s it
    reads u at s + dt, |dt| <= r (Q's time radius, at least 1), only across
    the cut, so it lives on the 2r-slice band and reads u only there: Q of
    u's upper r slices on the lower r, minus Q of u's lower r on the upper r."""
    r = max(model.q_op.time_radius(), 1)
    t0 = cutoff.t0
    q, lattice = model.q_op, model.lattice
    u = lambda_diff(model, delta, t0 + 1 - r, t0 + r)
    out = q.apply(u.restrict_times(t0 + 1, t0 + r), lattice).restrict_times(t0 + 1 - r, t0)
    out.add_scaled(q.apply(u.restrict_times(t0 + 1 - r, t0), lattice).restrict_times(t0 + 1, t0 + r), -1)
    return out


def _eta_of_delta(model: FreeBVModel, cutoff: CutoffData, delta: Section) -> Section:
    """-chi_- L+ delta - chi_+ L- delta, each solved on its window on one side
    of the cut (L+ delta starts at t - r_W, L- delta ends at t + r_W)."""
    rt = model.w_op.time_radius()
    t, t0 = delta.min_t(), cutoff.t0
    out = Section()
    out.add_scaled(lambda_pm(model, delta, 1, t - rt, t0), -1)
    out.add_scaled(lambda_pm(model, delta, -1, t0 + 1, t + rt), -1)
    return out


def quasi_inverse_g(model: FreeBVModel, cutoff: CutoffData, psi: Section) -> Section:
    """g(psi) = [Q, chi_+] (L psi): compactly supported near the cut, equal to
    the identity in cohomology for the inclusion of the surrounding slab.

    g is the band term of the commutator: it lives on, and reads L psi only
    on, the 2r slices around the cut, r being Q's time radius (at least 1).
    g is linear and commutes with x-translation, so it is a translate-and-sum
    of one delta solution per (degree, t - t0, fiber).
    """
    return _cut_translate_sum(model, cutoff, psi, model._g_deltas, _g_of_delta)


def homotopy_eta(model: FreeBVModel, cutoff: CutoffData, psi: Section) -> Section:
    """eta(psi) = -chi_- L+ psi - chi_+ L- psi (compact: the cutoffs clip the
    retarded/advanced tails, each solved only on its one-sided window
    below or above the cut); a translate-and-sum of one delta solution per
    (degree, t - t0, fiber), as for g."""
    return _cut_translate_sum(model, cutoff, psi, model._eta_deltas, _eta_of_delta)


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

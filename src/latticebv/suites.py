"""Verification suites: each runs a batch of identity checks against a
configured model and returns CheckRecords for the report.

All randomness is drawn from per-suite Random instances seeded from the
config seed, so identical configs reproduce identical reports (up to wall
times).  Each check yields one outcome per case and :meth:`SuiteRunner.check`
decides the verdict.  Failing quantified checks report the failing basis
element; failing random-element checks shrink the witness first (drop words,
then drop generators) while the failure persists.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import product
from math import comb

from .abstractspace import abstract_space, drawn_rational, randbelow, random_element, random_pairing, random_word
from .bvtheory import (
    Section,
    delta_basis,
    homotopy_eta,
    homotopy_zeta,
    lambda_diff,
    lambda_pm,
    check_cutoff_in_region,
    quasi_inverse_g,
    tau_0,
    tau_dirac,
    tau_minus1,
    window_points,
)
from .lattice import (
    CutoffData,
    Lattice,
    Point,
    Region,
    causal_hull,
    causally_disjoint,
    factorize_tuple,
    is_time_ordered,
    slab,
    validate_ring_size,
)
from .models import MODEL_BUILDERS, build_model, klein_gordon, model_entry
from .quantize import (
    SymModel,
    dirac_nary,
    fa_product,
    filtration_defects,
    gen_map,
    gen_to_section,
    generators_at,
    q_hbar_tensor,
    sym_power_homotopy_defect,
    tpfa_product,
)
from .reporting import CATALOG, SCHEMA_VERSION, SUITE_NAMES, CheckRecord, digest_inputs
from .scalars import IH, coeff_text, rational
from .symalg import (
    PairingOracle,
    SymElement,
    TensorElement,
    bider_apply,
    bider_recursive,
    bider_tensor,
    boundary_pairing,
    extend_derivation,
    laplacian_apply,
    laplacian_recursive,
    laplacian_tensor,
    mul,
    normalize,
    sym_map,
    tensor_braiding,
    tensor_mu,
    word_degree,
)


# -- config ------------------------------------------------------------------

DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "seed": 7,
    "model": "kg",
    "model_params": {"kappa": "1", "mass_sq": "0"},
    "lattice": {"n_sites": 21, "slope": 1},
    "suites": list(SUITE_NAMES),
    "p_max": 3,
    "cutoff_t0": 0,
    "windows": {
        "basis_t": [-2, 2],
        "basis_x": [-2, 2],
        "green_t": [-12, 12],
        "homotopy_t": [-3, 3],
        "homotopy_x": [0, 1],
    },
    "regions": {
        "disjoint_pair": [
            {"kind": "hull", "seeds": [[0, 0], [2, 0]]},
            {"kind": "hull", "seeds": [[0, 10], [2, 10]]},
        ],
        "connected_pair": [
            {"kind": "hull", "seeds": [[0, 0]]},
            {"kind": "hull", "seeds": [[2, 1]]},
        ],
        "stacked_pair": [
            {"kind": "hull", "seeds": [[4, 0]]},
            {"kind": "hull", "seeds": [[0, 0]]},
        ],
        "stacked_tuple": [
            {"kind": "hull", "seeds": [[12, 0]]},
            {"kind": "hull", "seeds": [[8, 3]]},
            {"kind": "hull", "seeds": [[4, 0]]},
            {"kind": "hull", "seeds": [[0, 3]]},
        ],
        "nonordered_pair": [
            {"kind": "hull", "seeds": [[0, 0], [3, 0]]},
            {"kind": "hull", "seeds": [[1, 3], [4, 3]]},
        ],
        "slab": {"kind": "slab", "t": [-4, 4]},
    },
    "samples": {
        "algebra_elements": 500,
        "algebra_max_len": 6,
        "algebra_binomial": 40,
        "random_sections": 8,
        "section_terms": 3,
        "word_samples": 20,
        "max_word_len": 6,
        "comparison_words_per_length": 10,
        "comparison_pairs": 12,
        "tuple_reps": 4,
        "timeslice_words": 4,
    },
}


def merge_config(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = merge_config(out[key], val)
        else:
            out[key] = val
    return out


def _integer(path: str, value, minimum=None) -> int:
    if type(value) is not int or (minimum is not None and value < minimum):
        need = "an integer" if minimum is None else f"an integer >= {minimum}"
        raise ValueError(f"{path} must be {need}, got {value!r}")
    return value


def _window(path: str, value) -> None:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{path} must be a [lo, hi] pair, got {value!r}")
    lo, hi = (_integer(path, v) for v in value)
    if lo > hi:
        raise ValueError(f"{path} is empty: lo {lo} > hi {hi}")


def _region_literal(path: str, literal) -> None:
    kind = literal.get("kind") if isinstance(literal, dict) else None
    if kind == "hull":
        seeds = literal.get("seeds")
        if not isinstance(seeds, list) or not seeds:
            raise ValueError(f"{path}.seeds must be a nonempty list of [t, x] points")
        for seed in seeds:
            if not isinstance(seed, list) or len(seed) != 2:
                raise ValueError(f"{path}.seeds must hold [t, x] points, got {seed!r}")
            for v in seed:
                _integer(f"{path}.seeds", v)
    elif kind == "slab":
        _window(f"{path}.t", literal.get("t"))
    else:
        raise ValueError(f"{path} must be a region of kind hull or slab, got {literal!r}")


def validate_config(config: dict) -> None:
    """Reject a config that would crash a suite or let a check pass on no
    cases; the ValueError names the offending field."""
    for key in config:
        if key not in DEFAULT_CONFIG:
            raise ValueError(f"unknown config key {key!r}; valid keys: {sorted(DEFAULT_CONFIG)}")
    version = config["schema_version"]
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ValueError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    param_keys = {"metric_flip"}.union(*(reads for _, reads in MODEL_BUILDERS.values()))
    for section in ("lattice", "model_params", "windows", "samples", "regions"):
        if not isinstance(config[section], dict):
            raise ValueError(f"{section} must be an object, got {config[section]!r}")
        known = param_keys if section == "model_params" else DEFAULT_CONFIG[section]
        for key in config[section]:
            if key not in known:
                name = f"{section}.{key}"
                raise ValueError(f"unknown key {name!r}; valid keys: {sorted(known)}")
    suites = config["suites"]
    if not isinstance(suites, list) or not suites:
        raise ValueError(f"suites must be a nonempty list of suite names, got {suites!r}")
    for name in suites:
        if name not in SUITE_NAMES:
            raise ValueError(f"suites: unknown suite {name!r}; choose from {list(SUITE_NAMES)}")
    if len(set(suites)) != len(suites):
        raise ValueError(f"suites must name each suite once, got {suites!r}")
    reads = model_entry(config["model"])[1]
    params = config["model_params"]
    flip = params.get("metric_flip", False)
    if type(flip) is not bool:
        raise ValueError(f"model_params.metric_flip must be true or false, got {flip!r}")
    for key in sorted(params.keys() - {"metric_flip"}):
        try:
            value = Fraction(str(params[key]))
        except (ValueError, ZeroDivisionError):
            raise ValueError(
                f'model_params.{key} must be a rational such as "1/2", got {params[key]!r}'
            ) from None
        # every config inherits the defaults, so only a changed value is an error
        default = DEFAULT_CONFIG["model_params"][key]
        if key not in reads and value != Fraction(default):
            raise ValueError(
                f"model_params.{key} is not read by the {config['model']} model, "
                f"so it must stay {default!r}, got {params[key]!r}"
            )
    _integer("seed", config["seed"])
    _integer("p_max", config["p_max"], 1)
    _integer("cutoff_t0", config["cutoff_t0"])
    _integer("lattice.n_sites", config["lattice"]["n_sites"], 1)
    _integer("lattice.slope", config["lattice"].get("slope", 1), 1)
    for key, window in config["windows"].items():
        _window(f"windows.{key}", window)
    for key, count in config["samples"].items():
        # shorter words give checks that cannot fail: a zero double Laplacian
        # below algebra length 4, and T moves no word of length 1
        _integer(f"samples.{key}", count, {"algebra_max_len": 4, "max_word_len": 2}.get(key, 1))
    for name, lits in config["regions"].items():
        default = DEFAULT_CONFIG["regions"].get(name)
        if isinstance(default, list) and not (
            isinstance(lits, list) and len(lits) == len(default)
        ):
            raise ValueError(f"regions.{name} must be a list of {len(default)} regions")
        if isinstance(default, dict) and not isinstance(lits, dict):
            raise ValueError(f"regions.{name} must be a single region, got {lits!r}")
        for lit in lits if isinstance(lits, list) else [lits]:
            _region_literal(f"regions.{name}", lit)


def parse_region(lattice: Lattice, literal: dict) -> Region:
    kind = literal.get("kind")
    if kind == "hull":
        return causal_hull(lattice, [tuple(s) for s in literal["seeds"]])
    if kind == "slab":
        t_lo, t_hi = literal["t"]
        return slab(lattice, t_lo, t_hi)
    raise ValueError(f"unknown region kind {kind!r}")


class ModelBundle:
    """Everything a suite needs, built once from a config, and the
    callback that sees each check's record as the check ends."""

    def __init__(self, config: dict, on_record=None):
        self.config = config
        self.on_record = on_record
        self.lattice = Lattice(**config["lattice"])
        self.model = build_model(config["model"], self.lattice, config["model_params"])
        self.sym = SymModel(self.model)
        self.regions = {
            name: [parse_region(self.lattice, lit) for lit in lits]
            if isinstance(lits, list)
            else parse_region(self.lattice, lits)
            for name, lits in config["regions"].items()
        }
        # the no-wrap constraint applies where causal DISJOINTNESS is claimed;
        # time-ordering of stacked regions cannot wrap (cones only move forward)
        validate_ring_size(self.lattice, self.regions["disjoint_pair"])
        # the Cauchy-slab checks need the cut band inside the slab
        check_cutoff_in_region(self.model, CutoffData(config["cutoff_t0"]), self.regions["slab"])

    def rng(self, suite: str) -> random.Random:
        return random.Random((self.config["seed"], suite).__repr__())

    def basis_points(self):
        t_lo, t_hi = self.config["windows"]["basis_t"]
        x_lo, x_hi = self.config["windows"]["basis_x"]
        return window_points(t_lo, t_hi, range(x_lo, x_hi + 1))

    def green_window(self):
        return tuple(self.config["windows"]["green_t"])

    def homotopy_points(self):
        t_lo, t_hi = self.config["windows"]["homotopy_t"]
        x_lo, x_hi = self.config["windows"]["homotopy_x"]
        return window_points(t_lo, t_hi, range(x_lo, x_hi + 1))

    def gens_window(self):
        return generators_at(self.model, self.basis_points())


# -- witnesses and shrinking ---------------------------------------------------


def _fmt_section(s: Section) -> str:
    items = sorted(s.items(), key=lambda kv: kv[0])
    return "; ".join(
        f"deg {k[0]} @(t={k[1]},x={k[2]},f={k[3]}): {coeff_text(v)}" for k, v in items
    )


def _fmt_pair(s1: Section, s2: Section) -> str:
    return f"{_fmt_section(s1)} | {_fmt_section(s2)}"


def _fmt_elem(e: SymElement) -> str:
    parts = []
    for w, c in sorted(e.items(), key=lambda kv: kv[0]):
        label = "*".join("(" + ",".join(map(str, g)) + ")" for g in w) or "1"
        parts.append(f"{label}: {coeff_text(c)}")
    return "; ".join(parts)


def shrink_element(elem: SymElement, still_fails) -> SymElement:
    """Greedy witness minimization: drop whole words, then single generators,
    while the failure persists."""
    cur = elem
    changed = True
    while changed:
        changed = False
        for w in sorted(cur.terms, key=len, reverse=True):
            if len(cur.terms) > 1:
                cand = SymElement({u: c for u, c in cur.items() if u != w})
                if still_fails(cand):
                    cur = cand
                    changed = True
                    break
        if changed:
            continue
        for w in sorted(cur.terms, key=len, reverse=True):
            for i in range(len(w)):
                shorter = w[:i] + w[i + 1 :]
                terms = {u: c for u, c in cur.items() if u != w}
                cand = SymElement(terms) + SymElement({shorter: 1})
                if still_fails(cand):
                    cur = cand
                    changed = True
                    break
            if changed:
                break
    return cur


class SuiteRunner:
    def __init__(self, bundle: ModelBundle, suite: str):
        self.bundle = bundle
        self.suite = suite
        self.records: list = []
        self.digest = digest_inputs(
            {
                "suite": suite,
                "model": bundle.config["model"],
                "model_params": bundle.config.get("model_params", {}),
                "lattice": bundle.config["lattice"],
                "seed": bundle.config["seed"],
                "samples": bundle.config["samples"],
                "windows": bundle.config["windows"],
                "regions": bundle.config["regions"],
                "p_max": bundle.config["p_max"],
            }
        )

    def check(self, identity: str, cases) -> None:
        """Run one check and record its verdict.  ``cases()`` yields one
        outcome per case: True when the case holds, otherwise its witness
        text, or False when it has none.  The first failing case ends the
        check; an exception fails it with the error as witness; a check that
        yields no case fails as vacuous."""
        if identity not in CATALOG:
            raise KeyError(f"unknown identity {identity!r}")
        start = time.perf_counter()
        outcome = "vacuous: no cases"
        try:
            for outcome in cases():
                if outcome is not True:
                    break
        except Exception as exc:  # a crash is a failure with the error as witness
            outcome = f"error: {exc!r}"
        wall = (time.perf_counter() - start) * 1000.0
        witness = outcome if isinstance(outcome, str) else None
        record = CheckRecord(identity, outcome is True, self.digest, witness, wall)
        self.records.append(record)
        if self.bundle.on_record is not None:
            self.bundle.on_record(record)


def _koszul(deg1: int, deg2: int) -> int:
    """The sign of swapping two factors of these degrees."""
    return -1 if deg1 % 2 and deg2 % 2 else 1


# -- algebra suite ---------------------------------------------------------------


def _doubled(fails):
    return lambda x: fails(x.scale(2))  # shrink_element keeps x as drawn


def suite_algebra(bundle: ModelBundle) -> list:
    """Sym identities run on 6 d, 6 tau and 2 a, all integral: each identity is
    homogeneous in each, so the verdicts are those of the drawn values."""
    run = SuiteRunner(bundle, "algebra")
    cfg = bundle.config["samples"]
    gens, drawn_d = abstract_space()
    dmap = {g: drawn_d(g).scale(6) for g in gens}.__getitem__

    def pairing(degree, symmetry, seed):
        t = random_pairing(gens, degree, symmetry, seed=seed)
        return PairingOracle(degree, symmetry, lambda g, h: rational(6 * t(g, h)), name=t.name)

    tau_even = pairing(0, 1, 10)
    tau_odd = pairing(1, 1, 11)
    tau_odd2 = pairing(1, 1, 13)
    tau_even2 = pairing(0, 1, 14)
    tau_anti = pairing(0, -1, 12)
    n_elems = cfg["algebra_elements"]
    max_len = cfg["algebra_max_len"]

    def check_normalize():
        rng = bundle.rng("algebra-normalize")
        for _ in range(200):
            w = random_word(rng, gens, max_len)
            yield normalize(w) == (w, 1) or str(w)

    run.check("normalize-idempotent", check_normalize)

    def check_commutativity():
        rng = bundle.rng("algebra-comm")
        for _ in range(200):
            w1, w2 = random_word(rng, gens, 4), random_word(rng, gens, 4)
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            sign = _koszul(word_degree(w1), word_degree(w2))
            yield mul(a, b) == mul(b, a).scale(sign) or f"{w1} vs {w2}"

    run.check("algebra-graded-commutativity", check_commutativity)

    def check_bider_routes():
        # both routes are linear in tau and bilinear in (a, b): sides times 6 * 2 * 2
        rng = bundle.rng("algebra-bider")
        for tau in (tau_even, tau_odd, tau_anti):
            for _ in range(max(n_elems // 6, 40)):
                a = random_element(rng, gens, 4, 2)
                b = random_element(rng, gens, 4, 2).scale(2)
                fails = _doubled(lambda x: bider_apply(tau, x, b) != bider_recursive(tau, x, b))
                yield not fails(a) or _fmt_elem(shrink_element(a, fails))

    run.check("bider-closed-vs-recursive", check_bider_routes)

    def check_bider_symmetry():
        # unit words; both sides are linear in tau: sides times 6
        rng = bundle.rng("algebra-bidersym")
        for tau in (tau_even, tau_odd, tau_anti):
            for _ in range(150):
                w1, w2 = random_word(rng, gens, 3), random_word(rng, gens, 3)
                a, b = SymElement({w1: 1}), SymElement({w2: 1})
                sign = _koszul(word_degree(w1), word_degree(w2))
                lhs = tensor_braiding(bider_apply(tau, b, a)).scale(sign)
                yield lhs == bider_apply(tau, a, b).scale(tau.symmetry) or (
                    f"{w1} vs {w2} (p={tau.degree}, s={tau.symmetry})"
                )

    run.check("bider-symmetry", check_bider_symmetry)

    def check_laplacian_routes():
        # both routes are linear in tau and in a: sides times 6 * 2
        rng = bundle.rng("algebra-laplacian")
        for _ in range((n_elems + 1) // 2):
            for tau in (tau_even, tau_odd):
                a = random_element(rng, gens, max_len, 2)
                fails = _doubled(lambda x: laplacian_apply(tau, x) != laplacian_recursive(tau, x))
                yield not fails(a) or _fmt_elem(shrink_element(a, fails))

    run.check("laplacian-closed-vs-recursive", check_laplacian_routes)

    def check_laplacian_boundary():
        # every term is linear in d, in tau and in a: sides times 6 * 6 * 2
        rng = bundle.rng("algebra-boundary")
        for tau in (tau_even, tau_odd):
            dt = boundary_pairing(tau, dmap)
            sign = -1 if tau.degree % 2 else 1
            for _ in range(120):
                a = random_element(rng, gens, max_len - 1, 2)
                a2 = a.scale(2)
                lhs = extend_derivation(dmap, 1, laplacian_apply(tau, a2))
                lhs = lhs - laplacian_apply(tau, extend_derivation(dmap, 1, a2)).scale(sign)
                yield lhs == laplacian_apply(dt, a2) or _fmt_elem(a)

    run.check("laplacian-boundary", check_laplacian_boundary)

    def check_laplacian_commutation():
        # both sides are linear in t1, in t2 and in a: sides times 6 * 6 * 2
        rng = bundle.rng("algebra-commutation")
        combos = [(tau_even, tau_odd, 1), (tau_odd, tau_odd2, -1), (tau_even, tau_even2, 1)]
        for t1, t2, sign in combos:
            for _ in range(100):
                a = random_element(rng, gens, max_len, 2)
                a2 = a.scale(2)
                lhs = laplacian_apply(t1, laplacian_apply(t2, a2))
                rhs = laplacian_apply(t2, laplacian_apply(t1, a2)).scale(sign)
                yield lhs == rhs or _fmt_elem(a)

    run.check("laplacian-commutation", check_laplacian_commutation)

    def check_binomial():
        # every term applies tau n times and is bilinear in (a, b): 6^n * 2 * 2
        rng = bundle.rng("algebra-binomial")
        for n in (1, 2, 3):
            for _ in range(cfg["algebra_binomial"]):
                a = random_element(rng, gens, 3, 2)
                b = random_element(rng, gens, 3, 2)
                a2, b2 = a.scale(2), b.scale(2)
                lhs = mul(a2, b2)
                for _ in range(n):
                    lhs = laplacian_apply(tau_even, lhs)
                rhs = SymElement()
                lap_k = TensorElement.of(a2, b2)  # the Laplacian applied k times
                for k in range(n + 1):
                    if k:
                        lap_k = laplacian_tensor(tau_even, lap_k)
                    te = lap_k
                    for _ in range(n - k):
                        te = bider_tensor(tau_even, te)
                    rhs.add_scaled(tensor_mu(te), comb(n, k))
                yield lhs == rhs or f"n={n}: {_fmt_elem(a)} | {_fmt_elem(b)}"

    run.check("laplacian-binomial", check_binomial)

    def check_naturality():
        # scale twice (2, 1/2): on the length-n part of a, sides times 2^n * 6 * 2
        rng = bundle.rng("algebra-naturality")
        scale = {g: 4 if g[1] % 2 == 0 else 1 for g in gens}
        fmap = {g: SymElement.of_gen(g, s) for g, s in scale.items()}.__getitem__

        for tau in (tau_even, tau_odd):
            omega = PairingOracle(
                tau.degree, tau.symmetry, lambda g, h: tau(g, h) * scale[g] * scale[h]
            )
            for _ in range(100):
                a = random_element(rng, gens, 4, 2)
                a2 = a.scale(2)
                lhs = sym_map(fmap, laplacian_apply(omega, a2))
                yield lhs == laplacian_apply(tau, sym_map(fmap, a2)) or _fmt_elem(a)

    run.check("sym-map-naturality", check_naturality)
    return run.records


# -- green suite -------------------------------------------------------------------


def _random_section(rng, model, points, n_terms):
    out = Section()
    for _ in range(n_terms):
        p = points[randbelow(rng, len(points))]
        n = model.degrees()[randbelow(rng, len(model.degrees()))]
        f = randbelow(rng, model.rank(n))
        c = drawn_rational(-3 + randbelow(rng, 7), 1 + randbelow(rng, 2))
        if c:
            q = model.lattice.point(p.t, p.x)
            out.add_term((n, q.t, q.x, f), c)
    return out


def _random_pairs(bundle: ModelBundle, stream: str):
    """Pairs of random sections on the basis window; a pair with a zero
    section is skipped."""
    rng = bundle.rng(stream)
    pts = bundle.basis_points()
    for _ in range(bundle.config["samples"]["random_sections"]):
        psi1 = _random_section(rng, bundle.model, pts, 3)
        psi2 = _random_section(rng, bundle.model, pts, 3)
        if psi1 and psi2:
            yield psi1, psi2


def suite_green(bundle: ModelBundle) -> list:
    run = SuiteRunner(bundle, "green")
    model = bundle.model
    lattice = bundle.lattice
    t_lo, t_hi = bundle.green_window()
    basis = delta_basis(model, bundle.basis_points())
    rp = model.p_op.time_radius()
    p_op, q_op, w_op = model.p_op, model.q_op, model.w_op
    pair = model.int_pairing

    run.check("complex-squares", lambda: [q_op.compose(q_op).is_zero()])

    def check_witness_comp():
        ww = w_op.compose(w_op)
        yield q_op.compose(ww) == ww.compose(q_op)

    run.check("witness-composition", check_witness_comp)

    def check_p_commutes():
        yield p_op.compose(w_op) == w_op.compose(p_op)
        yield p_op.compose(q_op) == q_op.compose(p_op)

    run.check("witness-p-commutes", check_p_commutes)

    def graded_adjoint(op, sign):
        # <op s1, s2> = sign * (-1)^|s1| <s1, op s2> on the 5x5 delta window,
        # one pair per translation class: both sides are translation invariant
        def check():
            keys = list(model.delta_keys(window_points(-2, 2, range(-2, 3))))
            delta = {k: Section({k: 1}) for k in keys}
            image = {k: op.apply(s, lattice) for k, s in delta.items()}
            for _, k1, k2 in lattice.class_pairs(keys, keys):
                sgn = -sign if k1[0] % 2 else sign
                s1, s2 = delta[k1], delta[k2]
                yield pair(image[k1], s2) == sgn * pair(s1, image[k2]) or _fmt_pair(s1, s2)

        return check

    run.check("witness-self-adjoint", graded_adjoint(w_op, 1))
    run.check("metric-compatibility", graded_adjoint(q_op, -1))

    run.check(
        "metric-antisymmetry",
        lambda: [model.metric.is_graded_antisymmetric() and model.metric.is_nondegenerate()],
    )

    def check_triangular():
        for n in model.degrees():
            model.solve_data(n)
            yield True

    run.check("green-triangular", check_triangular)

    def check_left_inverse():
        for phi in basis:
            for direction in (1, -1):
                sol = model.green(direction).apply(phi, t_lo, t_hi)
                lhs = p_op.apply(sol, lattice).restrict_times(t_lo + rp, t_hi - rp)
                yield lhs == phi.restrict_times(t_lo + rp, t_hi - rp) or _fmt_section(phi)

    run.check("green-left-inverse", check_left_inverse)

    def check_right_inverse():
        for phi in basis:
            for direction in (1, -1):
                back = model.green(direction).apply(p_op.apply(phi, lattice), t_lo, t_hi)
                yield back == phi or _fmt_section(phi)

    run.check("green-right-inverse", check_right_inverse)

    def check_support():
        for phi in basis:
            seeds = sorted(phi.support_points())
            for direction in (1, -1):
                sol = model.green(direction).apply(phi, t_lo, t_hi)
                for p in sol.support_points():
                    yield any(lattice.in_cone(s, p, direction) for s in seeds) or (
                        f"{_fmt_section(phi)} leaks at {p}"
                    )

    run.check("green-support", check_support)

    def check_differ():
        yield any(
            model.green(1).apply(phi, t_lo, t_hi) != model.green(-1).apply(phi, t_lo, t_hi)
            for phi in basis
        ) or "retarded and advanced solutions agree on the whole basis"

    run.check("green-plus-minus-differ", check_differ)

    def check_commutation():
        rng = bundle.rng("green-commutation")
        pts = window_points(-1, 1, range(-1, 2))
        for _ in range(bundle.config["samples"]["random_sections"]):
            phi = _random_section(rng, model, pts, bundle.config["samples"]["section_terms"])
            if not phi:
                continue
            for direction in (1, -1):
                for op in (w_op, q_op):
                    r = op.time_radius()
                    lhs = op.apply(
                        model.green(direction).apply(phi, -10 - r, 10 + r), lattice
                    ).restrict_times(-10, 10)
                    rhs = model.green(direction).apply(op.apply(phi, lattice), -10, 10)
                    yield lhs == rhs or _fmt_section(phi)

    run.check("green-commutation", check_commutation)

    def green_pairs(stream):
        # psi1, psi2, G+ psi2, G- psi2, G+ psi1, G- psi1: each solve on the
        # time extent of the other section
        for psi1, psi2 in _random_pairs(bundle, stream):
            g2 = [model.green(d).apply(psi2, psi1.min_t(), psi1.max_t()) for d in (1, -1)]
            g1 = [model.green(d).apply(psi1, psi2.min_t(), psi2.max_t()) for d in (1, -1)]
            yield psi1, psi2, *g2, *g1

    def check_adjoint():
        for psi1, psi2, gp2, gm2, gp1, gm1 in green_pairs("green-adjoint"):
            yield pair(psi1, gp2) == pair(gm1, psi2) or _fmt_pair(psi1, psi2)
            yield pair(psi1, gm2) == pair(gp1, psi2) or _fmt_pair(psi1, psi2)

    run.check("green-adjoint", check_adjoint)

    def check_skew():
        for psi1, psi2, gp2, gm2, gp1, gm1 in green_pairs("green-skew"):
            yield pair(psi1, gp2 - gm2) == -pair(gp1 - gm1, psi2) or _fmt_pair(psi1, psi2)
            gd12 = (gp2 + gm2).scale(Fraction(1, 2))
            gd21 = (gp1 + gm1).scale(Fraction(1, 2))
            yield pair(psi1, gd12) == pair(gd21, psi2) or _fmt_pair(psi1, psi2)

    run.check("green-skew", check_skew)

    def check_homotopy_trivializes():
        rq = q_op.time_radius()
        small = delta_basis(model, window_points(-1, 1, range(-1, 2)))
        for psi in small:
            for direction in (1, -1):
                lam = lambda_pm(model, psi, direction, -8 - rq, 8 + rq)
                term1 = q_op.apply(lam, lattice).restrict_times(-8, 8)
                term2 = lambda_pm(model, q_op.apply(psi, lattice), direction, -8, 8)
                yield term1 + term2 == psi.restrict_times(-8, 8) or _fmt_section(psi)

    run.check("homotopy-trivializes", check_homotopy_trivializes)

    def check_lambda_cochain():
        rq = q_op.time_radius()
        small = delta_basis(model, window_points(0, 0, range(0, 2)))
        for psi in small:
            lam = lambda_diff(model, psi, -8 - rq, 8 + rq)
            term1 = q_op.apply(lam, lattice).restrict_times(-8, 8)
            term2 = lambda_diff(model, q_op.apply(psi, lattice), -8, 8)
            yield not (term1 + term2) or _fmt_section(psi)

    run.check("lambda-cochain", check_lambda_cochain)

    def check_lambda_orders():
        rng = bundle.rng("green-lambda-orders")
        pts = window_points(-1, 1, range(-1, 2))
        rw = w_op.time_radius()
        for _ in range(bundle.config["samples"]["random_sections"]):
            phi = _random_section(rng, model, pts, 3)
            if not phi:
                continue
            for direction in (1, -1):
                lhs = lambda_pm(model, phi, direction, -8, 8)
                rhs = w_op.apply(
                    model.green(direction).apply(phi, -8 - rw, 8 + rw), lattice
                ).restrict_times(-8, 8)
                yield lhs == rhs or _fmt_section(phi)

    run.check("lambda-orders", check_lambda_orders)

    def check_lambda_translation():
        rng = bundle.rng("green-translation")
        pts = window_points(-1, 1, range(-1, 2))
        for _ in range(4):
            phi = _random_section(rng, model, pts, 3)
            if not phi:
                continue
            for direction in (1, -1):
                direct = lambda_pm(model, phi.translate_time(4), direction, -4, 12)
                moved = lambda_pm(model, phi, direction, -8, 8).translate_time(4)
                yield direct == moved or _fmt_section(phi)

    run.check("lambda-translation-natural", check_lambda_translation)
    return run.records


# -- structures suite -----------------------------------------------------------


def suite_structures(bundle: ModelBundle) -> list:
    run = SuiteRunner(bundle, "structures")
    model = bundle.model
    sm = bundle.sym
    gens = bundle.gens_window()
    lattice = bundle.lattice
    # each class pair with its class key and the key of the reversed pair
    pairs = [
        (key, lattice.class_key(g2, g1), g1, g2)
        for key, g1, g2 in lattice.class_pairs(gens, gens)
    ]

    def check_pair_symmetry(tau, expected_s):
        # tau o gamma = s tau: koszul * tau(g2, g1) = s * tau(g1, g2)
        for key, reverse, g1, g2 in pairs:
            base = tau.at(key, g1, g2)
            rhs = base if expected_s > 0 else -base
            lhs = tau.at(reverse, g2, g1)
            yield (lhs if _koszul(g1[0], g2[0]) > 0 else -lhs) == rhs or f"{g1} | {g2}"

    run.check("pairing-shifted-symmetric", lambda: check_pair_symmetry(sm.tau_m1, 1))
    run.check(
        "pairing-unshifted-antisymmetric", lambda: check_pair_symmetry(sm.tau_0, -1)
    )
    run.check("pairing-dirac-symmetric", lambda: check_pair_symmetry(sm.tau_d, 1))

    def check_boundary(tau, rhs):
        # d(tau) = rhs, one generator pair per translation class
        for key, _, g1, g2 in pairs:
            yield sm.boundary_at(tau, key) == rhs(key, g1, g2) or f"{g1} | {g2}"

    run.check("pairing-dirac-trivializes", lambda: check_boundary(sm.tau_d, sm.tau_m1.at))
    run.check("pairing-unshifted-cochain", lambda: check_boundary(sm.tau_0, lambda *_: 0))

    def check_average():
        for psi1, psi2 in _random_pairs(bundle, "structures-average"):
            lo, hi = psi1.min_t(), psi1.max_t()
            via_plus = model.int_pairing(psi1, lambda_pm(model, psi2, 1, lo, hi))
            via_minus = model.int_pairing(psi1, lambda_pm(model, psi2, -1, lo, hi))
            average = (via_plus + via_minus) * Fraction(1, 2)
            yield tau_dirac(model, psi1, psi2) == average or _fmt_pair(psi1, psi2)

    run.check("pairing-dirac-average", check_average)

    def check_translation():
        rng = bundle.rng("structures-translation")
        pts = window_points(-1, 1, range(-1, 2))
        for _ in range(6):
            psi1 = _random_section(rng, model, pts, 3)
            psi2 = _random_section(rng, model, pts, 3)
            for fn in (tau_minus1, tau_0, tau_dirac):
                moved = fn(model, psi1.translate_time(5), psi2.translate_time(5))
                yield fn(model, psi1, psi2) == moved or _fmt_pair(psi1, psi2)

    run.check("pairing-translation-natural", check_translation)
    return run.records


# -- theorems suite -----------------------------------------------------------------


def _delta_pairs(sm: SymModel, r1: Region, r2: Region):
    """(class key, delta in r1, delta in r2) for the generator pairs, the
    first of each translation class in product order (Lattice.class_pairs):
    the pairings of two deltas take one value per class, read by key from
    sm's class-keyed oracles."""
    gens1, gens2 = sm.generators_in_region(r1), sm.generators_in_region(r2)
    return sm.model.lattice.class_pairs(gens1, gens2)


def _fmt_gens(g1, g2) -> str:
    return _fmt_pair(gen_to_section(g1), gen_to_section(g2))


def suite_theorems(bundle: ModelBundle) -> list:
    run = SuiteRunner(bundle, "theorems")
    model = bundle.model
    sm = bundle.sym
    lattice = bundle.lattice

    def check_causality():
        r1, r2 = bundle.regions["disjoint_pair"]
        yield causally_disjoint(r1, r2) or "configured pair is not causally disjoint"
        for key, g1, g2 in _delta_pairs(sm, r1, r2):
            yield not sm.tau_0.at(key, g1, g2) or _fmt_gens(g1, g2)

    run.check("causality-vanishing", check_causality)

    def check_causality_counter():
        r1, r2 = bundle.regions["connected_pair"]
        yield not causally_disjoint(r1, r2) or "configured pair is causally disjoint"
        yield any(sm.tau_0.at(*pair) for pair in _delta_pairs(sm, r1, r2)) or (
            "no nonzero pairing found across causally connected regions"
        )

    run.check("causality-counterexample", check_causality_counter)

    region = bundle.regions["slab"]
    cutoff = CutoffData(bundle.config["cutoff_t0"])

    def check_eta():
        for psi in delta_basis(model, bundle.homotopy_points()):
            term1 = model.q_op.apply(homotopy_eta(model, cutoff, psi), lattice)
            term2 = homotopy_eta(model, cutoff, model.q_op.apply(psi, lattice))
            lhs = (term1 + term2).scale(-1)
            yield lhs == psi - quasi_inverse_g(model, cutoff, psi) or _fmt_section(psi)

    run.check("cauchy-eta-homotopy", check_eta)

    def check_zeta():
        # the delta basis of the Cauchy region.  Q, eta and g commute with
        # x -> x + 1, so a region of whole time slices (a slab), which that
        # translation maps onto itself, needs one delta per (degree, t,
        # fiber): the slice's first point x = 0 stands for the slice
        sizes = Counter(p.t for p in region.points)
        if all(size == lattice.n_sites for size in sizes.values()):
            points = [Point(t, 0) for t in sorted(sizes)]
        else:
            points = sorted(region.points)
        for psi in delta_basis(model, points):
            zeta_psi = homotopy_zeta(model, cutoff, region, psi)
            term1 = model.q_op.apply(zeta_psi, lattice)
            term2 = homotopy_eta(model, cutoff, model.q_op.apply(psi, lattice))
            lhs = (term1 + term2).scale(-1)
            yield lhs == psi - quasi_inverse_g(model, cutoff, psi) or _fmt_section(psi)

    run.check("cauchy-zeta-homotopy", check_zeta)

    def check_g_support():
        t_lo, t_hi = region.time_range()
        tall = window_points(t_lo - 3, t_hi + 3, range(0, 2))
        for psi in delta_basis(model, tall):
            yield quasi_inverse_g(model, cutoff, psi).supported_in(region) or _fmt_section(psi)

    run.check("cauchy-g-support", check_g_support)

    def half_holds(m, key, g1, g2):
        # tau_D(g1, g2) = tau_0(g1, g2) / 2
        return m.tau_d.at(key, g1, g2) == m.tau_0.at(key, g1, g2) * Fraction(1, 2)

    def check_half():
        later, earlier = bundle.regions["stacked_pair"]
        yield is_time_ordered([later, earlier]) or "configured stacked pair is not time-ordered"
        for key, g1, g2 in _delta_pairs(sm, later, earlier):
            yield half_holds(sm, key, g1, g2) or _fmt_gens(g1, g2)

    run.check("time-ordered-half", check_half)

    def check_half_counter():
        # run on a fixed massive scalar model: unit-slope massless kernels are
        # parity-supported and can miss small diamond pairs accidentally
        aux = SymModel(klein_gordon(lattice, mass_sq=Fraction(1)))
        a, b = (parse_region(lattice, lit) for lit in bundle.config["regions"]["nonordered_pair"])
        yield not is_time_ordered([a, b]) or "configured pair is time-ordered"
        yield any(not half_holds(aux, *pair) for pair in _delta_pairs(aux, a, b)) or (
            "no violation found for the non-time-ordered pair"
        )

    run.check("time-ordered-half-counterexample", check_half_counter)
    return run.records


# -- quantization suite ----------------------------------------------------------------


def suite_quantization(bundle: ModelBundle) -> list:
    run = SuiteRunner(bundle, "quantization")
    sm = bundle.sym
    cfg = bundle.config["samples"]
    gens = bundle.gens_window()

    def check_q_hbar_squares():
        rng = bundle.rng("quant-qhbar")
        fails = lambda x: bool(sm.q_hbar(sm.q_hbar(x)))
        for _ in range(cfg["word_samples"]):
            a = random_element(rng, gens, cfg["max_word_len"], 2)
            yield not fails(a) or _fmt_elem(shrink_element(a, fails))

    run.check("bv-differential-squares", check_q_hbar_squares)

    run.check("tpfa-unit", lambda: [tpfa_product(sm, [], []) == SymElement.unit()])

    def check_tpfa_chain():
        rng = bundle.rng("quant-tpfa")
        later, earlier = bundle.regions["stacked_pair"]
        g1 = sm.generators_in_region(later)
        g2 = sm.generators_in_region(earlier)
        for _ in range(cfg["word_samples"]):
            a = SymElement({random_word(rng, g1, 2): 1})
            b = SymElement({random_word(rng, g2, 2): 1})
            te = TensorElement.of(a, b)
            yield sm.q_hbar(tensor_mu(te)) == tensor_mu(q_hbar_tensor(sm, te)) or (
                f"{_fmt_elem(a)} | {_fmt_elem(b)}"
            )

    run.check("tpfa-chain-map", check_tpfa_chain)

    def check_assoc():
        rng = bundle.rng("quant-assoc")
        for _ in range(cfg["comparison_pairs"] // 2 + 3):
            a = random_element(rng, gens, 3, 2)
            b = random_element(rng, gens, 3, 2)
            c = random_element(rng, gens, 3, 2)
            yield sm.moyal_mul(sm.moyal_mul(a, b), c) == sm.moyal_mul(a, sm.moyal_mul(b, c)) or (
                f"{_fmt_elem(a)} | {_fmt_elem(b)} | {_fmt_elem(c)}"
            )

    run.check("moyal-associative", check_assoc)

    def check_unital():
        rng = bundle.rng("quant-unital")
        for _ in range(8):
            a = random_element(rng, gens, 4, 2)
            one = SymElement.unit()
            yield sm.moyal_mul(one, a) == a == sm.moyal_mul(a, one) or _fmt_elem(a)

    run.check("moyal-unital", check_unital)

    def check_chain():
        rng = bundle.rng("quant-chain")
        for _ in range(cfg["word_samples"]):
            w1 = random_word(rng, gens, 3)
            w2 = random_word(rng, gens, 3)
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            sign = -1 if word_degree(w1) % 2 else 1
            lhs = sm.q_sym(sm.moyal_mul(a, b))
            rhs = sm.moyal_mul(sm.q_sym(a), b) + sm.moyal_mul(a, sm.q_sym(b)).scale(sign)
            yield lhs == rhs or f"{w1} | {w2}"

    run.check("moyal-chain-map", check_chain)

    def check_classical():
        rng = bundle.rng("quant-classical")
        for _ in range(cfg["comparison_pairs"]):
            a = random_element(rng, gens, 3, 2)
            b = random_element(rng, gens, 3, 2)
            yield sm.moyal_mul(a, b).coeff_at_order(0) == mul(a, b).coeff_at_order(0) or (
                f"{_fmt_elem(a)} | {_fmt_elem(b)}"
            )

    run.check("moyal-classical-limit", check_classical)

    def check_commutator_order():
        rng = bundle.rng("quant-commutator")
        for _ in range(cfg["comparison_pairs"]):
            w1 = random_word(rng, gens, 3)
            w2 = random_word(rng, gens, 3)
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            defect = sm.star_commutator(a, b) - sm.poisson_bracket(a, b).scale(IH)
            yield not (defect.coeff_at_order(0) or defect.coeff_at_order(1)) or f"{w1} | {w2}"

    run.check("moyal-commutator-order", check_commutator_order)

    def commutator(g1, g2):
        return sm.star_commutator(SymElement.of_gen(g1), SymElement.of_gen(g2))

    def check_einstein():
        rng = bundle.rng("quant-einstein")
        r1, r2 = bundle.regions["disjoint_pair"]
        g1s, g2s = sm.generators_in_region(r1), sm.generators_in_region(r2)
        for _, g1, g2 in bundle.lattice.class_pairs(g1s, g2s):
            yield not commutator(g1, g2) or f"{g1} | {g2}"
        for _ in range(6):
            a = SymElement({random_word(rng, g1s, 3): 1})
            b = SymElement({random_word(rng, g2s, 3): 1})
            yield not sm.star_commutator(a, b) or f"{_fmt_elem(a)} | {_fmt_elem(b)}"

    run.check("einstein-causality", check_einstein)

    def check_einstein_counter():
        r1, r2 = bundle.regions["connected_pair"]
        pairs = product(sm.generators_in_region(r1), sm.generators_in_region(r2))
        yield any(commutator(g1, g2) for g1, g2 in pairs) or (
            "no nonzero commutator across causally connected regions"
        )

    run.check("einstein-causality-counterexample", check_einstein_counter)

    def check_dirac_commutative():
        rng = bundle.rng("quant-dirac")
        for _ in range(cfg["comparison_pairs"]):
            w1 = random_word(rng, gens, 3)
            w2 = random_word(rng, gens, 3)
            a, b = SymElement({w1: 1}), SymElement({w2: 1})
            sign = _koszul(word_degree(w1), word_degree(w2))
            yield sm.dirac_mul(a, b) == sm.dirac_mul(b, a).scale(sign) or f"{w1} | {w2}"
        rng2 = bundle.rng("quant-dirac-assoc")
        for _ in range(5):
            a = random_element(rng2, gens, 3, 2)
            b = random_element(rng2, gens, 3, 2)
            c = random_element(rng2, gens, 3, 2)
            yield sm.dirac_mul(sm.dirac_mul(a, b), c) == sm.dirac_mul(a, sm.dirac_mul(b, c)) or (
                "associativity failure"
            )
            yield sm.dirac_mul(SymElement.unit(), a) == a or "unit failure"

    run.check("dirac-commutative", check_dirac_commutative)

    def breaks_leibniz(g1, g2):
        # mu_D fails the Leibniz rule of Q on a pair that tau_m1 pairs
        if not sm.tau_m1(g1, g2) or normalize([g1, g2])[0] is None:
            return False
        a, b = SymElement.of_gen(g1), SymElement.of_gen(g2)
        s = -1 if g1[0] % 2 else 1
        lhs = sm.q_sym(sm.dirac_mul(a, b))
        return lhs != sm.dirac_mul(sm.q_sym(a), b) + sm.dirac_mul(a, sm.q_sym(b)).scale(s)

    def check_dirac_not_chain():
        # a field/antifield pair at one point pairs nontrivially under tau_m1
        pool = generators_at(sm.model, [Point(0, 0)])
        yield any(breaks_leibniz(g1, g2) for g1, g2 in product(pool, pool)) or (
            "no witness pair found"
        )

    run.check("dirac-not-chain-map", check_dirac_not_chain)

    def check_filtration():
        rng = bundle.rng("quant-filtration")
        for p in range(bundle.config["p_max"] + 1):
            for _ in range(6):
                w = random_word(rng, gens, p, min_len=p)
                res = filtration_defects(sm, w)
                yield res["graded_matches_classical"] and res["only_allowed_lengths"] or str(w)

    run.check("filtration-preserved", check_filtration)

    def check_time_slice():
        rng = bundle.rng("quant-timeslice")
        region = bundle.regions["slab"]
        cutoff = CutoffData(bundle.config["cutoff_t0"])
        eta_fn = gen_map(sm, homotopy_eta, cutoff)
        fg_fn = gen_map(sm, quasi_inverse_g, cutoff)
        ambient = generators_at(sm.model, bundle.homotopy_points())
        slab_gens = [g for g in ambient if region.contains(Point(g[1], g[2]))]
        for p in range(1, bundle.config["p_max"] + 1):
            for pool in (ambient, slab_gens):
                for _ in range(bundle.config["samples"]["timeslice_words"]):
                    w = random_word(rng, pool, p, min_len=p)
                    yield not sym_power_homotopy_defect(sm, eta_fn, fg_fn, w) or f"p={p}: {w}"

    run.check("time-slice-sym-powers", check_time_slice)
    return run.records


# -- comparison suite ---------------------------------------------------------------------


def suite_comparison(bundle: ModelBundle) -> list:
    run = SuiteRunner(bundle, "comparison")
    sm = bundle.sym
    cfg = bundle.config["samples"]
    gens = bundle.gens_window()

    def check_chain_map():
        rng = bundle.rng("comp-chain")
        for length in (1, 2, 3, 4):
            for _ in range(cfg["comparison_words_per_length"]):
                w = random_word(rng, gens, length, min_len=length)
                elem = SymElement({w: 1})
                lhs = sm.q_sym(sm.time_ordering(elem))
                yield lhs == sm.time_ordering(sm.q_hbar(elem)) or str(w)

    run.check("comparison-chain-map", check_chain_map)

    def check_multiplicative():
        rng = bundle.rng("comp-mult")
        for _ in range(cfg["comparison_pairs"]):
            a = random_element(rng, gens, 3, 2)
            b = random_element(rng, gens, 3, 2)
            lhs = sm.time_ordering(mul(a, b))
            rhs = sm.dirac_mul(sm.time_ordering(a), sm.time_ordering(b))
            yield lhs == rhs or f"{_fmt_elem(a)} | {_fmt_elem(b)}"

    run.check("comparison-multiplicative", check_multiplicative)

    def check_tuples():
        rng = bundle.rng("comp-tuples")
        regions_all = bundle.regions["stacked_tuple"]
        pools = [sm.generators_in_region(r) for r in regions_all]
        for n in range(0, 5):
            regions = regions_all[:n]
            reps = cfg["tuple_reps"] if n else 1
            for _ in range(reps):
                elems = [SymElement({random_word(rng, pools[i], 2): 1}) for i in range(n)]
                tpfa = tpfa_product(sm, regions, elems)
                lhs = sm.time_ordering(tpfa)
                rhs = fa_product(sm, regions, [sm.time_ordering(e) for e in elems])
                yield lhs == rhs or f"n={n}: " + " | ".join(_fmt_elem(e) for e in elems)
                if n >= 3:
                    hull, inner, outer = factorize_tuple(regions)
                    inner_prod = tpfa_product(sm, inner, elems[:-1])
                    via = tpfa_product(sm, [hull, regions[-1]], [inner_prod, elems[-1]])
                    yield via == tpfa or (
                        f"factorized route differs at n={n}"
                    )

    run.check("comparison-tuples", check_tuples)

    def check_invertible():
        rng = bundle.rng("comp-inverse")
        for _ in range(cfg["comparison_pairs"]):
            a = random_element(rng, gens, cfg["max_word_len"], 2)
            yield sm.time_ordering(sm.time_ordering(a), -1) == a or _fmt_elem(a)

    run.check("comparison-invertible", check_invertible)

    def check_fa_ordering():
        rng = bundle.rng("comp-ordering")
        r1, r2 = bundle.regions["disjoint_pair"]
        g1s, g2s = sm.generators_in_region(r1), sm.generators_in_region(r2)
        for _ in range(6):
            a = SymElement({random_word(rng, g1s, 2): 1})
            b = SymElement({random_word(rng, g2s, 2): 1})
            one = fa_product(sm, [r1, r2], [a, b], rho=(0, 1))
            other = fa_product(sm, [r1, r2], [a, b], rho=(1, 0))
            yield one == other or f"{_fmt_elem(a)} | {_fmt_elem(b)}"

    run.check("fa-ordering-independent", check_fa_ordering)

    def check_dirac_products():
        rng = bundle.rng("comp-dirac-products")
        regions_all = bundle.regions["stacked_tuple"][:3]
        pools = [sm.generators_in_region(r) for r in regions_all]
        for n in (2, 3):
            for _ in range(cfg["tuple_reps"]):
                elems = [SymElement({random_word(rng, pools[i], 2): 1}) for i in range(n)]
                yield dirac_nary(sm, elems) == fa_product(sm, regions_all[:n], elems) or f"n={n}"

    run.check("dirac-products-match", check_dirac_products)

    def check_pair_power():
        rng = bundle.rng("comp-pair-power")
        later, earlier = bundle.regions["stacked_pair"]
        g1s, g2s = sm.generators_in_region(later), sm.generators_in_region(earlier)
        for _ in range(6):
            a = SymElement({random_word(rng, g1s, 3): 1})
            b = SymElement({random_word(rng, g2s, 3): 1})
            lhs = TensorElement.of(a, b)
            rhs = TensorElement.of(a, b)
            for k in range(1, 4):
                lhs = bider_tensor(sm.tau_d, lhs)
                rhs = bider_tensor(sm.tau_0, rhs).scale(Fraction(1, 2))
                yield lhs == rhs or f"k={k}: {_fmt_elem(a)} | {_fmt_elem(b)}"

    run.check("pair-power-half", check_pair_power)
    return run.records


SUITES = {
    "algebra": suite_algebra,
    "green": suite_green,
    "structures": suite_structures,
    "theorems": suite_theorems,
    "quantization": suite_quantization,
    "comparison": suite_comparison,
}


def run_suites(config: dict, workers: int = 1, on_record=None) -> list:
    """Run the config's suites in order and return their records in that
    order; ``on_record``, when given, is called with each record as soon as
    its check ends.  An invalid config raises ValueError (see
    :func:`validate_config`) before any suite runs.

    Suites run one after another in the calling thread.  The ``workers``
    keyword is kept only because the benchmark child (perfbench/child.py)
    passes ``workers=1``; any other value raises ValueError.
    """
    if type(workers) is not int or workers != 1:
        raise ValueError(f"workers must be 1 (suites run serially), got {workers!r}")
    validate_config(config)
    bundle = ModelBundle(config, on_record)
    records = []
    for name in config["suites"]:
        records.extend(SUITES[name](bundle))
    return records

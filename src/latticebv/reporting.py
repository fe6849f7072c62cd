"""Identity catalog and machine-readable verification records.

Every check the suites run is registered here with a stable id, the formal
statement it certifies and a one-line test strategy.  Records serialize to a
JSON-shaped report with a schema version; identical config + seed give a
byte-identical report up to the timing fields.
"""

from __future__ import annotations

import json
from typing import NamedTuple, Optional

# the interpreter's built-in SHA-256 (`_sha2` since 3.12); hashlib would load
# OpenSSL, about 3.6 MiB of resident memory, for this one digest
try:
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

SCHEMA_VERSION = 1


class IdentityInfo(NamedTuple):
    statement: str
    strategy: str
    suite: str


CATALOG: dict = {
    # algebra suite: the symmetric-algebra layer over an abstract graded space
    "normalize-idempotent": IdentityInfo(
        "normalize(word) is a fixed point of normalize",
        "resort normalized random words; sign must be +1",
        "algebra",
    ),
    "algebra-graded-commutativity": IdentityInfo(
        "a b = (-1)^{|a||b|} b a",
        "compare products of random homogeneous words",
        "algebra",
    ),
    "bider-closed-vs-recursive": IdentityInfo(
        "<a,b>_tau closed form = recursion from its defining properties",
        "evaluate both routes on seeded random elements",
        "algebra",
    ),
    "bider-symmetry": IdentityInfo(
        "gamma o <-,->_tau o gamma = s <-,->_tau",
        "compare both sides on random homogeneous pairs",
        "algebra",
    ),
    "laplacian-closed-vs-recursive": IdentityInfo(
        "Delta_tau closed form = modified-Leibniz recursion",
        "evaluate both routes on seeded random elements",
        "algebra",
    ),
    "laplacian-boundary": IdentityInfo(
        "d(Delta_tau) = Delta_{d tau}",
        "expand the hom differential of Delta on random elements",
        "algebra",
    ),
    "laplacian-commutation": IdentityInfo(
        "Delta_tau Delta_tau' = (-1)^{p p'} Delta_tau' Delta_tau",
        "compose Laplacians of degrees p, p' both ways",
        "algebra",
    ),
    "laplacian-binomial": IdentityInfo(
        "Delta^n o mu = sum_k C(n,k) mu o <-,->^{n-k} o Delta_(x)^k  (n <= 3, p even)",
        "expand both sides on random element pairs",
        "algebra",
    ),
    "sym-map-naturality": IdentityInfo(
        "Sym f o Delta_tau = Delta_omega o Sym f when omega o (f (x) f) = tau",
        "push random elements through a pairing-preserving rescaling",
        "algebra",
    ),
    # green suite: solvers and witness identities of the lattice models
    "complex-squares": IdentityInfo(
        "Q o Q = 0",
        "exact stencil composition",
        "green",
    ),
    "witness-composition": IdentityInfo(
        "Q W W = W W Q",
        "exact stencil composition",
        "green",
    ),
    "witness-p-commutes": IdentityInfo(
        "P W = W P and P Q = Q P for P = QW + WQ",
        "exact stencil composition",
        "green",
    ),
    "witness-self-adjoint": IdentityInfo(
        "<<W a, b>> = (-1)^{|a|} <<a, W b>>",
        "delta pairs spanning the stencil radius (translation invariance)",
        "green",
    ),
    "metric-compatibility": IdentityInfo(
        "<<Q a, b>> + (-1)^{|a|} <<a, Q b>> = 0",
        "delta pairs spanning the stencil radius plus random sections",
        "green",
    ),
    "metric-antisymmetry": IdentityInfo(
        "fiber metric is graded anti-symmetric and fiber-wise nondegenerate",
        "block transpose and determinant checks",
        "green",
    ),
    "green-triangular": IdentityInfo(
        "P has invertible spatially-diagonal extreme time blocks inside the cone",
        "construct the per-degree solve data",
        "green",
    ),
    "green-left-inverse": IdentityInfo(
        "P G± phi = phi",
        "solve and re-apply P on the delta basis of the configured window",
        "green",
    ),
    "green-right-inverse": IdentityInfo(
        "G± P phi = phi",
        "apply P then solve on the delta basis of the configured window",
        "green",
    ),
    "green-support": IdentityInfo(
        "supp(G± phi) inside J±(supp phi)",
        "cone membership of every solved value",
        "green",
    ),
    "green-plus-minus-differ": IdentityInfo(
        "G+ != G- (nondegeneracy witness)",
        "exhibit a source with different solutions",
        "green",
    ),
    "green-commutation": IdentityInfo(
        "G± W = W G± and G± Q = Q G±",
        "compare both orders on sampled sections within safe windows",
        "green",
    ),
    "green-adjoint": IdentityInfo(
        "<<a, G± b>> = <<G∓ a, b>>",
        "pair sampled sections both ways",
        "green",
    ),
    "green-skew": IdentityInfo(
        "<<a, G b>> = -<<G a, b>> and <<a, G_D b>> = <<G_D a, b>>",
        "pair sampled sections both ways",
        "green",
    ),
    "homotopy-trivializes": IdentityInfo(
        "Q L± + L± Q = j (inclusion of compact into all sections)",
        "delta basis within the evaluation window",
        "green",
    ),
    "lambda-cochain": IdentityInfo(
        "Q L + L Q = 0 for L = L+ - L-",
        "delta basis within the evaluation window",
        "green",
    ),
    "lambda-orders": IdentityInfo(
        "W G± = G± W as maps on compact sections",
        "compare both orders on sampled sections",
        "green",
    ),
    "lambda-translation-natural": IdentityInfo(
        "time translations intertwine L±",
        "translate sources and compare windows",
        "green",
    ),
    # structures suite: the three pairings
    "pairing-shifted-symmetric": IdentityInfo(
        "tau_m1 o gamma = tau_m1",
        "full delta basis of the configured window",
        "structures",
    ),
    "pairing-unshifted-antisymmetric": IdentityInfo(
        "tau_0 o gamma = -tau_0",
        "full delta basis of the configured window",
        "structures",
    ),
    "pairing-dirac-symmetric": IdentityInfo(
        "tau_D o gamma = tau_D",
        "full delta basis of the configured window",
        "structures",
    ),
    "pairing-dirac-trivializes": IdentityInfo(
        "d(tau_D) = tau_m1",
        "expand the hom differential on the delta basis",
        "structures",
    ),
    "pairing-unshifted-cochain": IdentityInfo(
        "d(tau_0) = 0",
        "expand the hom differential on the delta basis",
        "structures",
    ),
    "pairing-dirac-average": IdentityInfo(
        "tau_D = (tau via L+ + tau via L-)/2",
        "random compact sections",
        "structures",
    ),
    "pairing-translation-natural": IdentityInfo(
        "all three pairings are invariant under time translation",
        "translate random section pairs",
        "structures",
    ),
    # theorems suite: causality and time-slice at the linear level
    "causality-vanishing": IdentityInfo(
        "tau_0 o (j1 (x) j2) = 0 for causally disjoint regions",
        "full delta basis product of the configured region pair",
        "theorems",
    ),
    "causality-counterexample": IdentityInfo(
        "tau_0 does not vanish across causally connected regions (sanity)",
        "search the delta basis product for a nonzero pairing",
        "theorems",
    ),
    "cauchy-eta-homotopy": IdentityInfo(
        "d(eta) = id - f g for the Cauchy inclusion homotopy",
        "delta basis of the ambient window",
        "theorems",
    ),
    "cauchy-zeta-homotopy": IdentityInfo(
        "d(zeta) = id - g f on the Cauchy region",
        "delta basis of the region window",
        "theorems",
    ),
    "cauchy-g-support": IdentityInfo(
        "g lands in compactly supported sections of the Cauchy region",
        "support containment for the delta basis of a tall window",
        "theorems",
    ),
    "time-ordered-half": IdentityInfo(
        "tau_D = tau_0 / 2 on images of a time-ordered pair",
        "full delta basis product of the stacked pair",
        "theorems",
    ),
    "time-ordered-half-counterexample": IdentityInfo(
        "the half identity fails without time-ordering (sanity)",
        "search a causally linked non-ordered pair",
        "theorems",
    ),
    # quantization suite
    "bv-differential-squares": IdentityInfo(
        "(Q + i h Delta_BV)^2 = 0",
        "seeded random elements of bounded word length",
        "quantization",
    ),
    "tpfa-unit": IdentityInfo(
        "the empty time-ordered product is the unit",
        "direct evaluation",
        "quantization",
    ),
    "tpfa-chain-map": IdentityInfo(
        "Q_h o F(tuple) = F(tuple) o Q_h(x)",
        "random basis words on a stacked region pair",
        "quantization",
    ),
    "moyal-associative": IdentityInfo(
        "mu_h is associative",
        "random triples",
        "quantization",
    ),
    "moyal-unital": IdentityInfo(
        "mu_h(1, a) = a = mu_h(a, 1)",
        "random elements",
        "quantization",
    ),
    "moyal-chain-map": IdentityInfo(
        "Q(a *_h b) = Qa *_h b + (-1)^{|a|} a *_h Qb",
        "random homogeneous words",
        "quantization",
    ),
    "moyal-classical-limit": IdentityInfo(
        "mu_h = mu + O(h)",
        "h-order-0 coefficient extraction on random pairs",
        "quantization",
    ),
    "moyal-commutator-order": IdentityInfo(
        "[a, b]_h = i h {a, b}_0 + O(h^2)",
        "h-order-0/1 coefficient extraction on random pairs",
        "quantization",
    ),
    "einstein-causality": IdentityInfo(
        "star commutators vanish across causally disjoint regions",
        "full delta-generator product plus sampled longer words",
        "quantization",
    ),
    "einstein-causality-counterexample": IdentityInfo(
        "a nonzero star commutator exists across connected regions (sanity)",
        "search generator pairs",
        "quantization",
    ),
    "dirac-commutative": IdentityInfo(
        "mu_D is graded commutative (and associative, unital)",
        "random pairs and triples",
        "quantization",
    ),
    "dirac-not-chain-map": IdentityInfo(
        "mu_D is not a cochain map (witness pair exhibited)",
        "evaluate the Leibniz defect on a field/antifield pair",
        "quantization",
    ),
    "filtration-preserved": IdentityInfo(
        "Q_h preserves the symmetric-power filtration; graded piece = classical Q",
        "word-length decomposition of Q_h images for p <= p_max",
        "quantization",
    ),
    "time-slice-sym-powers": IdentityInfo(
        "d(H_p) = id - Sym^p(f g) and = id - Sym^p(g f) for p <= p_max",
        "symmetrized tensor-power homotopies on sampled basis words",
        "quantization",
    ),
    # comparison suite
    "comparison-chain-map": IdentityInfo(
        "Q o T = T o Q_h for T = exp(i h Delta_D)",
        "delta-basis words up to length 4",
        "comparison",
    ),
    "comparison-multiplicative": IdentityInfo(
        "T o mu = mu_D o (T (x) T)",
        "random pairs",
        "comparison",
    ),
    "comparison-tuples": IdentityInfo(
        "T o F(tuple) = F_A(tuple) o T(x) for tuple lengths 0..4",
        "stacked diamonds; length >= 3 also via the hull factorization",
        "comparison",
    ),
    "comparison-invertible": IdentityInfo(
        "exp(-i h Delta_D) o exp(i h Delta_D) = id",
        "random elements of bounded word length",
        "comparison",
    ),
    "fa-ordering-independent": IdentityInfo(
        "F_A does not depend on the chosen time-ordering permutation",
        "causally disjoint pair: both orders",
        "comparison",
    ),
    "dirac-products-match": IdentityInfo(
        "mu_D^(n) o pushforwards = F_A(tuple) for n <= 3",
        "stacked tuples with random basis words",
        "comparison",
    ),
    "pair-power-half": IdentityInfo(
        "<-,->_D^k = (<-,->_0 / 2)^k on time-ordered pair images, k <= 3",
        "iterate both biderivations on random word pairs",
        "comparison",
    ),
}

# the suites in catalog order: the default run order
SUITE_NAMES = tuple(dict.fromkeys(info.suite for info in CATALOG.values()))


def catalog_for_suite(suite: str) -> list:
    return [key for key, info in CATALOG.items() if info.suite == suite]


class CheckRecord(NamedTuple):
    identity: str
    passed: bool
    inputs_digest: str
    witness: Optional[str] = None
    wall_ms: float = 0.0

    def to_dict(self) -> dict:
        info = CATALOG[self.identity]
        out = {
            "identity": self.identity,
            "statement": info.statement,
            "strategy": info.strategy,
            "suite": info.suite,
            "passed": self.passed,
            "inputs_digest": self.inputs_digest,
            "wall_ms": round(self.wall_ms, 3),
        }
        if self.witness is not None:
            out["witness"] = self.witness
        return out


def digest_inputs(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return sha256(text.encode()).hexdigest()[:16]


def make_report(config: dict, records: list) -> dict:
    ordered = sorted(records, key=lambda r: (CATALOG[r.identity].suite, r.identity))
    return {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest_inputs(config),
        "seed": config.get("seed"),
        "model": config.get("model"),
        "all_passed": all(r.passed for r in records),
        "n_checks": len(records),
        "records": [r.to_dict() for r in ordered],
    }


def render_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)


def strip_timing(report: dict) -> dict:
    """Report with timing fields removed (the determinism invariant)."""
    out = dict(report)
    out["records"] = [
        {k: v for k, v in rec.items() if k != "wall_ms"} for rec in report["records"]
    ]
    return out

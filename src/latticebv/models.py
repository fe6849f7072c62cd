"""Built-in free field complexes on the lattice cylinder.

Two models:

* ``klein_gordon`` — a two-term complex E --P--> E with P the discrete
  wave operator (second time difference minus kappa times the second space
  difference plus a mass term) and witness W = id.  With kappa = 0 and a
  one-site ring this degenerates to the pure-time oscillator used in the
  simplest solver tests.

* ``maxwell2d`` — the four-term gauge complex of 1-form electrodynamics in
  1+1 dimensions: lattice 0-forms and 1-forms with d the forward-difference
  coboundary and delta its Lorentzian-signed adjoint (time component weighted
  -1), Q = (d, delta d, delta), W = (delta, id, d).  P = QW + WQ comes out as
  the componentwise wave operator, so Green hyperbolicity is verified rather
  than assumed.

Fiber index conventions for 1-forms: 0 = time component, 1 = space component.
"""

from __future__ import annotations

from fractions import Fraction

from .bvtheory import FiberMetric, FreeBVModel, Stencil, StencilEntry
from .lattice import Lattice


def _entries(spec):
    return [StencilEntry(dt, dx, fin, fout, Fraction(c)) for (dt, dx, fin, fout, c) in spec]


def klein_gordon(lattice: Lattice, kappa=Fraction(1), mass_sq=Fraction(0), metric_flip=False) -> FreeBVModel:
    """Scalar field with antifield: degrees {0: field, 1: antifield}.

    (P phi)(t,x) = phi(t+1,x) - 2 phi(t,x) + phi(t-1,x)
                   - kappa*(phi(t,x+1) - 2 phi(t,x) + phi(t,x-1)) + m2 phi(t,x).

    The unit coefficient at (t+1, x) gives exact forward solves for any
    rational kappa, m2.  ``metric_flip`` deliberately breaks the graded
    anti-symmetry of the fiber metric (used by failure-injection tests).
    """
    kappa = Fraction(kappa)
    mass_sq = Fraction(mass_sq)
    p_spec = [
        (1, 0, 0, 0, Fraction(1)),
        (-1, 0, 0, 0, Fraction(1)),
        (0, 0, 0, 0, Fraction(-2) + 2 * kappa + mass_sq),
        (0, 1, 0, 0, -kappa),
        (0, -1, 0, 0, -kappa),
    ]
    q_op = Stencil(1, {0: _entries(p_spec)})
    w_op = Stencil(-1, {1: _entries([(0, 0, 0, 0, 1)])})
    m1 = ((Fraction(1),),)
    m0 = ((Fraction(1),),) if metric_flip else ((Fraction(-1),),)
    metric = FiberMetric({1: m1, 0: m0})
    name = "kg" if not metric_flip else "kg-flipped"
    return FreeBVModel(name, lattice, {0: 1, 1: 1}, q_op, w_op, metric)


# Difference operators of the 1+1d lattice exterior calculus.  Degrees refer
# to form degree here, not complex degree; the model wires them into complex
# degrees below.
_D0 = [  # 0-forms -> 1-forms: (df)_t = f(t+1)-f, (df)_x = f(x+1)-f
    (1, 0, 0, 0, 1), (0, 0, 0, 0, -1),
    (0, 1, 0, 1, 1), (0, 0, 0, 1, -1),
]
_D1 = [  # 1-forms -> 2-forms: (da)_{tx} = a_x(t+1)-a_x - a_t(x+1)+a_t
    (1, 0, 1, 0, 1), (0, 0, 1, 0, -1),
    (0, 1, 0, 0, -1), (0, 0, 0, 0, 1),
]
_DELTA1 = [  # 1-forms -> 0-forms: delta(a) = a_t - a_t(t-1) - a_x + a_x(x-1)
    (0, 0, 0, 0, 1), (-1, 0, 0, 0, -1),
    (0, 0, 1, 0, -1), (0, -1, 1, 0, 1),
]
_DELTA2 = [  # 2-forms -> 1-forms: (dw)_t = w - w(x-1), (dw)_x = w - w(t-1)
    (0, 0, 0, 0, 1), (0, -1, 0, 0, -1),
    (0, 0, 0, 1, 1), (-1, 0, 0, 1, -1),
]


def maxwell2d(lattice: Lattice, metric_flip=False) -> FreeBVModel:
    """1-form electrodynamics in 1+1d: degrees -1..2 with ranks (1,2,2,1).

    Q = d : deg -1 -> 0,  delta d : 0 -> 1,  delta : 1 -> 2.
    W = delta : 0 -> -1,  id : 1 -> 0,  d : 2 -> 1.
    Metric: Lorentz pairing of 1-forms between degrees 0 and 1 (signature
    (-,+)), scalar pairing between degrees -1 and 2.
    """
    delta_d = Stencil(0, {0: _entries(_DELTA2)}).compose(Stencil(0, {0: _entries(_D1)}))
    q_op = Stencil(
        1,
        {
            -1: _entries(_D0),
            0: delta_d.entries[0],
            1: _entries(_DELTA1),
        },
    )
    w_op = Stencil(
        -1,
        {
            0: _entries(_DELTA1),
            1: _entries([(0, 0, 0, 0, 1), (0, 0, 1, 1, 1)]),
            2: _entries(_D0),
        },
    )
    lorentz = ((Fraction(-1), Fraction(0)), (Fraction(0), Fraction(1)))
    neg_lorentz = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))
    blocks = {
        1: lorentz,  # (deg 1, deg 0) pairs of 1-forms
        0: neg_lorentz,  # = -transpose(lorentz)
        2: ((Fraction(1),),),  # (deg 2, deg -1) pairs of 0-forms
        -1: ((Fraction(-1),),),
    }
    if metric_flip:
        blocks[0] = lorentz
    metric = FiberMetric(blocks)
    name = "maxwell2d" if not metric_flip else "maxwell2d-flipped"
    ranks = {-1: 1, 0: 2, 1: 2, 2: 1}
    return FreeBVModel(name, lattice, ranks, q_op, w_op, metric)


# each model's builder and the rational model_params it reads; every
# builder also takes metric_flip
MODEL_BUILDERS = {
    "kg": (klein_gordon, ("kappa", "mass_sq")),
    "maxwell2d": (maxwell2d, ()),
}


def model_entry(name) -> tuple:
    if not isinstance(name, str) or name not in MODEL_BUILDERS:
        raise ValueError(f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name]


def build_model(name: str, lattice: Lattice, params: dict) -> FreeBVModel:
    """The named model, given the rationals of ``params`` its entry lists and metric_flip."""
    builder, reads = model_entry(name)
    kwargs = {key: Fraction(str(params[key])) for key in reads if key in params}
    return builder(lattice, metric_flip=params.get("metric_flip", False), **kwargs)

"""Exact verification of BV and Moyal-Weyl quantizations of free field
complexes on discrete Lorentzian lattices.

The package machine-checks, in exact arithmetic (rationals for sections,
Green solves and pairings; polynomials in u = i*h over Q for the symmetric
algebra, plain rationals when constant, whose text reports the
h-coefficients in Q(i)), the algebraic identities relating the two
quantizations of a free field complex on a lattice cylinder: the deformed
differential Q_h = Q + i*h*Delta_BV with its time-ordered products, the
Moyal-Weyl star product with Einstein causality and time-slice, and the
time-ordering isomorphism T = exp(i*h*Delta_D) intertwining them.
"""

from .scalars import GaussianRational, HScalar
from .lattice import (
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
)
from .bvtheory import (
    FiberMetric,
    FreeBVModel,
    GreenSolver,
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
    tau_0,
    tau_dirac,
    tau_minus1,
)
from .models import build_model, klein_gordon, maxwell2d
from .symalg import (
    PairingOracle,
    SymElement,
    TensorElement,
    bider_apply,
    laplacian_apply,
    mul,
    normalize,
    sym_map,
)
from .quantize import (
    SymModel,
    dirac_nary,
    fa_product,
    tpfa_product,
)
from .suites import DEFAULT_CONFIG, run_suites
from .reporting import CATALOG, make_report, render_report

__version__ = "0.1.0"

"""Exact-arithmetic engine for finitely generated graded modules over
Q[t1..tr]: Groebner bases, free resolutions, Betti tables, Hilbert series,
Ext, depth/dimension/syzygy invariants, and equivariant-cohomology fixtures.

Grading convention: deg(ti) = d (default 2). The shift M[l] ADDS l to all
generator degrees, so R[l] is generated in degree l and HS(M[l]) =
x^l HS(M). This is the opposite of the classical R(-l) notation.
"""

from syzal.errors import (
    InhomogeneousError,
    InputError,
    SyzalError,
    VerificationError,
    ZeroModuleError,
)
from syzal.ring import (
    Polynomial,
    Rational,
    RingSpec,
    format_polynomial,
    grevlex,
    parse_polynomial,
)
from syzal.modfree import (
    FreeModule,
    GradedMatrix,
    ModuleElement,
    ModulePresentation,
    direct_sum,
    free_presentation,
    load_presentation,
    presentation_from_json,
    presentation_to_json,
    residue_field,
    ring_module,
    save_presentation,
    shift,
    zero_module,
)
from syzal.groebner import (
    GroebnerBasis,
    buchberger,
    divide,
    kernel,
    lift,
    normal_form,
    schreyer_basis,
    syzygies,
)
from syzal.resolution import (
    BettiTable,
    FreeResolution,
    koszul_complex,
    koszul_syzygy,
    maximal_ideal,
    minimize,
    minimize_presentation,
    resolve,
)
from syzal.homalg import (
    BidualityResult,
    HilbertSeries,
    ModuleFingerprint,
    biduality,
    depth_dim,
    dual,
    euler_series,
    ext,
    fingerprint,
    hilbert_series,
    is_cohen_macaulay,
    is_zero_module,
    minimal_resolution,
    subquotient_presentation,
    syzygy_order,
)
from syzal.equivariant import (
    AbReport,
    GkmGraph,
    ab_report,
    gkm_module,
    homogeneous_space,
    hypercube_graph,
    mutant_ht,
    mutant_hht,
    parse_gkm,
    toric_ht,
    toric_hht,
    toric_u,
    toric_v,
)
from syzal.oracle import (
    default_window,
    ext_dims,
    free_dim,
    map_rank,
    module_dims,
    resolution_is_exact,
)

__version__ = "0.1.0"

# The monomial kernel is pure Python; perfbench/run.py records this on its env line.
BACKEND = "python"

__all__ = [name for name in dir() if not name.startswith("_")]

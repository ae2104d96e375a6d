"""Real-zero counts and locations of hypergeometric polynomials.

Predicts how many zeros of F(-n, b; c; z) fall in (1, inf), (0, 1) and
(-inf, 0) for arbitrary real b and c, locates the circle-bound geometry of
the directly analyzed quadratic templates, and verifies every prediction
with an exact Sturm counter plus a numeric complex root solver.
"""

from .core import (
    BoundaryParameterError,
    Counts,
    InvalidParameterError,
    NonConvergenceError,
    Params,
    Poly,
    Root,
    RootSet,
    coefficients,
    evaluate,
    gegenbauer,
    jacobi,
    pochhammer,
    poly,
)
from .klein import (
    KleinXYZ,
    binomial_sign,
    classify_region,
    klein_E,
    predict_counts,
    xyz,
)
from .oracle import (
    VerificationReport,
    all_roots,
    geometry_report,
    interval_counts,
    sturm_counts,
    verify,
)
from .special import (
    Geometry,
    predict_2b,
    predict_half,
    predict_minus2n,
)
from .transforms import (
    euler_reflect,
    invert,
    pfaff,
    quadratic_class_match,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryParameterError",
    "Counts",
    "Geometry",
    "InvalidParameterError",
    "KleinXYZ",
    "NonConvergenceError",
    "Params",
    "Poly",
    "Root",
    "RootSet",
    "VerificationReport",
    "all_roots",
    "binomial_sign",
    "classify_region",
    "coefficients",
    "euler_reflect",
    "evaluate",
    "gegenbauer",
    "geometry_report",
    "interval_counts",
    "invert",
    "jacobi",
    "klein_E",
    "pfaff",
    "pochhammer",
    "poly",
    "predict_2b",
    "predict_counts",
    "predict_half",
    "predict_minus2n",
    "quadratic_class_match",
    "sturm_counts",
    "verify",
    "xyz",
]

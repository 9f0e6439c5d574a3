"""fejerlab: Hermite-Fejer interpolation identities, verified and discovered.

Exact rational polynomial algebra, arbitrary-precision numerics, knot-system
generators, Hermite-Fejer fundamental polynomials, zero-tolerance identity
proofs, and a conjecture engine for new identities of the same family.
"""

from .apnum import ApFloat, NumPoly
from .conjecture import (
    ConjectureReport,
    InsufficientTrainingPoints,
    Recognition,
    conjecture_power_formula,
    explore_knot_family,
    rational_reconstruct,
)
from .hermite import (
    FundamentalBasis,
    LengthMismatch,
    chebyshev_closed_form,
    derivative_extremes,
    derivative_sum,
    hermite_fejer_basis,
    interpolate,
    scaled_tolerance,
)
from .identities import (
    IdentityReport,
    inverse_power_sum,
    midpoint_second_derivative,
    second_derivative_balance,
    sin2_charpoly,
    verify_cosecant_sum,
)
from .knots import (
    ConvergenceFailure,
    KnotSet,
    KnotSpacingError,
    chebyshev1_knots,
    chebyshev2_knots,
    equispaced_knots,
    gauss_jacobi_knots,
    make_knots,
)
from .ratpoly import (
    DuplicateAbscissa,
    NotOdd,
    RatPoly,
    X,
    ZeroConstantTerm,
    chebyshev_T,
    format_rational,
    newton_power_sums,
    rational_interpolate,
)

__version__ = "0.1.0"

__all__ = [
    "ApFloat",
    "ConjectureReport",
    "ConvergenceFailure",
    "DuplicateAbscissa",
    "FundamentalBasis",
    "IdentityReport",
    "InsufficientTrainingPoints",
    "KnotSet",
    "KnotSpacingError",
    "LengthMismatch",
    "NotOdd",
    "NumPoly",
    "RatPoly",
    "Recognition",
    "X",
    "ZeroConstantTerm",
    "chebyshev1_knots",
    "chebyshev2_knots",
    "chebyshev_T",
    "chebyshev_closed_form",
    "conjecture_power_formula",
    "derivative_extremes",
    "derivative_sum",
    "equispaced_knots",
    "explore_knot_family",
    "format_rational",
    "gauss_jacobi_knots",
    "hermite_fejer_basis",
    "interpolate",
    "inverse_power_sum",
    "make_knots",
    "midpoint_second_derivative",
    "newton_power_sums",
    "rational_interpolate",
    "rational_reconstruct",
    "scaled_tolerance",
    "second_derivative_balance",
    "sin2_charpoly",
    "verify_cosecant_sum",
]

"""Numerical laboratory for weight-induced fractional calculus on the disc.

The package computes the fractional derivative and integral driven by the
moments of a radial weight, the associated Volterra-type operator and its
truncated matrices, the function-space norms they are compared against, and
grid diagnostics for the doubling classes of weights.
"""

from . import geometry, norms, quad, taylor, volterra, weight_class, weights
from .quad import NormEstimate
from .weights import (
    DerivedWeight,
    ExponentialWeight,
    ExprWeight,
    RadialWeight,
    StandardWeight,
    TailExprWeight,
    WeightError,
    from_descriptor,
    from_shorthand,
)
from .taylor import (
    KernelSlice,
    TaylorSeries,
    frac_R,
    frac_derivative,
    frac_integral,
    frac_rep_identity_check,
)

__all__ = [
    "NormEstimate",
    "RadialWeight",
    "StandardWeight",
    "ExponentialWeight",
    "ExprWeight",
    "TailExprWeight",
    "DerivedWeight",
    "WeightError",
    "from_descriptor",
    "from_shorthand",
    "TaylorSeries",
    "KernelSlice",
    "frac_derivative",
    "frac_integral",
    "frac_R",
    "frac_rep_identity_check",
]

__version__ = "0.1.0"

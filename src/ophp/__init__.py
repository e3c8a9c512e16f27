"""Operator-weighted Hodrick-Prescott trend filtering.

The package extracts a smooth signal from noisy observations by penalized
least squares with an operator-valued smoothing weight, computes the
smoothing operator that makes the filter reproduce the conditional mean of
the signal under a Gaussian noise model, and handles non-trace-class
(white) noise through spectral weight scales that reduce the optimal
smoother to the classical noise-to-signal ratio.

The package namespace holds the entry points the README documents, the
constructors they take and the error classes; everything else is imported
from its submodule.
"""

from .filter import (
    FilterProblem,
    FilterSolveError,
    PositivityError,
    solve_filter,
)
from .gaussian import (
    GaussianModel,
    ModelError,
    conditional_mean,
)
from .operators import (
    BasisMismatchError,
    CoeffVector,
    DimensionMismatchError,
    apply,
    dense_operator,
    diagonal_operator,
    kernel_operator,
    pinv,
)
from .scales import (
    scaled_optimal_b,
    trace_class_threshold,
)
from .smoothing import SingularCovarianceError, optimal_b

__version__ = "0.1.0"

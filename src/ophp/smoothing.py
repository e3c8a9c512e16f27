"""Optimal smoothing operator and its gap to the conditional mean.

Under the Gaussian model the smoothing operator that brings the filtered
trend closest to the conditional mean of the signal is
``pinv(A)* sigma_u A* sigma_v^{-1}``, with the noise covariance inverted on
the range of ``A``.  :func:`optimal_b` assembles it, also for rescaled
covariances (:func:`~ophp.scales.scaled_optimal_b`), and :func:`gap`
measures the filter's distance to the conditional mean, which vanishes on
the range of ``A`` (:func:`~ophp.validate.gap_check` checks it).
"""

from __future__ import annotations

import numpy as np

from .filter import FilterProblem, solve_filter
from .gaussian import GaussianModel, conditional_mean
from .operators import (
    CoeffVector,
    OperatorRep,
    adjoint,
    compose,
    dense_operator,
    diagonal_operator,
    psd_inverse,
)


class SingularCovarianceError(ValueError):
    """sigma_v is not invertible on the range of the operator."""


def optimal_b(model: GaussianModel) -> OperatorRep:
    """Smoother ``pinv(A)* sigma_u A* sigma_v^{-1}`` minimizing the gap.

    Diagonal inputs yield a diagonal output.  Raises
    :class:`SingularCovarianceError` naming the offending spectral
    components when ``sigma_v`` is singular on the range of the operator.
    """
    a, bundle = model.a, model.pinv_bundle
    if model.is_diagonal:
        kept = bundle.retained
        sv = model.sigma_v.stored
        # Componentwise inversion is exact regardless of dynamic range, so
        # only genuinely non-positive entries are singular here.
        bad = kept[~(sv[kept] > np.finfo(float).tiny)]
        if bad.size:
            raise SingularCovarianceError(
                f"sigma_v is singular on range components {bad.tolist()}"
            )
        inv_sv = np.zeros_like(sv)
        inv_sv[kept] = 1.0 / sv[kept]
        mult = bundle.pinv.stored * model.sigma_u.stored * a.stored * inv_sv
        return diagonal_operator(mult, a.codomain_basis)
    basis = bundle.range_basis
    inv_full = np.zeros((a.dim_out, a.dim_out))
    if basis.size:
        restricted = dense_operator(basis.T @ model.sigma_v.as_matrix() @ basis)
        inv_restricted, rank = psd_inverse(restricted)
        if rank < basis.shape[1]:
            raise SingularCovarianceError("sigma_v is singular on the range of A")
        inv_full = basis @ inv_restricted.stored @ basis.T
    sv_inv = dense_operator(inv_full, a.codomain_basis)
    return compose(
        adjoint(bundle.pinv), compose(model.sigma_u, compose(adjoint(a), sv_inv))
    )


def gap(model: GaussianModel, b: OperatorRep, x: CoeffVector) -> float:
    """Distance between the conditional mean and the filtered trend at ``x``."""
    mean = conditional_mean(model, x)
    trend = solve_filter(FilterProblem(model.a, x, b))
    return (mean - trend).norm()


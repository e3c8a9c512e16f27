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
from .gaussian import GaussianModel, ModelError, conditional_mean
from .operators import (
    CoeffVector,
    OperatorRep,
    adjoint,
    compose,
    dense_operator,
    psd_inverse,
)


class SingularCovarianceError(ValueError):
    """sigma_v is not invertible on the range of the operator."""


def optimal_b(model: GaussianModel) -> OperatorRep:
    """Smoother ``pinv(A)* sigma_u A* sigma_v^{-1}`` minimizing the gap.

    One composition, associated from the left, for every storage kind: a
    diagonal model gives a diagonal smoother, equal to its dense twin's.  Raises
    :class:`SingularCovarianceError` naming the offending spectral
    components when ``sigma_v`` is singular on the range of the operator,
    and :class:`~ophp.gaussian.ModelError` when the smoother of finite
    inputs overflows the float range.
    """
    sv_plus = _sigma_v_plus(model)
    with np.errstate(over="ignore", invalid="ignore"):
        bhat = compose(adjoint(model.pinv_bundle.pinv), model.sigma_u)
        bhat = compose(compose(bhat, adjoint(model.a)), sv_plus)
    if not np.isfinite(bhat.stored).all():
        raise ModelError(
            "the optimal smoother pinv(A)* sigma_u A* sigma_v^-1 is not finite: "
            "it overflows the float range"
        )
    return bhat


def _sigma_v_plus(model: GaussianModel) -> OperatorRep:
    """``sigma_v`` inverted on the range of ``A`` and zero off it; the one
    step that reads the storage kind, as its refusal rules differ."""
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
    else:
        basis = bundle.range_basis
        inv_sv = np.zeros((a.dim_out, a.dim_out))
        if basis.size:
            restricted = dense_operator(basis.T @ model.sigma_v.as_matrix() @ basis)
            inv_restricted, rank = psd_inverse(restricted)
            if rank < basis.shape[1]:
                raise SingularCovarianceError("sigma_v is singular on the range of A")
            inv_sv = basis @ inv_restricted.stored @ basis.T
    return OperatorRep(inv_sv, a.codomain_basis, a.codomain_basis)


def gap(model: GaussianModel, b: OperatorRep, x: CoeffVector) -> float:
    """Distance between the conditional mean and the filtered trend at ``x``."""
    mean = conditional_mean(model, x)
    trend = solve_filter(FilterProblem(model.a, x, b))
    return (mean - trend).norm()


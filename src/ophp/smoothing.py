"""Optimal smoothing operator.

Under the Gaussian model the smoothing operator that brings the filtered
trend closest to the conditional mean of the signal is
``pinv(A)* sigma_u A* sigma_v^{-1}``, with the noise covariance inverted on
the range of ``A``.  :func:`optimal_b` assembles it once per operator and
covariances, also for rescaled covariances
(:func:`~ophp.scales.scaled_optimal_b`); the filter's distance to the
conditional mean vanishes on the range of ``A``
(:func:`~ophp.validate.gap_check` checks it).
"""

from __future__ import annotations

import weakref

import numpy as np

from .gaussian import GaussianModel, ModelError
from .operators import (
    OperatorRep,
    adjoint,
    compose,
    dense_operator,
    psd_inverse,
)


class SingularCovarianceError(ValueError):
    """sigma_v is not invertible on the range of the operator."""


# Smoothers asked for, keyed on A, then sigma_u, then sigma_v: the operators
# a smoother is computed from, not the model, whose y0 it does not read.
# Operators are immutable and hash by identity, and an entry goes when one of
# its three operators is collected.
_SMOOTHERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def optimal_b(model: GaussianModel) -> OperatorRep:
    """Smoother ``pinv(A)* sigma_u A* sigma_v^{-1}`` minimizing the gap.

    One composition, associated from the left, for every storage kind: a
    diagonal model gives a diagonal smoother, equal to its dense twin's.  It
    is assembled once per ``(A, sigma_u, sigma_v)`` object triple and the
    same read-only operator is returned while the three are alive, so
    ``solve_filter`` reuses its positivity verdict and the CLI its written
    text too.  A ``with_y0`` model shares its model's smoother; a model made
    with ``replace`` and other covariances gets its own.  Raises
    :class:`SingularCovarianceError` naming the offending spectral
    components when ``sigma_v`` is singular on the range of the operator,
    and :class:`~ophp.gaussian.ModelError` when the smoother of finite
    inputs overflows the float range; a model that fails is not kept.
    """
    by_sigma_u = _SMOOTHERS.setdefault(model.a, weakref.WeakKeyDictionary())
    by_sigma_v = by_sigma_u.setdefault(model.sigma_u, weakref.WeakKeyDictionary())
    bhat = by_sigma_v.get(model.sigma_v)
    if bhat is not None:
        return bhat
    sv_plus = _sigma_v_plus(model)
    with np.errstate(over="ignore", invalid="ignore"):
        bhat = compose(adjoint(model.pinv_bundle.pinv), model.sigma_u)
        bhat = compose(compose(bhat, adjoint(model.a)), sv_plus)
    if not np.isfinite(bhat.stored).all():
        raise ModelError(
            "the optimal smoother pinv(A)* sigma_u A* sigma_v^-1 is not finite: "
            "it overflows the float range"
        )
    by_sigma_v[model.sigma_v] = bhat
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

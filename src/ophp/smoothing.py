"""Optimal smoothing operator.

Under the Gaussian model the smoothing operator that brings the filtered
trend closest to the conditional mean of the signal is
``pinv(A)* sigma_u A* sigma_v^{-1}``, with the noise covariance inverted on
the range of ``A``.  In the singular frame of ``A`` (``A = U_r S V_r*``,
see :class:`~ophp.operators.SingularFrame`) it is
``U_r S^-1 (V_r* sigma_u V_r) S (U_r* sigma_v U_r)^-1 U_r*``, for every
storage kind.  :func:`frame_smoother` assembles it from the two frame
cores, which :func:`optimal_b` restricts from the covariances once per
operator and covariances and :func:`~ophp.scales.scaled_optimal_b`
rescales; the filter's distance to the conditional mean vanishes on the
range of ``A`` (:func:`~ophp.validate.gap_check` checks it).
"""

from __future__ import annotations

import weakref

import numpy as np

from .gaussian import GaussianModel, ModelError
from .operators import OperatorRep, SingularFrame, core_product


class SingularCovarianceError(ValueError):
    """sigma_v is not invertible on the range of the operator."""


# Smoothers asked for, keyed on A, then sigma_u, then sigma_v: the operators
# a smoother is computed from, not the model, whose y0 it does not read.
# Operators are immutable and hash by identity, and an entry goes when one of
# its three operators is collected.
_SMOOTHERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def optimal_b(model: GaussianModel) -> OperatorRep:
    """Smoother ``pinv(A)* sigma_u A* sigma_v^{-1}`` minimizing the gap.

    One frame formula, associated from the left, for every storage kind: a
    diagonal model gives a diagonal smoother, equal to its dense twin's.  It
    is assembled once per ``(A, sigma_u, sigma_v)`` object triple and the
    same read-only operator is returned while the three are alive, so
    ``solve_filter`` reuses its positivity verdict and the CLI its written
    text too.  A ``with_y0`` model shares its model's smoother; a model made
    with ``replace`` and other covariances gets its own.  Raises
    :class:`SingularCovarianceError` when ``sigma_v`` is singular on the
    range of the operator, naming the offending spectral components where
    its frame core is diagonal, and :class:`~ophp.gaussian.ModelError` when
    the smoother of finite inputs overflows the float range; a model that
    fails is not kept.
    """
    by_sigma_u = _SMOOTHERS.setdefault(model.a, weakref.WeakKeyDictionary())
    by_sigma_v = by_sigma_u.setdefault(model.sigma_u, weakref.WeakKeyDictionary())
    bhat = by_sigma_v.get(model.sigma_v)
    if bhat is not None:
        return bhat
    frame = model.pinv_bundle
    sigma_v = frame.codomain_core(model.sigma_v)
    with np.errstate(over="ignore", invalid="ignore"):
        sigma_u = frame.domain_core(model.sigma_u)
    bhat = by_sigma_v[model.sigma_v] = frame_smoother(frame, sigma_u, sigma_v)
    return bhat


def frame_smoother(
    frame: SingularFrame, sigma_u: np.ndarray, sigma_v: np.ndarray
) -> OperatorRep:
    """``U_r S^-1 sigma_u S sigma_v^-1 U_r*`` of a domain core ``sigma_u``
    and a codomain core ``sigma_v`` in ``frame``, with the errors of
    :func:`optimal_b`."""
    sigma_v_inverse, singular = frame.range_inverse(sigma_v)
    if singular is not None:
        raise SingularCovarianceError(f"sigma_v is singular on {singular}")
    s = frame.scales
    with np.errstate(over="ignore", invalid="ignore"):
        bhat = frame.extend(core_product(1.0 / s, sigma_u, s, sigma_v_inverse))
    if not np.isfinite(bhat.stored).all():
        raise ModelError(
            "the optimal smoother pinv(A)* sigma_u A* sigma_v^-1 is not finite: "
            "it overflows the float range"
        )
    return bhat

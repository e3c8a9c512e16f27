"""Spectral weight scales for non-trace-class noise.

When the noise covariances are not trace class (white noise being the
canonical case), the model is moved to a weighted copy of the base space.
The weights come from powers of the inverse of ``pinv(A) pinv(A)*``
restricted to the range of ``A``: for a spectral operator with singular
values s_j the scale eigenvalues are kappa_j = s_j**2, and scale index n
weights component j by kappa_j**n.  Rescaling the covariances by these
weights restores summability for large enough n, and for white noise the
optimal smoother in the rescaled space collapses to the scalar
noise-to-signal ratio on the range components.

Scales are realized purely as weight sequences on spectral components; no
abstract completion is constructed.  ``ophp scale`` writes the weights from
the pinv bundle; they are not a library object.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import reduce

from .gaussian import DecayDeclaration, GaussianModel
from .operators import OperatorRep, adjoint, compose, symmetrize
from .smoothing import optimal_b


# The largest scale index served, a practical ceiling rather than an exact
# criterion: at n = 64, singular values a factor of 16 apart give weights
# kappa_j**(2n) a factor 2**1024 apart, the largest float measured from 1,
# and a dense model composes 2n matrices per covariance.
MAX_SCALE_N = 64


def rescaled_covariances(
    model: GaussianModel, n: int
) -> tuple[OperatorRep, OperatorRep]:
    """Covariances conjugated by the n-th power of the inverse scale operator.

    Each covariance becomes ``W sigma W``, with ``W = (pinv(A) pinv(A)*)^n``
    on the domain and ``(pinv(A)* pinv(A))^n`` on the codomain.  Spectral
    models stay diagonal with entries sigma_j / kappa_j**(2n) on the range
    components; for n >= 1 the null-space components are zeroed.  At n = 0
    the inputs are returned unchanged.
    """
    if n < 0:
        raise ValueError("scale index n must be nonnegative")
    if n == 0:
        return model.sigma_u, model.sigma_v
    p = model.pinv_bundle.pinv
    # Powers by repeated composition: no factorization beyond the pinv's.
    w_domain = reduce(compose, [compose(p, adjoint(p))] * n)
    w_codomain = reduce(compose, [compose(adjoint(p), p)] * n)
    return (
        symmetrize(compose(w_domain, compose(model.sigma_u, w_domain))),
        symmetrize(compose(w_codomain, compose(model.sigma_v, w_codomain))),
    )


def trace_class_threshold(decay: DecayDeclaration) -> int | None:
    """Least scale index making both rescaled covariances summable.

    With kappa_j ~ j**p and sigma_j ~ j**(-q), the rescaled entries behave
    like j**(-(q + 2 n p)), summable iff q + 2 n p > 1; the smaller q, the
    slower-decaying covariance, decides for both.  Returns ``None`` when no
    served index suffices: a NaN exponent, p <= 0 with non-summable sigma,
    or a least index above ``MAX_SCALE_N``.
    """
    p = float(decay.kappa_decay)
    exponents = (float(decay.sigma_u_decay), float(decay.sigma_v_decay))
    if any(map(math.isnan, exponents)):
        return None
    q = min(exponents)
    if q > 1.0:
        return 0
    if not p > 0.0:
        return None
    quotient = (1.0 - q) / (2.0 * p)
    return math.floor(quotient) + 1 if quotient < MAX_SCALE_N else None


def scale_index(
    scale_n: int | None, decay: DecayDeclaration | None
) -> tuple[int | None, int | None]:
    """The scale index to use and the least trace-class index, ``(n, n0)``.

    ``n0`` comes from the decay declaration, if there is one; ``n`` is the
    configured ``scale_n`` if set, else ``n0``.  Either may be ``None``.
    """
    n0 = None if decay is None else trace_class_threshold(decay)
    return (n0 if scale_n is None else scale_n), n0


def scaled_optimal_b(model: GaussianModel, n: int) -> OperatorRep:
    """Optimal smoother of the model with the rescaled covariances; it keeps
    the model's pinv bundle, so ``A`` is not factorized again.

    At n = 0 this coincides with the unscaled optimal smoother; for white
    noise it equals the noise-to-signal ratio times the identity on the
    range components, for every admissible n.
    """
    sigma_u, sigma_v = rescaled_covariances(model, n)
    return optimal_b(replace(model, sigma_u=sigma_u, sigma_v=sigma_v))

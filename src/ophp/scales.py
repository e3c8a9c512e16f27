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
abstract completion is constructed, and the rescaled covariances exist only
as their cores in the singular frame of ``A``.
"""

from __future__ import annotations

import math

import numpy as np

from .gaussian import DecayDeclaration, GaussianModel
from .operators import OperatorRep, core_product
from .smoothing import frame_smoother, optimal_b


# The largest scale index served, a practical ceiling rather than an exact
# criterion: at n = 64, singular values a factor of 16 apart give weights
# kappa_j**n a factor 2**512 apart and rescaled covariance entries, s_j**(-4n),
# a factor 2**1024 apart, the largest float measured from 1.
MAX_SCALE_N = 64


def rescaled_cores(model: GaussianModel, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Frame cores ``(w C_u w, w C_v w)`` of the covariances rescaled at
    index ``n >= 1``: ``C_u = V_r* sigma_u V_r``, ``C_v = U_r* sigma_v U_r``
    and ``w = S^(-2n)``, the cores of ``W sigma_u W`` with
    ``W = (pinv(A) pinv(A)*)^n`` and of ``W' sigma_v W'`` with
    ``W' = (pinv(A)* pinv(A))^n``, which vanish off the range of ``A``."""
    frame = model.pinv_bundle
    inverse = 1.0 / frame.scales
    step = w = inverse * inverse
    for _ in range(n - 1):
        w = w * step
    cores = frame.domain_core(model.sigma_u), frame.codomain_core(model.sigma_v)
    return tuple(core_product(w, core_product(core, w)) for core in cores)


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


def scaled_smoother(
    model: GaussianModel, n: int
) -> tuple[OperatorRep, tuple[np.ndarray, np.ndarray] | None]:
    """:func:`scaled_optimal_b` and the :func:`rescaled_cores` it is formed
    from, ``None`` at n = 0, so that a caller that writes both forms them
    once."""
    if n < 0:
        raise ValueError("scale index n must be nonnegative")
    if n == 0:
        return optimal_b(model), None
    cores = rescaled_cores(model, n)
    return frame_smoother(model.pinv_bundle, *cores), cores


def scaled_optimal_b(model: GaussianModel, n: int) -> OperatorRep:
    """Optimal smoother of the :func:`rescaled_cores` in the frame the model
    keeps, with the errors of ``optimal_b``; at n = 0 it is
    ``optimal_b(model)``, the same object.  For white noise it equals the
    noise-to-signal ratio times the identity on the range components."""
    return scaled_smoother(model, n)[0]

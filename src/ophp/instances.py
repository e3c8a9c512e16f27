"""Built-in test instances with closed-form expectations.

Two instance families ship with the package and double as exact oracles:

* the *ramp* operator on plain coefficient sequences, multiplying component
  j (1-based) by j for j >= 2 and annihilating the first component, so it
  has a one-dimensional null space; and
* the 1-d *Dirichlet Laplacian* realized spectrally in the sine basis, with
  eigenvalues (n pi)**2, whose inverse is the integral operator with the
  classical Green kernel.

The ``expected_*`` helpers compute golden outputs by direct scalar
arithmetic, independent of the operator-algebra code paths they are used to
check.
"""

from __future__ import annotations

import numpy as np

from .gaussian import GaussianModel
from .operators import (
    BASIS_EUCLIDEAN,
    BASIS_SINE,
    CoeffVector,
    OperatorRep,
    diagonal_operator,
)

RAMP_KAPPA_DECAY = 2.0  # ramp singular values grow like j
LAPLACIAN_KAPPA_DECAY = 4.0  # Laplacian eigenvalues grow like n**2


def ramp_multipliers(dim: int) -> np.ndarray:
    mult = np.arange(1, dim + 1, dtype=float)
    mult[0] = 0.0
    return mult


def ramp_operator(dim: int) -> OperatorRep:
    """diag(0, 2, 3, ..., dim) on plain coefficient sequences."""
    return diagonal_operator(ramp_multipliers(dim), BASIS_EUCLIDEAN)


def laplacian_multipliers(dim: int) -> np.ndarray:
    n = np.arange(1, dim + 1, dtype=float)
    return (np.pi * n) ** 2


def laplacian_operator(dim: int) -> OperatorRep:
    """Dirichlet second-derivative operator, diagonal in the sine basis."""
    return diagonal_operator(laplacian_multipliers(dim), BASIS_SINE)


def _as_diagonal(values, dim: int, basis_id: str) -> OperatorRep:
    arr = np.asarray(values, dtype=float)
    if arr.ndim == 0:
        arr = np.full(dim, float(arr))
    if arr.shape != (dim,):
        raise ValueError(f"covariance values must have length {dim}")
    return diagonal_operator(arr, basis_id)


def seeded_sigmas(dim: int, seed: int, low: float = 0.5, high: float = 2.0):
    """Seeded strictly positive covariance diagonals (observation, signal)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(low, high, dim), rng.uniform(low, high, dim)


def ramp_model(
    dim: int, sigma_u, sigma_v, y0: CoeffVector | None = None
) -> GaussianModel:
    """Gaussian model over the ramp operator; sigmas may be scalars or arrays."""
    return GaussianModel.build(
        ramp_operator(dim),
        _as_diagonal(sigma_u, dim, BASIS_EUCLIDEAN),
        _as_diagonal(sigma_v, dim, BASIS_EUCLIDEAN),
        y0=y0,
    )


def laplacian_model(dim: int, sigma_u, sigma_v) -> GaussianModel:
    """Gaussian model over the spectral Dirichlet Laplacian."""
    return GaussianModel.build(
        laplacian_operator(dim),
        _as_diagonal(sigma_u, dim, BASIS_SINE),
        _as_diagonal(sigma_v, dim, BASIS_SINE),
    )


# ---------------------------------------------------------------------------
# Closed-form expectations (independent scalar arithmetic)
# ---------------------------------------------------------------------------


def expected_ramp_bhat(sigma_u, sigma_v) -> np.ndarray:
    """(0, su_2/sv_2, su_3/sv_3, ...) for the ramp operator."""
    su = np.asarray(sigma_u, dtype=float)
    sv = np.asarray(sigma_v, dtype=float)
    out = su / sv
    out[0] = 0.0
    return out


def expected_filter_multipliers(a_multipliers, bhat_multipliers) -> np.ndarray:
    """Componentwise trend multipliers 1 / (a_j**2 b_j + 1)."""
    a = np.asarray(a_multipliers, dtype=float)
    b = np.asarray(bhat_multipliers, dtype=float)
    return 1.0 / (a**2 * b + 1.0)

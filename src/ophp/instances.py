"""Built-in instances of ``ophp example`` with closed-form expectations.

Two instance families ship with the package and double as exact oracles:

* the *ramp* operator on plain coefficient sequences, multiplying component
  j (1-based) by j for j >= 2 and annihilating the first component, so it
  has a one-dimensional null space; and
* the 1-d *Dirichlet Laplacian* realized spectrally in the sine basis, with
  eigenvalues (n pi)**2, whose inverse is the integral operator with the
  classical Green kernel.

The ``expected_*`` helpers compute golden outputs by direct scalar
arithmetic, independent of the operator-algebra code paths they check.
"""

from __future__ import annotations

import numpy as np

from .operators import BASIS_EUCLIDEAN, BASIS_SINE


def ramp_multipliers(dim: int) -> np.ndarray:
    mult = np.arange(1, dim + 1, dtype=float)
    mult[0] = 0.0
    return mult


def laplacian_multipliers(dim: int) -> np.ndarray:
    n = np.arange(1, dim + 1, dtype=float)
    return (np.pi * n) ** 2


# The instances of ``ophp example --which``: the operator's multipliers, its
# basis, and the exponent p of its scale eigenvalues kappa_j ~ j**p.
EXAMPLES = {
    1: (ramp_multipliers, BASIS_EUCLIDEAN, 2.0),  # singular values grow like j
    2: (laplacian_multipliers, BASIS_SINE, 4.0),  # eigenvalues grow like n**2
}


def seeded_sigmas(dim: int, seed: int):
    """Seeded covariance diagonals (observation, signal), uniform on [0.5, 2)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)


# ---------------------------------------------------------------------------
# Closed-form expectations (independent scalar arithmetic)
# ---------------------------------------------------------------------------


def expected_bhat(a_multipliers, sigma_u, sigma_v) -> np.ndarray:
    """Componentwise su_j / sv_j where a_j != 0, and 0 where a_j = 0."""
    a = np.asarray(a_multipliers, dtype=float)
    su = np.asarray(sigma_u, dtype=float)
    sv = np.asarray(sigma_v, dtype=float)
    return np.divide(su, sv, out=np.zeros_like(su), where=a != 0.0)


def expected_filter_multipliers(a_multipliers, bhat_multipliers) -> np.ndarray:
    """Componentwise trend multipliers 1 / (a_j**2 b_j + 1)."""
    a = np.asarray(a_multipliers, dtype=float)
    b = np.asarray(bhat_multipliers, dtype=float)
    return 1.0 / (a**2 * b + 1.0)

"""Reference formulas that the tests check the package against.

Each is written in numpy from its definition, apart from the code paths it
is used to check.
"""

import numpy as np

from ophp import diagonal_operator, qv
from ophp.operators import BASIS_EUCLIDEAN


def identity(dim: int, basis_id: str = BASIS_EUCLIDEAN):
    return diagonal_operator(np.ones(dim), basis_id)


def zero(dim: int, basis_id: str = BASIS_EUCLIDEAN):
    return diagonal_operator(np.zeros(dim), basis_id)


def objective(problem, y) -> float:
    """The filter's penalized objective ``|x - y|^2 + <A y, B A y>`` at ``y``."""
    ay = problem.a.as_matrix() @ y.coeffs
    residual = problem.x.coeffs - y.coeffs
    return float(residual @ residual + ay @ (problem.b.as_matrix() @ ay))


def objective_gradient(problem, y) -> np.ndarray:
    """Gradient ``2 (y - x) + 2 A* B A y`` of the objective (exact for
    symmetric ``B``)."""
    a = problem.a.as_matrix()
    back = a.T @ (problem.b.as_matrix() @ (a @ y.coeffs))
    return 2.0 * (y.coeffs - problem.x.coeffs) + 2.0 * back


def joint_covariance(model) -> np.ndarray:
    """Covariance of the data and the signal, ``(x, y)``: the blocks
    ``((sigma_u + Q_v, Q_v), (Q_v, Q_v))``."""
    q = qv(model).as_matrix()
    return np.block([[model.sigma_u.as_matrix() + q, q], [q, q]])


def tail_ratio(values) -> float:
    """Relative growth ``(S(2N) - S(N)) / S(N)`` of the partial sums of the
    first 2N terms of a sequence: small for a summable power-law tail, near
    or above one for a divergent one."""
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size < 2 or arr.size % 2:
        raise ValueError("tail_ratio needs a 1-d sequence of even length 2N")
    half = arr.size // 2
    s1 = float(arr[:half].sum())
    if s1 <= 0.0:
        raise ValueError("partial sum over the first half must be positive")
    return float(arr[half:].sum()) / s1


def _retained(weights, bundle, x) -> np.ndarray:
    # Spectral coordinates of x: the coefficients of a diagonal operator, or
    # the coefficients rotated by the right singular vectors of a dense one.
    coeffs = x.coeffs if bundle.svd is None else bundle.svd[2] @ x.coeffs
    return coeffs[weights.indices]


def dual_norm(weights, bundle, x) -> float:
    """Norm with reciprocal scale weights; mass off the retained components
    (the null space of the operator) contributes zero."""
    return float(np.linalg.norm(_retained(weights, bundle, x) / weights.weights))


def scale_norm(weights, bundle, x) -> float:
    """Norm with direct scale weights, over the retained components."""
    return float(np.linalg.norm(_retained(weights, bundle, x) * weights.weights))


def laplacian_filter_multipliers(sigma_u, sigma_v, dim: int) -> np.ndarray:
    """Trend multipliers ``(1 + n**4 pi**4 su_n / sv_n)**(-1)``, n = 1..dim, of
    the Dirichlet Laplacian with its optimal smoother."""
    su = np.asarray(sigma_u, dtype=float) * np.ones(dim)
    sv = np.asarray(sigma_v, dtype=float) * np.ones(dim)
    n = np.arange(1, dim + 1, dtype=float)
    return 1.0 / (1.0 + n**4 * np.pi**4 * su / sv)

"""Reference formulas that the tests check the package against.

Each is written in numpy from its definition, apart from the code paths it
is used to check.
"""

import numpy as np

from ophp import diagonal_operator, qv
from ophp.gaussian import BLOCK_ROWS, DEFAULT_CHUNK
from ophp.operators import BASIS_EUCLIDEAN


def identity(dim: int, basis_id: str = BASIS_EUCLIDEAN):
    return diagonal_operator(np.ones(dim), basis_id)


def zero(dim: int, basis_id: str = BASIS_EUCLIDEAN):
    return diagonal_operator(np.zeros(dim), basis_id)


def operator_norm(op) -> float:
    """Spectral norm (largest singular value)."""
    return float(np.linalg.norm(op.as_matrix(), 2))


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


# ---------------------------------------------------------------------------
# Bitwise references: each builder written as one expression per step, with
# a fresh array for every intermediate.  The package computes the same
# products in place, so the results must be equal, not merely close.
# ---------------------------------------------------------------------------


def sine_basis_matrix(nodes, dim: int) -> np.ndarray:
    """``sqrt(2) sin(pi n t)`` at every node ``t`` for ``n = 1..dim``."""
    modes = np.arange(1, dim + 1)
    return np.sqrt(2.0) * np.sin(np.pi * np.outer(np.asarray(nodes, float), modes))


def green_kernel_matrix(dim: int, grid_points: int) -> np.ndarray:
    """Sine-basis matrix of the Dirichlet Green kernel by composite trapezoid
    quadrature on a uniform grid of ``grid_points`` nodes, symmetrized."""
    nodes = np.linspace(0.0, 1.0, grid_points)
    h = 1.0 / (grid_points - 1)
    weights = np.full(grid_points, h)
    weights[0] = weights[-1] = h / 2.0
    t, s = nodes[:, None], nodes[None, :]
    samples = np.where(s <= t, (1.0 - t) * s, t * (1.0 - s))
    basis = sine_basis_matrix(nodes, dim)
    weighted = weights[:, None] * samples * weights[None, :]
    projected = basis.T @ weighted @ basis
    return 0.5 * (projected + projected.T)


def synthesize_series(coeffs, t) -> np.ndarray:
    """Samples on ``t`` of a sine-basis coefficient vector, evaluating the
    basis afresh."""
    return sine_basis_matrix(t, coeffs.shape[0]) @ coeffs


def _rows_times(op, rows) -> np.ndarray:
    return rows * op.multipliers if op.is_diagonal else rows @ op.matrix.T


def sample_joint_chunkwise(model, count: int, seed: int):
    """``(u, v, y, x)`` of the joint sampler's rule, drawing each chunk's u
    normals and then all of its v normals in one call each.

    Chunks of ``DEFAULT_CHUNK`` draws are seeded by ``(seed, chunk index)``
    and transformed in blocks of ``BLOCK_ROWS`` rows, a tail under half a
    block joining the block before it.
    """
    root_u, root_v = model._roots
    proj, ainv = model.pinv_bundle.range_projector, model.pinv_bundle.pinv
    u, y, x = (np.empty((count, model.dim)) for _ in range(3))
    v = np.empty((count, model.codim))
    for start in range(0, count, DEFAULT_CHUNK):
        size = min(DEFAULT_CHUNK, count - start)
        rng = np.random.default_rng([seed, start // DEFAULT_CHUNK])
        zu = rng.standard_normal((size, model.dim))
        zv = rng.standard_normal((size, model.codim))
        lo = 0
        while lo < size:
            hi = lo + BLOCK_ROWS
            if size - hi < BLOCK_ROWS // 2:
                hi = size
            rows = slice(start + lo, start + hi)
            u[rows] = _rows_times(root_u, zu[lo:hi])
            v[rows] = _rows_times(proj, _rows_times(root_v, zv[lo:hi]))
            y[rows] = _rows_times(ainv, v[rows]) + model.y0.coeffs
            x[rows] = y[rows] + u[rows]
            lo = hi
    return u, v, y, x

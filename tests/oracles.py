"""Reference formulas that the tests check the package against, and the
test models.

Each formula is written in numpy from its definition, apart from the code
paths it is used to check; ``gap``, the filter's distance to the
conditional mean, composes the package's own two.  The test models are the
ramp and the spectral Dirichlet Laplacian of ``ophp example``, built from
scalar or array covariance diagonals; ``sample_joint`` collects the joint
sampler's blocks into whole arrays.
"""

import math
import re
from types import SimpleNamespace

import numpy as np

from ophp import (
    FilterProblem,
    GaussianModel,
    PositivityError,
    conditional_mean,
    diagonal_operator,
    solve_filter,
)
from ophp.gaussian import BLOCK_ROWS, DEFAULT_CHUNK, sample_joint_blocks
from ophp.instances import laplacian_multipliers, ramp_multipliers
from ophp.operators import BASIS_EUCLIDEAN, BASIS_SINE, EIG_RTOL, CoeffVector, OperatorRep
from ophp.scales import MAX_SCALE_N


def identity(dim: int, basis_id: str = BASIS_EUCLIDEAN):
    return diagonal_operator(np.ones(dim), basis_id)


def zero(dim: int, basis_id: str = BASIS_EUCLIDEAN):
    return diagonal_operator(np.zeros(dim), basis_id)


def scaled(op: OperatorRep, factor: float) -> OperatorRep:
    """``factor`` times ``op``, stored like ``op``."""
    return OperatorRep(op.stored * float(factor), op.domain_basis, op.codomain_basis)


def ramp_operator(dim: int) -> OperatorRep:
    """diag(0, 2, 3, ..., dim) on plain coefficient sequences."""
    return diagonal_operator(ramp_multipliers(dim), BASIS_EUCLIDEAN)


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


def sample_joint(model, count: int, seed: int):
    """The draws of ``sample_joint_blocks``, copied out of its reused block
    arrays into four ``count``-row arrays: ``u, v, y, x`` and ``count``."""
    u, y, x = (np.empty((count, model.dim)) for _ in range(3))
    v = np.empty((count, model.codim))
    for rows, *block in sample_joint_blocks(model, count, seed):
        for whole, part in zip((u, v, y, x), block):
            whole[rows] = part
    return SimpleNamespace(u=u, v=v, y=y, x=x, count=count)


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


def least_penalty_eigenvalue(a, b) -> float:
    """Least eigenvalue of the symmetric part of ``A* B A``: the minimum of
    the penalty ``<A h, B A h>`` over unit vectors ``h``."""
    amat = a.as_matrix()
    penalty = amat.T @ b.as_matrix() @ amat
    return float(np.linalg.eigvalsh(0.5 * (penalty + penalty.T))[0])


def refused_minimum(a, b) -> float | None:
    """``None`` where ``solve_filter`` accepts the smoother ``b``, else the
    minimum quadratic form its :class:`~ophp.PositivityError` quotes (four
    significant digits)."""
    x = CoeffVector(np.zeros(a.dim_in), a.domain_basis)
    try:
        solve_filter(FilterProblem(a, x, b))
    except PositivityError as exc:
        return float(re.fullmatch(r".*\(minimum quadratic form (\S+)\)", str(exc))[1])
    return None


def gap(model, b, x) -> float:
    """Distance between the conditional mean and the filtered trend at ``x``."""
    mean = conditional_mean(model, x)
    trend = solve_filter(FilterProblem(model.a, x, b))
    return (mean - trend).norm()


def qv(model) -> np.ndarray:
    """Covariance ``Q_v = pinv(A) sigma_v pinv(A)*`` of the signal, as a
    matrix, from the model's generalized inverse."""
    p = model.pinv_bundle.pinv.as_matrix()
    return p @ model.sigma_v.as_matrix() @ p.T


def ambient_slope(model) -> np.ndarray:
    """The regression slope in its ambient form ``Q_v (sigma_u + Q_v)^+``."""
    q = qv(model)
    return q @ np.linalg.pinv(model.sigma_u.as_matrix() + q, hermitian=True)


def joint_covariance(model) -> np.ndarray:
    """Covariance of the data and the signal, ``(x, y)``: the blocks
    ``((sigma_u + Q_v, Q_v), (Q_v, Q_v))``."""
    q = qv(model)
    return np.block([[model.sigma_u.as_matrix() + q, q], [q, q]])


def _cosine_moments(weight: str, m: np.ndarray) -> np.ndarray:
    """``int_0^1 w(t) cos(m pi t) dt`` in closed form at integer ``m``, for
    ``w = chi[0, 1/2]`` ("chi") or ``w = 1 + t`` ("one-plus-t")."""
    m = np.asarray(m, dtype=float)
    safe = np.where(m == 0.0, 1.0, m) * np.pi
    if weight == "chi":
        return np.where(m == 0.0, 0.5, np.sin(safe / 2.0) / safe)
    if weight == "one-plus-t":
        return np.where(m == 0.0, 1.5, (np.cos(safe) - 1.0) / safe**2)
    raise ValueError(f"unknown weight {weight!r}")


def multiplication_compression(weight: str, dim: int) -> OperatorRep:
    """Sine-basis compression of multiplication by ``w`` on L2(0, 1): the
    entries ``2 int_0^1 w(t) sin(j pi t) sin(k pi t) dt``, ``j, k = 1..dim``,
    which are ``c(j - k) - c(j + k)`` with ``c`` the cosine moments of ``w``.

    Multiplication by ``1 + t`` is bounded below, with spectrum [1, 2];
    multiplication by ``chi[0, 1/2]`` is an orthogonal projection whose range
    and null space are both infinite-dimensional, so it is bounded with a
    closed range and not compact, and its compressions have singular values
    spread from rounding to 1 with no gap."""
    j = np.arange(1, dim + 1)
    entries = _cosine_moments(weight, j[:, None] - j) - _cosine_moments(
        weight, j[:, None] + j
    )
    return OperatorRep(entries, BASIS_SINE, BASIS_SINE)


def multiplication_model(weight: str, dim: int, sigma_v_scale: float = 1.0):
    """``multiplication_compression`` with ``sigma_u = I`` and
    ``sigma_v = 0.5 sigma_v_scale I``, so that the optimal smoother is 2 on
    the range where the operator is a projection."""
    ones = np.ones(dim)
    return GaussianModel.build(
        multiplication_compression(weight, dim),
        diagonal_operator(ones, BASIS_SINE),
        diagonal_operator(0.5 * sigma_v_scale * ones, BASIS_SINE),
    )


def scaled_smoother_reference(model, n: int) -> np.ndarray | None:
    """The smoother of the covariances rescaled at index ``n >= 1`` by the
    frame formula ``U_r S^-1 (w C_u w) S (w C_v w)^-1 U_r*`` in numpy:
    ``w = S^(-2n)``, ``C_u = V_r* sigma_u V_r`` and ``C_v = U_r* sigma_v U_r``
    on the leading ``r`` (``numerical_rank``) singular triplets of ``A``.
    ``None`` where the package refuses it: where ``eigvalsh`` of
    ``w C_v w`` keeps fewer than ``r`` eigenvalues above ``EIG_RTOL`` times
    the largest, or, where ``A`` and ``sigma_v`` are diagonal and the core
    is inverted componentwise, where an eigenvalue is not above the least normal float."""
    u, s, vt = np.linalg.svd(model.a.as_matrix())
    r = model.pinv_bundle.numerical_rank
    u, s, v = u[:, :r], s[:r], vt[:r].T
    w = s ** (-2.0 * n)
    cu = w[:, None] * (v.T @ model.sigma_u.as_matrix() @ v) * w
    cv = w[:, None] * (u.T @ model.sigma_v.as_matrix() @ u) * w
    vals = np.linalg.eigvalsh(cv)
    if model.a.is_diagonal and model.sigma_v.is_diagonal:
        refused = vals.min(initial=np.inf) <= np.finfo(float).tiny
    else:
        refused = np.count_nonzero(vals > EIG_RTOL * vals.max(initial=0.0)) < r
    if refused:
        return None
    core = (cu / s[:, None] * s) @ np.linalg.inv(cv)
    return u @ core @ u.T


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


def _retained(n, bundle, x) -> tuple[np.ndarray, np.ndarray]:
    """Spectral coordinates of x on the components ``pinv`` keeps, and their
    scale weights kappa_j**n, kappa_j the squared singular values.  The
    coordinates are the coefficients of a diagonal operator, or the
    coefficients rotated by the right singular vectors of a dense one."""
    coeffs = x.coeffs if bundle.svd is None else bundle.svd[2] @ x.coeffs
    return coeffs[bundle.retained], (bundle.singular_values**2) ** float(n)


def dual_norm(n, bundle, x) -> float:
    """Norm with reciprocal scale weights; mass off the retained components
    (the null space of the operator) contributes zero."""
    coords, weights = _retained(n, bundle, x)
    return float(np.linalg.norm(coords / weights))


def scale_norm(n, bundle, x) -> float:
    """Norm with direct scale weights, over the retained components."""
    coords, weights = _retained(n, bundle, x)
    return float(np.linalg.norm(coords * weights))


def two_requirement_threshold(decay) -> int | None:
    """The least trace-class index as one requirement per covariance, the
    larger of the two taken: the reference for ``trace_class_threshold``."""
    p = float(decay.kappa_decay)

    def needed(q: float) -> int | None:
        if q > 1.0:
            return 0
        if p <= 0.0:
            return None
        quotient = (1.0 - q) / (2.0 * p)
        if not quotient < MAX_SCALE_N:
            return None
        return math.floor(quotient) + 1

    need_u = needed(float(decay.sigma_u_decay))
    need_v = needed(float(decay.sigma_v_decay))
    if need_u is None or need_v is None:
        return None
    return max(need_u, need_v)


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
    return rows * op.stored if op.is_diagonal else rows @ op.stored.T


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

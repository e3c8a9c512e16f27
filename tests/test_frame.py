"""The singular frame against numpy references.

``optimal_b`` and ``solve_filter`` are written in the singular coordinates of
``A``.  Here they are checked against the formulas they replace, computed
with plain numpy on the full matrices: ``pinv(A)* sigma_u A* sigma_v^+`` with
``sigma_v`` inverted on the range of ``A``, and ``solve(I + A* B A, x)``.
The models are dense, rank-deficient dense, rectangular (tall and wide),
mixed-storage (diagonal ``A`` with a dense covariance) and kernel-built, at
dims 2 to 12, and a failing positivity verdict against numpy's least
eigenvalue of ``A* B A``.
The conditional mean, built in the same frame, is checked against
``Q_v (sigma_u + Q_v)^+`` on commuting and non-commuting models and on
models whose ``sigma_u`` is singular on the null space of ``A``.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ophp import (
    CoeffVector,
    FilterProblem,
    GaussianModel,
    conditional_mean,
    dense_operator,
    diagonal_operator,
    kernel_operator,
    optimal_b,
    solve_filter,
)
from ophp import operators
from ophp.gaussian import conditional_whitening
from ophp.operators import rounding_bound

from oracles import least_penalty_eigenvalue, qv, refused_minimum, scaled

KINDS = ["dense", "rank-deficient", "tall", "wide", "mixed", "kernel"]


def _orthogonal(rng, dim):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


def _kernel(dim):
    # Built outside the process's kernel memo, which keeps its recipe.
    kept = operators._LAST_KERNEL
    try:
        return kernel_operator("dirichlet_green", dim, 2 * dim + 8)
    finally:
        operators._LAST_KERNEL = kept


@st.composite
def frame_models(draw):
    """A model of one of ``KINDS``, its rank at least 1, an observation and a
    smoother that passes the positivity check: the optimal one where the
    covariances commute with ``A`` (they share its singular vectors), and a
    random positive semidefinite one otherwise."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(2, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "kernel":
        a = _kernel(n)
    elif kind == "mixed":
        mult = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0], n)
        mult[: draw(st.integers(0, n - 1))] = 0.0
        a = diagonal_operator(rng.permutation(mult))
    else:
        m = {"tall": n + draw(st.integers(1, 3)), "wide": draw(st.integers(1, n - 1))}
        m = m.get(kind, n)
        s = rng.uniform(0.5, 3.0, min(m, n))
        if kind == "rank-deficient":
            s[: draw(st.integers(1, n - 1))] = 0.0
        left, right = _orthogonal(rng, m)[:, : s.size], _orthogonal(rng, n)[:, : s.size]
        a = dense_operator((left * s) @ right.T)
    commuting = draw(st.booleans())
    sigma_u, sigma_v = (
        _covariance(rng, a, factor, commuting, draw(st.booleans()))
        for factor in (2, 0)
    )
    model = GaussianModel.build(a, sigma_u, sigma_v)
    x = CoeffVector(rng.standard_normal(n), a.domain_basis)
    b = optimal_b(model) if commuting else _covariance(rng, a, 0, False, True)
    return kind, model, x, b


def _covariance(rng, a, factor, commuting, dense):
    """A covariance on the domain (``factor`` 2) or the codomain (0) of ``a``
    with eigenvalues in [0.5, 2]: diagonal where ``a`` is and ``dense`` is
    not, with the singular vectors of ``a`` where ``commuting``, and random
    eigenvectors otherwise."""
    domain = factor == 2
    dim = a.dim_in if domain else a.dim_out
    basis = a.domain_basis if domain else a.codomain_basis
    values = rng.uniform(0.5, 2.0, dim)
    if a.is_diagonal and (commuting or not dense):
        return diagonal_operator(values, basis)
    if commuting:
        q = np.linalg.svd(a.as_matrix())[factor]
        q = q.T if domain else q
    else:
        q = _orthogonal(rng, dim)
    return dense_operator((q * values) @ q.T, basis)


def _range(amat, rank):
    u, _, vt = np.linalg.svd(amat)
    return u[:, :rank], vt[:rank].T


def _reference_smoother(model):
    """``pinv(A)* sigma_u A* sigma_v^+``, ``sigma_v`` inverted on the range."""
    amat = model.a.as_matrix()
    u, _ = _range(amat, model.pinv_bundle.numerical_rank)
    sv_plus = u @ np.linalg.inv(u.T @ model.sigma_v.as_matrix() @ u) @ u.T
    return np.linalg.pinv(amat).T @ model.sigma_u.as_matrix() @ amat.T @ sv_plus


def _trend_system(model, bmat):
    amat = model.a.as_matrix()
    return np.eye(model.dim) + amat.T @ bmat @ amat


def _trend_bound(system, x):
    """The rounding bound of a backward-stable solve of ``system y = x``."""
    return rounding_bound(np.linalg.norm(x), np.linalg.cond(system))


@given(frame_models())
def test_smoother_matches_its_numpy_reference(case):
    _, model, _, _ = case
    bhat = optimal_b(model).as_matrix()
    expected = _reference_smoother(model)
    # |B^| <= cond(A) |sigma_u| |sigma_v^+|; the frame and the reference
    # each round at that size.
    sigma_v_inv = np.linalg.norm(np.linalg.inv(model.sigma_v.as_matrix()), 2)
    scale = np.linalg.norm(model.sigma_u.as_matrix(), 2) * sigma_v_inv
    bound = rounding_bound(scale, model.pinv_bundle.cond)
    assert np.linalg.norm(bhat - expected) <= bound


def _trends(case, factor=1.0):
    _, model, x, b = case
    y = solve_filter(FilterProblem(model.a, x, scaled(b, factor))).coeffs
    system = _trend_system(model, b.as_matrix())
    return y, system, x.coeffs


@given(frame_models())
def test_trend_matches_the_solve_of_the_trend_system(case):
    y, system, x = _trends(case)
    assert np.linalg.norm(y - np.linalg.solve(system, x)) <= _trend_bound(system, x)


@given(frame_models())
def test_null_space_part_of_the_trend_is_the_observation(case):
    y, _, x = _trends(case)
    model = case[1]
    _, v = _range(model.a.as_matrix(), model.pinv_bundle.numerical_rank)
    residual = (y - x) - v @ (v.T @ (y - x))
    assert np.linalg.norm(residual) <= rounding_bound(np.linalg.norm(x))


@given(frame_models())
def test_a_scaled_smoother_moves_the_trend_beyond_the_bound(case):
    # Power: the trend comparison above notices a smoother off by 10%.
    y, system, x = _trends(case)
    moved = _trends(case, 1.1)[0]
    assert np.linalg.norm(moved - y) > _trend_bound(system, x)


@given(frame_models())
def test_a_failing_verdict_quotes_the_least_eigenvalue(case):
    # No smoother drawn has an eigenvalue above 4, so B - 5I is negative on
    # the range of A: solve_filter refuses it and quotes, to four digits,
    # the least eigenvalue of the symmetric part of A* B A.
    _, model, _, b = case
    shifted = dense_operator(b.as_matrix() - 5.0 * np.eye(model.codim), b.domain_basis)
    least = least_penalty_eigenvalue(model.a, shifted)
    refused = refused_minimum(model.a, shifted)
    assert refused is not None and least < 0.0
    scale = np.linalg.norm(model.a.as_matrix(), 2) ** 2 * np.linalg.norm(shifted.stored, 2)
    assert abs(refused - least) <= 5e-4 * abs(least) + rounding_bound(scale)


NOISE_CASES = ["commuting", "non-commuting", "singular-on-null"]


@st.composite
def conditioning_models(draw):
    """A model at dims 2 to 8 with singular values of ``A`` in [0.5, 3] and
    its rank at least 1, an observation, and the ranks the whitening must
    find.  ``sigma_u`` is ``V L L* V*`` in the frame ``V`` of ``A``: ``L``
    block-diagonal on the range and null coordinates where it commutes
    with the projector, full otherwise, and with rows of null coordinates
    zeroed where it is singular on the null space."""
    case = draw(st.sampled_from(NOISE_CASES))
    n = draw(st.integers(2, 8))
    rank = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = rng.uniform(0.5, 3.0, rank)
    if draw(st.booleans()):
        mult = np.zeros(n)
        mult[:rank] = s * rng.choice([-1.0, 1.0], rank)
        a = diagonal_operator(rng.permutation(mult))
    else:
        left, right = _orthogonal(rng, n)[:, :rank], _orthogonal(rng, n)[:, :rank]
        a = dense_operator((left * s) @ right.T)
    vt = np.linalg.svd(a.as_matrix())[2]
    factor = rng.uniform(-1.0, 1.0, (n, n)) + 2.0 * np.eye(n)
    if case != "non-commuting":
        factor[:rank, rank:] = factor[rank:, :rank] = 0.0
    zeroed = draw(st.integers(1, n - rank)) if case == "singular-on-null" and rank < n else 0
    factor[n - zeroed :] = 0.0
    sigma_u = vt.T @ factor @ factor.T @ vt
    sigma_v = _covariance(rng, a, 0, False, draw(st.booleans()))
    model = GaussianModel.build(a, dense_operator(0.5 * sigma_u + 0.5 * sigma_u.T), sigma_v)
    x = CoeffVector(rng.standard_normal(n), a.domain_basis)
    return model, x, (n - zeroed, rank)


@settings(max_examples=settings.default.max_examples * 2)
@given(conditioning_models())
def test_conditional_mean_matches_the_ambient_formula(case):
    model, x, ranks = case
    q = qv(model)
    total = model.sigma_u.as_matrix() + q
    vals = np.linalg.eigvalsh(total)
    kept = vals > 1e-10 * vals.max()
    expected = q @ np.linalg.pinv(total, rcond=1e-10, hermitian=True) @ x.coeffs
    mean = conditional_mean(model, x).coeffs
    cond = vals[kept].max() / vals[kept].min()
    assert np.linalg.norm(mean - expected) <= rounding_bound(1.0 + x.norm(), cond)
    _, rank_x, _, rank_r = conditional_whitening(model)
    assert (rank_x, rank_r) == ranks

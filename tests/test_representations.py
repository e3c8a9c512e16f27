"""One model in several storages: diagonal, dense, kernel-built and mixed
forms must give the same smoother, trend, conditional mean and scale
algebra."""

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
    rescaled_covariances,
    scale_weights,
    scaled_optimal_b,
    solve_filter,
)
from ophp.operators import BASIS_SINE

from oracles import dual_norm, scale_norm

RTOL = 1e-10
# A quarter of the loaded profile's budget: 25 examples in the default one.
SETTINGS = settings(max_examples=settings.default.max_examples // 4)


def _outputs(model: GaussianModel, x, n: int = 1) -> dict:
    xv = CoeffVector(x, model.a.domain_basis)
    bhat = optimal_b(model)
    su, sv = rescaled_covariances(model, n)
    bundle = model.pinv_bundle
    weights = scale_weights(n, bundle)
    return {
        "optimal_b": bhat.as_matrix(),
        "trend": solve_filter(FilterProblem(model.a, xv, bhat)).coeffs,
        "conditional_mean": conditional_mean(model, xv).coeffs,
        "sigma_u_rescaled": su.as_matrix(),
        "sigma_v_rescaled": sv.as_matrix(),
        "scaled_optimal_b": scaled_optimal_b(model, n).as_matrix(),
        "scale_norms": np.array(
            [dual_norm(weights, bundle, xv), scale_norm(weights, bundle, xv)]
        ),
    }


def _assert_same(model, reference, x):
    got, want = _outputs(model, x), _outputs(reference, x)
    for key, expected in want.items():
        scale = float(np.abs(expected).max(initial=0.0))
        np.testing.assert_allclose(
            got[key], expected, rtol=0.0, atol=RTOL * max(scale, 1e-300), err_msg=key
        )


@st.composite
def spectral_models(draw):
    """Multipliers (possibly with a null component), covariance diagonals
    and an observation vector of a common dimension 2..8."""
    dim = draw(st.integers(2, 8))

    def vec(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=dim, max_size=dim)))

    a = vec(0.5, 3.0)
    if draw(st.booleans()):
        a[0] = 0.0
    return a, vec(0.5, 2.0), vec(0.5, 2.0), vec(-2.0, 2.0)


@SETTINGS
@given(spectral_models())
def test_dense_matches_diagonal(case):
    a, su, sv, x = case
    diag = GaussianModel.build(
        diagonal_operator(a), diagonal_operator(su), diagonal_operator(sv)
    )
    dense = GaussianModel.build(
        dense_operator(diag.a.as_matrix()),
        dense_operator(diag.sigma_u.as_matrix()),
        dense_operator(diag.sigma_v.as_matrix()),
    )
    _assert_same(dense, diag, x)


@SETTINGS
@given(spectral_models())
def test_mixed_matches_diagonal(case):
    a, su, sv, x = case
    diag = GaussianModel.build(
        diagonal_operator(a), diagonal_operator(su), diagonal_operator(sv)
    )
    mixed = GaussianModel.build(diag.a, dense_operator(np.diag(su)), diag.sigma_v)
    _assert_same(mixed, diag, x)


@SETTINGS
@given(spectral_models())
def test_kernel_matches_its_dense_matrix(case):
    _, su, sv, x = case
    dim = su.shape[0]
    green = kernel_operator("dirichlet_green", dim, grid_points=64)
    sigmas = diagonal_operator(su, BASIS_SINE), diagonal_operator(sv, BASIS_SINE)
    kernel = GaussianModel.build(green, *sigmas)
    dense = GaussianModel.build(dense_operator(green.stored, BASIS_SINE), *sigmas)
    _assert_same(kernel, dense, x)

"""Built-in instances and their closed-form expectations."""

import numpy as np
import pytest

from ophp import apply, compose, kernel_operator, optimal_b
from ophp.filter import filter_multipliers
from ophp.instances import (
    expected_filter_multipliers,
    expected_bhat,
    laplacian_model,
    laplacian_multipliers,
    laplacian_operator,
    ramp_model,
    ramp_multipliers,
    seeded_sigmas,
)
from ophp.operators import BASIS_SINE, CoeffVector

from oracles import laplacian_filter_multipliers


def test_ramp_multipliers_annihilate_first_component():
    np.testing.assert_array_equal(ramp_multipliers(5), [0.0, 2.0, 3.0, 4.0, 5.0])


def test_laplacian_multipliers():
    np.testing.assert_allclose(
        laplacian_multipliers(3), [(np.pi) ** 2, (2 * np.pi) ** 2, (3 * np.pi) ** 2]
    )


def test_seeded_sigmas_are_positive_and_reproducible():
    su1, sv1 = seeded_sigmas(10, 42)
    su2, sv2 = seeded_sigmas(10, 42)
    np.testing.assert_array_equal(su1, su2)
    np.testing.assert_array_equal(sv1, sv2)
    assert su1.min() > 0 and sv1.min() > 0


def test_expected_ramp_bhat_matches_assembly():
    dim = 10
    su, sv = seeded_sigmas(dim, 1)
    model = ramp_model(dim, su, sv)
    np.testing.assert_allclose(
        optimal_b(model).multipliers,
        expected_bhat(ramp_multipliers(dim), su, sv),
        atol=1e-12,
    )


def test_expected_filter_multipliers_match_assembly():
    dim = 8
    su, sv = seeded_sigmas(dim, 2)
    model = ramp_model(dim, su, sv)
    bhat = optimal_b(model)
    np.testing.assert_allclose(
        filter_multipliers(model.a, bhat),
        expected_filter_multipliers(
            ramp_multipliers(dim), expected_bhat(ramp_multipliers(dim), su, sv)
        ),
        atol=1e-12,
    )


def test_expected_laplacian_multipliers_match_assembly():
    dim = 8
    su, sv = seeded_sigmas(dim, 3)
    model = laplacian_model(dim, su, sv)
    bhat = optimal_b(model)
    np.testing.assert_allclose(
        filter_multipliers(model.a, bhat),
        laplacian_filter_multipliers(su, sv, dim),
        atol=1e-12,
    )


def test_expected_bhat_is_the_ratio_on_every_laplacian_mode():
    dim = 8
    su, sv = seeded_sigmas(dim, 4)
    bhat = optimal_b(laplacian_model(dim, su, sv)).multipliers
    expected = expected_bhat(laplacian_multipliers(dim), su, sv)
    np.testing.assert_array_equal(expected, su / sv)
    np.testing.assert_allclose(bhat, expected, rtol=1e-12)


def test_single_mode_laplacian_value():
    # Scalar evaluation oracle for the lowest mode with unit variances.
    expected = laplacian_filter_multipliers(1.0, 1.0, 1)[0]
    assert expected == pytest.approx(1.0 / (1.0 + np.pi**4))


def test_green_operator_inverts_laplacian_spectrally():
    dim = 6
    green = kernel_operator("dirichlet_green", dim, grid_points=512)
    lam = laplacian_operator(dim)
    composed = compose(lam, green)  # promotes to dense; near identity
    np.testing.assert_allclose(composed.matrix, np.eye(dim), atol=2e-3)
    e_2 = np.zeros(dim)
    e_2[1] = 1.0
    out = apply(green, CoeffVector(e_2, BASIS_SINE))
    assert out.coeffs[1] == pytest.approx(1.0 / (2 * np.pi) ** 2, rel=1e-3)

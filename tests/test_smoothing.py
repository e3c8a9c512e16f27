"""Optimal smoother assembly and the gap functional."""

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    GaussianModel,
    SingularCovarianceError,
    dense_operator,
    diagonal_operator,
    optimal_b,
)
from ophp.operators import nonnegative_diagonal, rounding_bound

from oracles import (
    gap,
    identity,
    laplacian_model,
    multiplication_model,
    ramp_model,
    refused_minimum,
    scaled,
    zero,
)


class TestOptimalB:
    def test_ramp_noise_to_signal_components(self):
        dim = 6
        rng = np.random.default_rng(0)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        model = ramp_model(dim, su, sv)
        bhat = optimal_b(model)
        assert bhat.is_diagonal
        assert bhat.stored[0] == 0.0
        np.testing.assert_allclose(bhat.stored[1:], su[1:] / sv[1:], rtol=1e-13)

    def test_laplacian_componentwise(self):
        dim = 5
        rng = np.random.default_rng(1)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        model = laplacian_model(dim, su, sv)
        np.testing.assert_allclose(
            optimal_b(model).stored, su / sv, rtol=1e-13
        )

    def test_identity_instance(self):
        model = GaussianModel.build(
            identity(3), identity(3), identity(3)
        )
        np.testing.assert_allclose(optimal_b(model).stored, np.ones(3))

    def test_singular_sigma_v_names_components(self):
        model = ramp_model(4, 1.0, np.array([1.0, 1.0, 0.0, 1.0]))
        with pytest.raises(SingularCovarianceError, match=r"\[2\]"):
            optimal_b(model)
        # A zero off the range does not matter.
        model_ok = ramp_model(4, 1.0, np.array([0.0, 1.0, 1.0, 1.0]))
        bhat = optimal_b(model_ok)
        np.testing.assert_allclose(bhat.stored, [0.0, 1.0, 1.0, 1.0])

    @pytest.mark.parametrize("dim", [8, 64, 256])
    @pytest.mark.parametrize("build", [ramp_model, laplacian_model])
    def test_dense_assembly_matches_diagonal(self, build, dim):
        # One composition, associated from the left, for both storage kinds:
        # the dense twin differs from the diagonal model only by the
        # rounding of its factorizations.
        rng = np.random.default_rng(2)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        diag_model = build(dim, su, sv)
        basis = diag_model.a.domain_basis
        dense_model = GaussianModel.build(
            dense_operator(diag_model.a.as_matrix(), basis),
            dense_operator(np.diag(su), basis),
            dense_operator(np.diag(sv), basis),
        )
        diag_bhat = np.diag(optimal_b(diag_model).stored)
        dense_bhat = optimal_b(dense_model).as_matrix()
        bound = rounding_bound(np.abs(diag_bhat).max())
        assert np.abs(dense_bhat - diag_bhat).max() <= bound

    def test_zero_observation_noise_gives_zero_smoother(self):
        model = GaussianModel.build(
            diagonal_operator([1.0, 2.0, 3.0]), zero(3), identity(3)
        )
        bhat = optimal_b(model)
        np.testing.assert_array_equal(bhat.stored, np.zeros(3))
        assert gap(model, bhat, CoeffVector([0.3, -1.2, 2.0])) <= 1e-12

    def test_linear_in_sigma_u(self):
        dim = 4
        rng = np.random.default_rng(3)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        base = optimal_b(ramp_model(dim, su, sv)).stored
        scaled = optimal_b(ramp_model(dim, 2.5 * su, sv)).stored
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


@pytest.mark.parametrize("dim", [16, 32, 64, 128, 256])
def test_multiplication_by_one_plus_t_gives_twice_the_identity(dim):
    # Multiplication by 1 + t on L2(0, 1) is bounded below with spectrum
    # [1, 2], so its compressions have full rank and cond(A) < 2; with
    # sigma_u = I and sigma_v = 0.5 I the smoother is 2 I to rounding.
    model = multiplication_model("one-plus-t", dim)
    bhat = optimal_b(model).as_matrix()
    cond = np.linalg.cond(model.a.as_matrix())
    assert np.abs(bhat - 2.0 * np.eye(dim)).max() <= rounding_bound(2.0, cond)


class TestGap:
    def test_full_rank_identity_for_all_inputs(self):
        dim = 5
        rng = np.random.default_rng(4)
        model = laplacian_model(
            dim, rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)
        )
        bhat = optimal_b(model)
        for _ in range(100):
            x = CoeffVector(rng.standard_normal(dim), "sine-dirichlet")
            assert gap(model, bhat, x) <= 1e-9 * (1.0 + x.norm())

    def test_ramp_identity_on_model_support(self):
        # With no observation noise on the null-space component, on-model
        # data has no mass there and the filter reproduces the conditional
        # mean exactly; the two maps share each range multiplier.
        dim = 5
        rng = np.random.default_rng(5)
        su = rng.uniform(0.5, 2.0, dim)
        su[0] = 0.0
        model = ramp_model(dim, su, rng.uniform(0.5, 2.0, dim))
        bhat = optimal_b(model)
        for _ in range(50):
            coeffs = rng.standard_normal(dim)
            coeffs[0] = 0.0
            x = CoeffVector(coeffs)
            assert gap(model, bhat, x) <= 1e-10 * x.norm()

    def test_null_component_passes_through_filter(self):
        # The filter leaves null-space components of the data untouched while
        # the conditional mean suppresses them, so off-support inputs carry
        # an irreducible gap no smoother can remove.
        model = ramp_model(3, 1.0, 1.0)
        bhat = optimal_b(model)
        x = CoeffVector([1.0, 0.0, 0.0])
        assert gap(model, bhat, x) == pytest.approx(1.0)

    def test_doubled_smoother_opens_gap(self):
        # Component arithmetic oracle for the doubled smoother.
        dim = 3
        model = ramp_model(dim, np.array([0.0, 1.0, 0.5]), np.array([1.0, 2.0, 1.0]))
        bhat = optimal_b(model)
        doubled = scaled(bhat, 2.0)
        x = CoeffVector([0.0, 1.0, -2.0])
        j = np.arange(1, dim + 1, dtype=float)
        slope = 1.0 / (1.0 + j**2 * bhat.stored)
        slope[0] = 0.0
        trend = x.coeffs / (1.0 + j**2 * doubled.stored)
        expected = float(np.linalg.norm(slope * x.coeffs - trend))
        assert expected > 1e-3
        assert gap(model, doubled, x) == pytest.approx(expected, rel=1e-12)

    def test_gap_zero_at_y0(self):
        y0 = CoeffVector([1.5, 0.0, 0.0])
        model = ramp_model(3, 1.0, 1.0, y0=y0)
        for b in (optimal_b(model), zero(3), diagonal_operator([0.0, 3.0, 1.0])):
            assert gap(model, b, y0) <= 1e-12

    def test_filter_and_conditional_mean_agree_as_operators(self):
        from ophp.filter import FilterProblem, solve_filter
        from ophp.gaussian import conditional_mean

        dim = 6
        rng = np.random.default_rng(6)
        model = laplacian_model(
            dim, rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim)
        )
        bhat = optimal_b(model)
        worst = 0.0
        for j in range(dim):
            basis_vec = np.zeros(dim)
            basis_vec[j] = 1.0
            x = CoeffVector(basis_vec, "sine-dirichlet")
            col_filter = solve_filter(FilterProblem(model.a, x, bhat)).coeffs
            col_mean = conditional_mean(model, x).coeffs
            worst = max(worst, float(np.abs(col_filter - col_mean).max()))
        assert worst <= 1e-10


def test_inactive_component_allows_negative_entries():
    # A negative multiplier on a component the operator annihilates is not
    # certified by inspection, and still passes the spectral verdict.
    model = ramp_model(3, 1.0, 1.0)
    candidate = diagonal_operator([-5.0, 1.0, 1.0])
    assert not nonnegative_diagonal(candidate)
    assert refused_minimum(model.a, candidate) is None

"""Optimal smoother assembly, gap functional, and the grid-search oracle."""

import itertools

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    GaussianModel,
    SingularCovarianceError,
    dense_operator,
    diagonal_operator,
    gap,
    grid_search_oracle,
    identity_operator,
    optimal_b,
    scalar_multiple,
    zero_operator,
)
from ophp.instances import laplacian_model, ramp_model
from ophp.operators import DimensionMismatchError
from ophp.smoothing import (
    DiagonalFamily,
    _average_gaps_diagonal,
    lattice_around,
    probe_vectors,
)


class TestOptimalB:
    def test_ramp_noise_to_signal_components(self):
        dim = 6
        rng = np.random.default_rng(0)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        model = ramp_model(dim, su, sv)
        bhat = optimal_b(model)
        assert bhat.kind == "diagonal"
        assert bhat.multipliers[0] == 0.0
        np.testing.assert_allclose(bhat.multipliers[1:], su[1:] / sv[1:], rtol=1e-13)

    def test_laplacian_componentwise(self):
        dim = 5
        rng = np.random.default_rng(1)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        model = laplacian_model(dim, su, sv)
        np.testing.assert_allclose(
            optimal_b(model).multipliers, su / sv, rtol=1e-13
        )

    def test_identity_instance(self):
        model = GaussianModel.build(
            identity_operator(3), identity_operator(3), identity_operator(3)
        )
        np.testing.assert_allclose(optimal_b(model).multipliers, np.ones(3))

    def test_singular_sigma_v_names_components(self):
        model = ramp_model(4, 1.0, np.array([1.0, 1.0, 0.0, 1.0]))
        with pytest.raises(SingularCovarianceError, match=r"\[2\]"):
            optimal_b(model)
        # A zero off the range does not matter.
        model_ok = ramp_model(4, 1.0, np.array([0.0, 1.0, 1.0, 1.0]))
        bhat = optimal_b(model_ok)
        np.testing.assert_allclose(bhat.multipliers, [0.0, 1.0, 1.0, 1.0])

    def test_dense_assembly_matches_diagonal(self):
        dim = 5
        rng = np.random.default_rng(2)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        diag_model = ramp_model(dim, su, sv)
        from ophp.operators import dense_operator

        dense_model = GaussianModel.build(
            dense_operator(diag_model.a.as_matrix()),
            dense_operator(np.diag(su)),
            dense_operator(np.diag(sv)),
        )
        dense_bhat = optimal_b(dense_model).as_matrix()
        np.testing.assert_allclose(
            dense_bhat, np.diag(optimal_b(diag_model).multipliers), atol=1e-12
        )

    def test_linear_in_sigma_u(self):
        dim = 4
        rng = np.random.default_rng(3)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        base = optimal_b(ramp_model(dim, su, sv)).multipliers
        scaled = optimal_b(ramp_model(dim, 2.5 * su, sv)).multipliers
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)


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

    @pytest.mark.filterwarnings("ignore::ophp.RankDeficiencyWarning")
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

    @pytest.mark.filterwarnings("ignore::ophp.RankDeficiencyWarning")
    def test_doubled_smoother_opens_gap(self):
        # Component arithmetic oracle for the doubled smoother.
        dim = 3
        model = ramp_model(dim, np.array([0.0, 1.0, 0.5]), np.array([1.0, 2.0, 1.0]))
        bhat = optimal_b(model)
        doubled = scalar_multiple(bhat, 2.0)
        x = CoeffVector([0.0, 1.0, -2.0])
        j = np.arange(1, dim + 1, dtype=float)
        slope = 1.0 / (1.0 + j**2 * bhat.multipliers)
        slope[0] = 0.0
        trend = x.coeffs / (1.0 + j**2 * doubled.multipliers)
        expected = float(np.linalg.norm(slope * x.coeffs - trend))
        assert expected > 1e-3
        assert gap(model, doubled, x) == pytest.approx(expected, rel=1e-12)

    def test_gap_zero_at_y0(self):
        y0 = CoeffVector([1.5, 0.0, 0.0])
        model = ramp_model(3, 1.0, 1.0, y0=y0)
        for b in (optimal_b(model), zero_operator(3), diagonal_operator([0.0, 3.0, 1.0])):
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


class TestGridSearchOracle:
    def test_lattice_contains_bhat_and_finds_it(self):
        model = ramp_model(3, np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 0.5]))
        family = DiagonalFamily(
            base=optimal_b(model).multipliers.copy(),
            indices=(0, 1, 2),
            basis_id=model.a.codomain_basis,
        )
        report = grid_search_oracle(model, family=family, points=21, seed=5)
        assert report.points_evaluated == 21**3
        assert report.matches_bhat
        np.testing.assert_allclose(report.argmin_params, report.bhat_params, atol=1e-12)

    def test_excluding_grid_returns_nearest_point(self):
        model = ramp_model(3, np.array([0.5, 1.0, 1.5]), np.array([1.0, 2.0, 0.5]))
        bhat = optimal_b(model)
        family = DiagonalFamily(
            base=bhat.multipliers.copy(), indices=(1, 2), basis_id=model.a.codomain_basis
        )
        grid = lattice_around(bhat.multipliers[[1, 2]], points=21)
        shifted = [g + (g[1] - g[0]) / 2.0 for g in grid]
        report = grid_search_oracle(model, family=family, grid=shifted, seed=5)
        steps = np.array(report.lattice_step)
        assert np.all(
            np.abs(report.argmin_params - report.bhat_params) <= steps / 2.0 + 1e-12
        )

    def test_zero_observation_noise_prefers_zero_smoother(self):
        model = GaussianModel.build(
            diagonal_operator([1.0, 2.0, 3.0]),
            zero_operator(3),
            identity_operator(3),
        )
        bhat = optimal_b(model)
        np.testing.assert_array_equal(bhat.multipliers, np.zeros(3))
        report = grid_search_oracle(model, points=11, seed=6)
        assert report.gap_at_bhat <= 1e-12
        assert report.gap_at_argmin <= report.gap_at_bhat + 1e-12
        np.testing.assert_allclose(report.argmin_params, np.zeros(3), atol=1e-12)

    def test_report_json_schema(self):
        model = ramp_model(3, 1.0, 1.0)
        report = grid_search_oracle(model, points=5, seed=7)
        doc = report.to_json()
        for key in ("argmin_params", "gap_at_argmin", "gap_at_bhat", "lattice_step"):
            assert key in doc

    def test_average_gap_uses_fixed_probe_count(self):
        probes = probe_vectors(3, "abstract-euclidean", count=32, seed=9)
        assert len(probes) == 32
        again = probe_vectors(3, "abstract-euclidean", count=32, seed=9)
        for a, b in zip(probes, again):
            np.testing.assert_array_equal(a.coeffs, b.coeffs)

    def test_family_build_sets_params(self):
        model = ramp_model(3, 1.0, 1.0)
        params = np.array([0.5, 1.5])
        family = DiagonalFamily(
            base=optimal_b(model).multipliers.copy(),
            indices=(1, 2),
            basis_id=model.a.codomain_basis,
        )
        b = family.build(params)
        np.testing.assert_array_equal(b.multipliers[1:], params)
        from ophp.filter import positivity_check

        assert positivity_check(model.a, b).passed

    def test_inactive_component_allows_negative_entries(self):
        # A negative multiplier on a component the operator annihilates still
        # passes the spectral positivity check.
        from ophp.filter import positivity_check

        model = ramp_model(3, 1.0, 1.0)
        candidate = diagonal_operator([-5.0, 1.0, 1.0])
        report = positivity_check(model.a, candidate)
        assert report.passed and report.method != "analytic"

    @pytest.mark.parametrize("indices", [(1, 1), (0, 3), (-1,)])
    def test_family_rejects_repeated_or_out_of_range_indices(self, indices):
        with pytest.raises(DimensionMismatchError):
            DiagonalFamily(np.ones(3), indices, "abstract-euclidean")

    def test_diagonal_search_matches_per_probe_gaps(self):
        # The separable diagonal sum must equal the mean of gap() over the
        # probes at every lattice point, with y0 in the null space and free
        # entries on the null component and the last component.
        dim = 6
        y0 = CoeffVector([1.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        model = ramp_model(dim, np.linspace(0.5, 2.0, dim), 0.8, y0=y0)
        assert model.is_diagonal and model.a.multipliers[0] == 0.0
        indices = (0, 2, dim - 1)
        family = DiagonalFamily(
            base=optimal_b(model).multipliers.copy(),
            indices=indices,
            basis_id=model.a.codomain_basis,
        )
        grid = lattice_around(family.base[list(indices)], points=3)
        probes = probe_vectors(dim, model.a.domain_basis, count=8, seed=4)
        rows = np.array(list(itertools.product(*grid)))
        expected = [
            np.mean([gap(model, family.build(row), x) for x in probes])
            for row in rows
        ]
        got = _average_gaps_diagonal(model, family, rows, probes)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        report = grid_search_oracle(model, family=family, grid=grid, x_set=probes)
        best = int(np.argmin(expected))
        np.testing.assert_array_equal(report.argmin_params, rows[best])
        assert report.gap_at_argmin == pytest.approx(expected[best], rel=1e-12)
        bhat_gap = np.mean(
            [gap(model, family.build(report.bhat_params), x) for x in probes]
        )
        assert report.gap_at_bhat == pytest.approx(bhat_gap, rel=1e-12)
        assert report.points_evaluated == len(rows)

    @pytest.mark.parametrize("dense_a", [False, True], ids=["diagonal-a", "dense-a"])
    def test_generic_search_matches_per_probe_gaps(self, dense_a):
        # Non-diagonal models take the batched path; each lattice average
        # must equal the mean of gap() over the probes, point by point.
        dim = 6
        rng = np.random.default_rng(11)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        a_mat = np.diag(np.arange(1.0, dim + 1.0))
        if dense_a:
            a_mat = a_mat + 0.05 * rng.standard_normal((dim, dim))
        model = GaussianModel.build(
            dense_operator(a_mat) if dense_a else diagonal_operator(np.diag(a_mat)),
            dense_operator(q @ np.diag(rng.uniform(0.5, 2.0, dim)) @ q.T),
            diagonal_operator(rng.uniform(0.5, 2.0, dim)),
        )
        family = DiagonalFamily(
            base=np.abs(np.diag(optimal_b(model).as_matrix())),
            indices=(0, 2),
            basis_id=model.a.codomain_basis,
        )
        grid = lattice_around(family.base[[0, 2]], points=3)
        probes = probe_vectors(dim, model.a.domain_basis, count=8, seed=4)
        report = grid_search_oracle(model, family=family, grid=grid, x_set=probes)
        rows = [(p0, p1) for p0 in grid[0] for p1 in grid[1]]
        expected = [
            np.mean([gap(model, family.build(row), x) for x in probes])
            for row in rows
        ]
        best = int(np.argmin(expected))
        np.testing.assert_array_equal(report.argmin_params, rows[best])
        assert report.gap_at_argmin == pytest.approx(expected[best], abs=1e-12)
        bhat_gap = np.mean(
            [gap(model, family.build(report.bhat_params), x) for x in probes]
        )
        assert report.gap_at_bhat == pytest.approx(bhat_gap, abs=1e-12)
        assert report.points_evaluated == len(rows)

"""Penalized objective, positivity certification, and the trend solver."""

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    FilterProblem,
    FilterSolveError,
    GaussianModel,
    PositivityError,
    dense_operator,
    diagonal_operator,
    solve_filter,
)
from ophp.instances import laplacian_multipliers
from ophp.smoothing import optimal_b

from oracles import (
    identity,
    laplacian_model,
    least_penalty_eigenvalue,
    objective,
    objective_gradient,
    ramp_model,
    ramp_operator,
    refused_minimum,
    scaled,
    zero,
)


def _random_orthogonal(dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return q


class TestObjective:
    def test_residual_term_vanishes_at_x(self):
        rng = np.random.default_rng(1)
        a = dense_operator(rng.standard_normal((4, 4)))
        b = dense_operator(rng.standard_normal((4, 4)))
        x = CoeffVector(rng.standard_normal(4))
        ax = a.stored @ x.coeffs
        expected = float(ax @ (b.stored @ ax))
        assert objective(FilterProblem(a, x, b), x) == pytest.approx(expected)

    def test_zero_smoother_gives_squared_distance(self):
        rng = np.random.default_rng(2)
        a = dense_operator(rng.standard_normal((3, 3)))
        x = CoeffVector(rng.standard_normal(3))
        y = CoeffVector(rng.standard_normal(3))
        problem = FilterProblem(a, x, zero(3))
        assert objective(problem, y) == pytest.approx((x - y).norm() ** 2)

    def test_ramp_componentwise_oracle(self):
        # Component-wise scalar oracle: sum of (x_j - y_j)^2 + j^2 b_j y_j^2.
        model = ramp_model(4, np.ones(4), np.ones(4))
        bhat = optimal_b(model)
        x = CoeffVector(np.ones(4))
        problem = FilterProblem(model.a, x, bhat)
        y = solve_filter(problem)
        j = np.arange(1, 5, dtype=float)
        oracle = float(
            ((x.coeffs - y.coeffs) ** 2).sum()
            + (j**2 * bhat.stored * y.coeffs**2).sum()
        )
        assert objective(problem, y) == pytest.approx(oracle, rel=1e-12)


class TestPositivityCheck:
    # solve_filter certifies the penalty before it solves; a refusal quotes
    # the least eigenvalue of the symmetric part of A* B A.
    def test_nonnegative_diagonal_passes_analytically(self):
        assert refused_minimum(ramp_operator(3), diagonal_operator([0.0, 1.0, 4.0])) is None

    def test_negative_identity_fails(self):
        a, b = identity(4), scaled(identity(4), -1.0)
        assert refused_minimum(a, b) == least_penalty_eigenvalue(a, b) == -1.0

    def test_constructed_indefinite_dense_smoother(self):
        # Eigen-decomposition oracle: with a = identity the symmetric part of
        # the penalty form is b itself, so the minimum is its least eigenvalue.
        rng = np.random.default_rng(5)
        q = _random_orthogonal(4, rng)
        b = dense_operator(q @ np.diag([-0.1, 0.3, 0.5, 1.0]) @ q.T)
        assert refused_minimum(identity(4), b) == pytest.approx(-0.1, rel=1e-3)
        assert least_penalty_eigenvalue(identity(4), b) == pytest.approx(-0.1, abs=1e-9)

    def test_floor_is_the_rounding_bound_of_the_spectrum(self):
        # A* B A = q diag(a^2 b) q^T on a rotated ramp: the optimal smoother's
        # null eigenvalue passes, one pushed to -1e-12 (1 + max|eigenvalue|),
        # about 70 times the bound, fails.
        dim = 64
        q = _random_orthogonal(dim, np.random.default_rng(6))
        a_mult = np.arange(dim, dtype=float)
        a = dense_operator((q * a_mult) @ q.T)
        b = np.full(dim, 2.0)
        assert refused_minimum(a, dense_operator((q * b) @ q.T)) is None
        b[1] = -1e-12 * (1.0 + 2.0 * a_mult.max() ** 2)
        refused = refused_minimum(a, dense_operator((q * b) @ q.T))
        assert refused == pytest.approx(b[1] * a_mult[1] ** 2, rel=1e-2)


class TestSolveFilter:
    def test_zero_smoother_returns_input(self):
        rng = np.random.default_rng(3)
        a = dense_operator(rng.standard_normal((5, 5)))
        x = CoeffVector(rng.standard_normal(5))
        y = solve_filter(FilterProblem(a, x, zero(5)))
        np.testing.assert_allclose(y.coeffs, x.coeffs, atol=1e-12)

    def test_ramp_closed_form(self):
        dim = 8
        rng = np.random.default_rng(4)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        model = ramp_model(dim, su, sv)
        bhat = optimal_b(model)
        x = CoeffVector(rng.standard_normal(dim))
        y = solve_filter(FilterProblem(model.a, x, bhat))
        assert y.coeffs[0] == pytest.approx(x.coeffs[0])
        j = np.arange(2, dim + 1, dtype=float)
        expected = x.coeffs[1:] / (j**2 * (su[1:] / sv[1:]) + 1.0)
        np.testing.assert_allclose(y.coeffs[1:], expected, atol=1e-12)

    def test_laplacian_spectral_multipliers(self):
        dim = 6
        rng = np.random.default_rng(6)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        model = laplacian_model(dim, su, sv)
        bhat = optimal_b(model)
        x = CoeffVector(rng.standard_normal(dim), "sine-dirichlet")
        y = solve_filter(FilterProblem(model.a, x, bhat))
        n = np.arange(1, dim + 1, dtype=float)
        expected = x.coeffs / (1.0 + n**4 * np.pi**4 * su / sv)
        np.testing.assert_allclose(y.coeffs, expected, atol=1e-12)

    def test_dense_solution_beats_random_perturbations(self):
        rng = np.random.default_rng(9)
        a = dense_operator(rng.standard_normal((4, 4)))
        b = scaled(identity(4), 0.7)
        x = CoeffVector(rng.standard_normal(4))
        problem = FilterProblem(a, x, b)
        y = solve_filter(problem)
        best = objective(problem, y)
        for _ in range(1000):
            delta = rng.standard_normal(4)
            delta /= np.linalg.norm(delta)
            perturbed = CoeffVector(y.coeffs + 1e-3 * delta)
            assert objective(problem, perturbed) >= best

    def test_positivity_gate(self):
        a = identity(3)
        x = CoeffVector(np.ones(3))
        bad = scaled(identity(3), -2.0)
        with pytest.raises(PositivityError):
            solve_filter(FilterProblem(a, x, bad))

    def test_residual_small(self):
        rng = np.random.default_rng(10)
        a = dense_operator(rng.standard_normal((6, 6)))
        b = dense_operator(np.diag(rng.uniform(0.1, 2.0, 6)))
        x = CoeffVector(rng.standard_normal(6))
        y = solve_filter(FilterProblem(a, x, b))
        system = np.eye(6) + a.stored.T @ b.stored @ a.stored
        assert np.linalg.norm(system @ y.coeffs - x.coeffs) <= 1e-10 * x.norm()


def _dense_laplacian_problem(dim):
    """``diag((pi j)^2)`` rotated by a seeded orthogonal matrix, with identity
    covariances, so that ``B = I`` and the trend is
    ``Q diag(1 / (1 + (pi j)^4)) Q^T x``; returns the problem and that trend."""
    rng = np.random.default_rng([301, 11])
    q = _random_orthogonal(dim, rng)
    lam = laplacian_multipliers(dim)
    a = dense_operator((q * lam) @ q.T)
    eye = dense_operator(np.eye(dim))
    bhat = optimal_b(GaussianModel.build(a, eye, eye))
    x = rng.standard_normal(dim)
    return FilterProblem(a, CoeffVector(x), bhat), q @ ((q.T @ x) / (1.0 + lam**2))


class TestTrendBackwardError:
    @pytest.mark.parametrize("dim", [64, 128, 256, 512])
    def test_dense_laplacian_is_accepted(self, dim):
        # |I + A* A| grows like dim^4, so the residual of a backward-stable
        # solve does too; relative to |M|_F |y| + |x| it reads 0.1 eps.
        problem, exact = _dense_laplacian_problem(dim)
        y = solve_filter(problem).coeffs
        lam = laplacian_multipliers(dim)
        cond = (1.0 + lam[-1] ** 2) / (1.0 + lam[0] ** 2)
        # The forward error is what cond(M) makes of that: at most
        # 0.11 eps cond(M) |y|.
        eps = np.finfo(float).eps
        assert np.linalg.norm(y - exact) <= eps * cond * np.linalg.norm(exact)

    @pytest.mark.parametrize("dim", [64, 512])
    def test_perturbed_trend_raises(self, dim, monkeypatch):
        # A trend moved by 1e-6 of its norm in a seeded direction reads at
        # least 1.8e8 eps as a backward error.  Scaling it by 1 + 1e-6
        # instead passes at dim 512: the scaled trend is the exact trend of
        # a system within rounding of M, since |M| |y| is far above |x|.
        problem, _ = _dense_laplacian_problem(dim)
        solve = np.linalg.solve
        direction = np.random.default_rng(7).standard_normal((dim, 1))
        direction /= np.linalg.norm(direction)

        def perturbed(m, rhs):
            y = solve(m, rhs)
            return y + 1e-6 * np.linalg.norm(y) * direction

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(FilterSolveError, match="exceeds its rounding bound"):
            solve_filter(problem)


class TestTrendSystemOverflow:
    # Dense A = 1e200 I with unit covariances: B^ = I, and A* B A = 1e400 I
    # is not finite.  The eigensolver of the positivity verdict raised
    # LinAlgError ("Eigenvalues did not converge").
    @staticmethod
    def _problem(b=None):
        a = dense_operator(1e200 * np.eye(3))
        if b is None:
            b = optimal_b(GaussianModel.build(a, identity(3), identity(3)))
            np.testing.assert_array_equal(b.stored, np.eye(3))
        return FilterProblem(a, CoeffVector([1.0, 2.0, 3.0]), b)

    # A diagonal B passes analytically, without A* B A, but the dense solve
    # needs it: its residual read NaN, which passed the backward-error check.
    @pytest.mark.parametrize("b", [None, identity(3)], ids=["optimal", "diagonal"])
    def test_solve_filter_raises(self, b):
        with pytest.raises(FilterSolveError, match="overflows the float range"):
            solve_filter(self._problem(b))


class TestFilterProperties:
    def test_local_minimality_on_random_instances(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            dim = int(rng.integers(2, 6))
            a = dense_operator(rng.standard_normal((dim, dim)))
            q = _random_orthogonal(dim, rng)
            b = dense_operator(q @ np.diag(rng.uniform(0.0, 2.0, dim)) @ q.T)
            x = CoeffVector(rng.standard_normal(dim))
            problem = FilterProblem(a, x, b)
            y = solve_filter(problem)
            best = objective(problem, y)
            for eps in (1e-2, 1e-3):
                for _ in range(50):
                    delta = rng.standard_normal(dim)
                    delta /= np.linalg.norm(delta)
                    moved = CoeffVector(y.coeffs + eps * delta)
                    assert objective(problem, moved) >= best - 1e-12 * (1 + abs(best))

    def test_gradient_vanishes_at_solution(self):
        rng = np.random.default_rng(14)
        dim = 5
        a = dense_operator(rng.standard_normal((dim, dim)))
        q = _random_orthogonal(dim, rng)
        b = dense_operator(q @ np.diag(rng.uniform(0.1, 1.5, dim)) @ q.T)
        x = CoeffVector(rng.standard_normal(dim))
        problem = FilterProblem(a, x, b)
        y = solve_filter(problem)
        grad = objective_gradient(problem, y)
        assert np.linalg.norm(grad) <= 1e-8 * x.norm()

    def test_gradient_matches_finite_differences(self):
        # Cross-validation of the analytic gradient at a generic point.
        rng = np.random.default_rng(15)
        dim = 5
        a = dense_operator(rng.standard_normal((dim, dim)))
        q = _random_orthogonal(dim, rng)
        b = dense_operator(q @ np.diag(rng.uniform(0.1, 1.5, dim)) @ q.T)
        x = CoeffVector(rng.standard_normal(dim))
        problem = FilterProblem(a, x, b)
        point = CoeffVector(rng.standard_normal(dim))
        grad = objective_gradient(problem, point)
        coords = rng.choice(dim, size=5, replace=True)
        for k in coords:
            h = 1e-6 * (1.0 + abs(point.coeffs[k]))
            up = point.coeffs.copy()
            down = point.coeffs.copy()
            up[k] += h
            down[k] -= h
            fd = (
                objective(problem, CoeffVector(up))
                - objective(problem, CoeffVector(down))
            ) / (2 * h)
            assert grad[k] == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_linearity_in_observations(self):
        rng = np.random.default_rng(16)
        dim = 6
        a = dense_operator(rng.standard_normal((dim, dim)))
        b = dense_operator(np.diag(rng.uniform(0.0, 2.0, dim)))
        x1 = CoeffVector(rng.standard_normal(dim))
        x2 = CoeffVector(rng.standard_normal(dim))
        alpha, beta = 0.7, -1.3
        combined = solve_filter(
            FilterProblem(a, CoeffVector(alpha * x1.coeffs + beta * x2.coeffs), b)
        )
        separate = (
            alpha * solve_filter(FilterProblem(a, x1, b)).coeffs
            + beta * solve_filter(FilterProblem(a, x2, b)).coeffs
        )
        np.testing.assert_allclose(combined.coeffs, separate, rtol=1e-10, atol=1e-10)

"""Operator representations, adjoints, compositions, generalized inverses."""

import warnings

import numpy as np
import pytest

from ophp import (
    BasisMismatchError,
    CoeffVector,
    DimensionMismatchError,
    adjoint,
    apply,
    compose,
    dense_operator,
    diagonal_operator,
    kernel_operator,
    pinv,
)
from ophp.operators import (
    BASIS_SINE,
    OperatorRep,
    dirichlet_green_kernel,
    euclidean_norm,
    moore_penrose_residuals,
    sine_basis_matrix,
    symmetric_eig,
    symmetrize,
)

from oracles import identity, operator_norm, zero


class TestCoeffVector:
    def test_parseval_norm(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = rng.standard_normal(rng.integers(1, 30))
            vec = CoeffVector(coeffs)
            assert vec.norm() ** 2 == pytest.approx(float((coeffs**2).sum()), rel=1e-14)

    def test_norm_is_numpys_wherever_that_is_finite(self):
        rng = np.random.default_rng(1)
        for scale in (1e-300, 1.0, 1e150):
            coeffs = scale * rng.standard_normal(17)
            assert euclidean_norm(coeffs) == float(np.linalg.norm(coeffs))

    def test_norm_whose_squares_overflow(self):
        # np.linalg.norm squares first: inf (with an overflow warning) for a
        # representable norm; the norm scaled by the largest entry is served.
        coeffs = np.array([1e200, -1e200, 3e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert CoeffVector(coeffs).norm() == pytest.approx(
                np.sqrt(11.0) * 1e200, rel=1e-15
            )
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            euclidean_norm(np.full(4, 1e308))

    def test_basis_mismatch_rejected(self):
        a = CoeffVector([1.0, 2.0], "abstract-euclidean")
        b = CoeffVector([1.0, 2.0], BASIS_SINE)
        with pytest.raises(BasisMismatchError):
            _ = a + b

    def test_dim_mismatch_rejected(self):
        a = CoeffVector([1.0, 2.0])
        b = CoeffVector([1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatchError):
            _ = a - b

    def test_arithmetic(self):
        a = CoeffVector([1.0, 2.0])
        b = CoeffVector([3.0, -1.0])
        np.testing.assert_allclose((a + b).coeffs, [4.0, 1.0])
        np.testing.assert_allclose((a - b).coeffs, [-2.0, 3.0])


class TestConstruction:
    """The stored array's rank is the operator's kind, so the constructors'
    shape checks are the only guard on it."""

    def test_diagonal_rejects_a_matrix(self):
        with pytest.raises(DimensionMismatchError, match="must be 1-d"):
            diagonal_operator(np.ones((2, 2)))

    def test_dense_rejects_a_sequence(self):
        with pytest.raises(DimensionMismatchError, match="must be 2-d"):
            dense_operator([1.0, 2.0])

    @pytest.mark.parametrize(
        "stored", [np.ones((2, 2, 2)), np.ones(0), np.ones((0, 3))]
    )
    def test_representation_needs_a_nonempty_1d_or_2d_array(self, stored):
        with pytest.raises(DimensionMismatchError):
            dense_operator(stored)
        with pytest.raises(DimensionMismatchError):
            OperatorRep(stored, "abstract-euclidean", "abstract-euclidean")

    def test_stored_array_is_a_read_only_copy(self):
        values = np.array([1.0, 2.0])
        op = diagonal_operator(values)
        values[0] = 5.0
        assert op.is_diagonal and op.stored[0] == 1.0
        assert not op.stored.flags.writeable


class TestApply:
    def test_diagonal_ramp(self):
        op = diagonal_operator([0.0, 2.0, 3.0])
        out = apply(op, CoeffVector([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.coeffs, [0.0, 2.0, 3.0])

    def test_dense_identity(self):
        op = dense_operator(np.eye(4))
        x = CoeffVector([1.0, -2.0, 0.5, 3.0])
        np.testing.assert_array_equal(apply(op, x).coeffs, x.coeffs)

    def test_rejects_mismatches(self):
        op = diagonal_operator([1.0, 2.0])
        with pytest.raises(DimensionMismatchError):
            apply(op, CoeffVector([1.0, 2.0, 3.0]))
        with pytest.raises(BasisMismatchError):
            apply(op, CoeffVector([1.0, 2.0], BASIS_SINE))

    def test_green_kernel_eigenrelation(self):
        # The Green operator inverts the Dirichlet second derivative, so the
        # n-th sine mode maps to itself divided by (n pi)^2; the composite
        # trapezoid error on the projected coefficient scales like
        # h^2 * (n pi)^2 / 12.
        points = 512
        op = kernel_operator("dirichlet_green", dim=8, grid_points=points)
        h = 1.0 / (points - 1)
        for n in (1, 2, 4, 8):
            e_n = np.zeros(8)
            e_n[n - 1] = 1.0
            out = apply(op, CoeffVector(e_n, BASIS_SINE))
            lam = (n * np.pi) ** 2
            rel_err = abs(out.coeffs[n - 1] * lam - 1.0)
            assert rel_err <= 3.0 * h**2 * lam / 12.0 + 1e-12
            leakage = np.abs(np.delete(out.coeffs, n - 1)).max()
            assert leakage <= 1e-10

    def test_green_kernel_against_fine_quadrature_oracle(self):
        # Independent oracle: evaluate the integral transform of a sine mode
        # at a few points by fine Simpson quadrature split at the kernel kink.
        simpson = pytest.importorskip("scipy.integrate").simpson
        n = 3
        dim = 8
        op = kernel_operator("dirichlet_green", dim=dim, grid_points=512)
        e_n = np.zeros(dim)
        e_n[n - 1] = 1.0
        out = apply(op, CoeffVector(e_n, BASIS_SINE))
        eval_points = np.array([0.2, 0.35, 0.5, 0.77])
        values = sine_basis_matrix(eval_points, dim) @ out.coeffs
        for t0, got in zip(eval_points, values):
            left = np.linspace(0.0, t0, 4097)
            right = np.linspace(t0, 1.0, 4097)
            integrand = lambda s: dirichlet_green_kernel(t0, s) * np.sqrt(2.0) * np.sin(
                n * np.pi * s
            )
            oracle = simpson(integrand(left), x=left) + simpson(
                integrand(right), x=right
            )
            assert got == pytest.approx(oracle, abs=1e-4 * abs(oracle) + 1e-8)

    def test_kernel_requires_enough_grid_points(self, cold_kernel_memo):
        # The rule of every sine projection: p samples resolve p - 2 modes.
        with pytest.raises(DimensionMismatchError, match="^64 samples cannot resolve 100"):
            kernel_operator("dirichlet_green", dim=100, grid_points=64)
        with pytest.raises(DimensionMismatchError, match="^9 samples cannot resolve 8"):
            kernel_operator("dirichlet_green", dim=8, grid_points=9)
        assert kernel_operator("dirichlet_green", dim=8, grid_points=10).dim_in == 8


class TestAdjoint:
    def test_dense_transpose(self):
        op = dense_operator([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(adjoint(op).stored, [[1.0, 3.0], [2.0, 4.0]])

    def test_diagonal_self_adjoint(self):
        op = diagonal_operator([0.0, 2.0, 3.0])
        assert adjoint(op) is op

    def test_inner_product_identity(self):
        rng = np.random.default_rng(7)
        mat = rng.standard_normal((5, 3))
        op = dense_operator(mat)
        star = adjoint(op)
        for _ in range(100):
            x = CoeffVector(rng.standard_normal(3))
            y = CoeffVector(rng.standard_normal(5))
            lhs = float(apply(op, x).coeffs @ y.coeffs)
            rhs = float(x.coeffs @ apply(star, y).coeffs)
            assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(lhs)))

    def test_double_adjoint(self):
        rng = np.random.default_rng(8)
        op = dense_operator(rng.standard_normal((4, 6)))
        back = adjoint(adjoint(op))
        assert np.linalg.norm(back.stored - op.stored) <= 1e-12
        diag = diagonal_operator([1.0, -2.0])
        assert adjoint(adjoint(diag)) is diag

    def test_symmetric_kernel_self_adjoint(self):
        op = kernel_operator("dirichlet_green", dim=4, grid_points=64)
        assert adjoint(op) is op
        assert np.array_equal(op.stored, op.stored.T)


class TestPinv:
    def test_diagonal_ramp(self):
        n = 6
        mult = np.arange(1, n + 1, dtype=float)
        mult[0] = 0.0
        bundle = pinv(diagonal_operator(mult))
        expected = np.concatenate(([0.0], 1.0 / np.arange(2, n + 1)))
        np.testing.assert_allclose(bundle.pinv.stored, expected, atol=1e-15)
        assert bundle.numerical_rank == n - 1
        np.testing.assert_array_equal(
            bundle.projector_pi.stored, [0.0] + [1.0] * (n - 1)
        )
        np.testing.assert_array_equal(
            bundle.projector_complement.stored, [1.0] + [0.0] * (n - 1)
        )

    def test_identity(self):
        bundle = pinv(identity(5))
        np.testing.assert_array_equal(bundle.pinv.stored, np.ones(5))
        np.testing.assert_array_equal(bundle.projector_pi.stored, np.ones(5))
        assert bundle.numerical_rank == 5

    def test_exact_rank_two_matrix(self):
        rng = np.random.default_rng(11)
        mat = rng.standard_normal((6, 2)) @ rng.standard_normal((2, 4))
        op = dense_operator(mat)
        bundle = pinv(op)
        assert bundle.numerical_rank == 2
        tau = 1e-10 * (1.0 + operator_norm(op))
        for value in moore_penrose_residuals(op, bundle).values():
            assert value < tau

    def test_all_zero_operator(self):
        bundle = pinv(zero(4))
        assert bundle.numerical_rank == 0
        np.testing.assert_array_equal(bundle.pinv.stored, np.zeros(4))
        np.testing.assert_array_equal(bundle.projector_pi.stored, np.zeros(4))
        dense_bundle = pinv(dense_operator(np.zeros((3, 5))))
        assert dense_bundle.numerical_rank == 0

    @staticmethod
    def _projector_operators():
        rng = np.random.default_rng(12)
        ramp = np.arange(6, dtype=float)
        return {
            "diagonal": diagonal_operator(ramp, BASIS_SINE),
            "diagonal-rank-0": zero(4),
            "dense-full-rank": dense_operator(rng.standard_normal((5, 5))),
            "rank-deficient": dense_operator(
                rng.standard_normal((8, 5)) @ rng.standard_normal((5, 8))
            ),
            "rectangular": dense_operator(
                rng.standard_normal((4, 3)) @ rng.standard_normal((3, 6)),
                BASIS_SINE,
                "abstract-euclidean",
            ),
            "dense-rank-0": dense_operator(np.zeros((3, 5))),
        }

    @pytest.mark.parametrize(
        "name",
        ["diagonal", "diagonal-rank-0", "dense-full-rank", "rank-deficient",
         "rectangular", "dense-rank-0"],
    )
    def test_lazy_projectors_match_eager_formulas_bitwise(self, name):
        a = self._projector_operators()[name]
        bundle = pinv(a)
        # The formulas pinv evaluated for every bundle before the two
        # projectors were formed on first use.
        if a.is_diagonal:
            pi = bundle.projector_pi.stored
            complement, range_proj = 1.0 - pi, pi
        else:
            rank = bundle.numerical_rank
            u, _, _ = np.linalg.svd(a.stored, full_matrices=True)
            complement = np.eye(a.dim_in) - bundle.projector_pi.stored
            if rank:
                range_proj = u[:, :rank] @ u[:, :rank].T
            else:
                range_proj = np.zeros((a.dim_out, a.dim_out))
        comp_op, range_op = bundle.projector_complement, bundle.range_projector
        assert comp_op.is_diagonal == range_op.is_diagonal == a.is_diagonal
        assert (comp_op.domain_basis, comp_op.codomain_basis) == (a.domain_basis,) * 2
        assert (range_op.domain_basis, range_op.codomain_basis) == (a.codomain_basis,) * 2
        np.testing.assert_array_equal(comp_op.stored, complement)
        np.testing.assert_array_equal(range_op.stored, range_proj)
        assert bundle.projector_complement is comp_op
        assert bundle.range_projector is range_op

    def test_dense_pinv_leaves_projectors_uncomputed(self):
        bundle = pinv(self._projector_operators()["rank-deficient"])
        assert "projector_complement" not in vars(bundle)
        assert "range_projector" not in vars(bundle)


class TestCompose:
    def test_diagonal_stays_diagonal(self):
        out = compose(diagonal_operator([1.0, 2.0]), diagonal_operator([3.0, 4.0]))
        assert out.is_diagonal
        np.testing.assert_array_equal(out.stored, [3.0, 8.0])

    def test_projector_absorbs_pinv(self):
        mult = np.array([0.0, 2.0, 3.0, 4.0])
        bundle = pinv(diagonal_operator(mult))
        out = compose(bundle.projector_pi, bundle.pinv)
        assert np.abs(out.stored - bundle.pinv.stored).max() <= 1e-12

    def test_dense_against_triple_loop(self):
        rng = np.random.default_rng(13)
        left = rng.standard_normal((3, 4))
        right = rng.standard_normal((4, 2))
        out = compose(dense_operator(left), dense_operator(right))
        oracle = np.zeros((3, 2))
        for i in range(3):
            for j in range(2):
                for k in range(4):
                    oracle[i, j] += left[i, k] * right[k, j]
        assert np.abs(out.stored - oracle).max() <= 1e-13

    def test_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            compose(dense_operator(np.ones((2, 3))), dense_operator(np.ones((2, 3))))
        with pytest.raises(BasisMismatchError):
            compose(
                diagonal_operator([1.0, 2.0], BASIS_SINE),
                diagonal_operator([1.0, 2.0]),
            )

    def test_apply_composition_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            s = dense_operator(rng.standard_normal((4, 5)))
            t = dense_operator(rng.standard_normal((5, 3)))
            x = CoeffVector(rng.standard_normal(3))
            direct = apply(compose(s, t), x).coeffs
            nested = apply(s, apply(t, x)).coeffs
            np.testing.assert_allclose(direct, nested, rtol=1e-12, atol=1e-12)


class TestAsMatrix:
    def test_dense_returns_its_read_only_matrix(self):
        op = dense_operator(np.arange(6.0).reshape(2, 3))
        mat = op.as_matrix()
        assert mat is op.stored and not mat.flags.writeable
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0

    def test_diagonal_promotes_to_a_fresh_matrix(self):
        op = diagonal_operator([1.0, 2.0])
        mat = op.as_matrix()
        np.testing.assert_array_equal(mat, np.diag([1.0, 2.0]))
        mat[0, 1] = 5.0
        np.testing.assert_array_equal(op.stored, [1.0, 2.0])


class TestSymmetricPart:
    def test_entries_near_the_float_limit_stay_finite(self):
        # 0.5 * (S + S.T) overflowed to inf before halving.
        op = dense_operator(1e308 * np.eye(3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            vals, _ = symmetric_eig(op)
            sym = symmetrize(op).stored
        np.testing.assert_array_equal(vals, [1e308] * 3)
        np.testing.assert_array_equal(sym, op.stored)

    def test_bits_of_the_halved_sum(self):
        mat = np.random.default_rng(12).standard_normal((6, 6))
        expected = 0.5 * (mat + mat.T)
        assert symmetrize(dense_operator(mat)).stored.tobytes() == expected.tobytes()
        assert symmetric_eig(dense_operator(mat), vectors=False)[0].tobytes() == (
            np.linalg.eigvalsh(expected).tobytes()
        )


class TestMoorePenroseSuite:
    """Generalized-inverse identities on randomly generated rank-deficient
    matrices, with the projector algebra they induce."""

    def test_identities_on_random_matrices(self):
        rng = np.random.default_rng(20240)
        for _ in range(100):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            rank = int(rng.integers(0, min(rows, cols) + 1))
            if rank:
                mat = rng.standard_normal((rows, rank)) @ rng.standard_normal(
                    (rank, cols)
                )
            else:
                mat = np.zeros((rows, cols))
            op = dense_operator(mat)
            bundle = pinv(op)
            tau = 1e-10 * (1.0 + operator_norm(op))
            for value in moore_penrose_residuals(op, bundle).values():
                assert value < tau
            proj = bundle.projector_pi.as_matrix()
            assert np.linalg.norm(proj @ proj - proj) < tau
            assert np.linalg.norm(proj.T - proj) < tau
            comp = bundle.projector_complement.as_matrix()
            for _ in range(5):
                xi = rng.standard_normal(cols)
                inner = abs(float((proj @ xi) @ (comp @ xi)))
                assert inner <= 1e-10 * float(xi @ xi)
            # Null space of the projector equals the null space of the matrix.
            _, _, vt = bundle.svd
            for null_vec in vt[bundle.numerical_rank :]:
                assert np.linalg.norm(proj @ null_vec) <= tau

"""Spectral weight scales, rescaled covariances, and the white-noise limit."""

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    GaussianModel,
    dense_operator,
    diagonal_operator,
    hs_diagnostics,
    optimal_b,
    pinv,
    rescaled_covariances,
    scale_weights,
    scaled_optimal_b,
    trace_class_threshold,
)
from ophp.gaussian import DecayDeclaration
from ophp.instances import laplacian_model, laplacian_operator, ramp_model, ramp_operator
from ophp.scales import scale_index

from oracles import dual_norm, scale_norm, tail_ratio


class TestScaleWeights:
    def test_ramp_weights(self):
        weights = scale_weights(ramp_operator(5), 1, pinv(ramp_operator(5)))
        np.testing.assert_array_equal(weights.indices, [1, 2, 3, 4])
        np.testing.assert_allclose(weights.kappa, [4.0, 9.0, 16.0, 25.0])
        np.testing.assert_allclose(weights.weights, [4.0, 9.0, 16.0, 25.0])

    def test_zero_index_gives_unit_weights(self):
        weights = scale_weights(ramp_operator(5), 0, pinv(ramp_operator(5)))
        np.testing.assert_array_equal(weights.weights, np.ones(4))

    def test_laplacian_weights(self):
        weights = scale_weights(laplacian_operator(3), 1, pinv(laplacian_operator(3)))
        n = np.arange(1, 4, dtype=float)
        np.testing.assert_allclose(weights.kappa, (n * np.pi) ** 4, rtol=1e-12)

    def test_dense_requires_svd(self):
        op = dense_operator(np.diag([1.0, 2.0]))
        weights = scale_weights(op, 1, pinv(op))
        np.testing.assert_allclose(sorted(weights.kappa), [1.0, 4.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            scale_weights(ramp_operator(3), -1, pinv(ramp_operator(3)))

    def test_norm_duality(self):
        bundle = pinv(ramp_operator(5))
        weights = scale_weights(ramp_operator(5), 2, bundle)
        rng = np.random.default_rng(0)
        for _ in range(20):
            coeffs = np.zeros(5)
            coeffs[1:] = rng.standard_normal(4)  # supported on the range
            h = CoeffVector(coeffs)
            lower = dual_norm(weights, bundle, h) * scale_norm(weights, bundle, h)
            assert lower >= h.norm() ** 2 - 1e-10
        single = np.zeros(5)
        single[2] = 1.7
        h = CoeffVector(single)
        product = dual_norm(weights, bundle, h) * scale_norm(weights, bundle, h)
        assert product == pytest.approx(h.norm() ** 2, rel=1e-12)

    def test_dense_norms_match_diagonal(self):
        # Dense weights are indexed by singular-value rank, so the
        # coefficients must be rotated into that order before weighting.
        diag_op = diagonal_operator([1.0, 2.0])
        diag_bundle = pinv(diag_op)
        diag = scale_weights(diag_op, 1, diag_bundle)
        op = dense_operator(np.diag([1.0, 2.0]))
        bundle = pinv(op)
        dense = scale_weights(op, 1, bundle)
        for coeffs in ([1.0, 0.0], [0.0, 1.0], [0.3, -1.2]):
            h = CoeffVector(coeffs)
            for norm in (dual_norm, scale_norm):
                assert norm(dense, bundle, h) == pytest.approx(
                    norm(diag, diag_bundle, h), rel=1e-12
                )

    def test_null_space_has_zero_dual_norm(self):
        bundle = pinv(ramp_operator(4))
        weights = scale_weights(ramp_operator(4), 1, bundle)
        y0 = CoeffVector([3.0, 0.0, 0.0, 0.0])
        assert dual_norm(weights, bundle, y0) == 0.0

    def test_keeps_the_components_pinv_keeps(self):
        # The cutoff of pinv(A) is eps * dim times the largest singular
        # value, about 1.8e-15 here: 1e-17 lies below it and 1e-12 above it.
        spectrum = [1e-17, 1.0, 1e-12, 2.0]
        op = diagonal_operator(spectrum)
        bundle = pinv(op)
        weights = scale_weights(op, 1, bundle)
        assert bundle.numerical_rank == 3
        np.testing.assert_array_equal(weights.indices, [1, 2, 3])
        np.testing.assert_array_equal(
            weights.indices, np.nonzero(bundle.projector_pi.multipliers)[0]
        )
        np.testing.assert_array_equal(weights.kappa, [1.0, 1e-24, 4.0])
        # A dense operator with the same spectrum, rotated: the weights keep
        # the leading numerical_rank right singular vectors.
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        rotated = dense_operator(q @ np.diag(spectrum) @ q.T)
        bundle = pinv(rotated)
        weights = scale_weights(rotated, 1, bundle)
        assert bundle.numerical_rank == 3
        np.testing.assert_array_equal(weights.indices, [0, 1, 2])
        np.testing.assert_allclose(weights.kappa, [4.0, 1.0, 1e-24], rtol=1e-3)
        rotation = bundle.svd[2]
        kept = rotation[:3].T @ rotation[:3]
        np.testing.assert_allclose(kept, bundle.projector_pi.matrix, atol=1e-12)


class TestRescaledCovariances:
    def test_zero_index_is_bit_identical(self):
        model = ramp_model(4, 1.0, 2.0)
        su, sv = rescaled_covariances(model, 0)
        assert su is model.sigma_u
        assert sv is model.sigma_v

    def test_white_noise_ramp(self):
        sigma_u = 0.8
        model = ramp_model(5, sigma_u, 1.0)
        su, _ = rescaled_covariances(model, 1)
        j = np.arange(2, 6, dtype=float)
        np.testing.assert_allclose(su.multipliers[1:], sigma_u / j**4, rtol=1e-12)
        assert su.multipliers[0] == 0.0

    def test_laplacian_entries(self):
        sigma_v = 0.6
        dim = 4
        model = laplacian_model(dim, 1.0, sigma_v)
        _, sv = rescaled_covariances(model, 1)
        n = np.arange(1, dim + 1, dtype=float)
        np.testing.assert_allclose(
            sv.multipliers, sigma_v / (n * np.pi) ** 8, rtol=1e-12
        )

    def test_dense_agrees_with_diagonal(self):
        dim = 4
        rng = np.random.default_rng(1)
        su = rng.uniform(0.5, 2.0, dim)
        sv = rng.uniform(0.5, 2.0, dim)
        diag_model = ramp_model(dim, su, sv)
        dense_model = GaussianModel.build(
            dense_operator(diag_model.a.as_matrix()),
            dense_operator(np.diag(su)),
            dense_operator(np.diag(sv)),
        )
        su_d, sv_d = rescaled_covariances(dense_model, 1)
        su_ref, sv_ref = rescaled_covariances(diag_model, 1)
        np.testing.assert_allclose(
            su_d.as_matrix(), np.diag(su_ref.multipliers), atol=1e-12
        )
        np.testing.assert_allclose(
            sv_d.as_matrix(), np.diag(sv_ref.multipliers), atol=1e-12
        )


class TestTraceClassThreshold:
    def test_white_noise_on_ramp_spectrum(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert trace_class_threshold(decl) == 1

    def test_already_trace_class(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=2.0, sigma_v_decay=2.0)
        assert trace_class_threshold(decl) == 0

    def test_bounded_spectrum_never_summable(self):
        decl = DecayDeclaration(kappa_decay=0.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert trace_class_threshold(decl) is None

    def test_mixed_requirements_take_max(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=2.0, sigma_v_decay=0.0)
        assert trace_class_threshold(decl) == 1


class TestScaleIndex:
    def test_configured_index_comes_before_the_threshold(self):
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert scale_index(None, decl) == (1, 1)
        assert scale_index(0, decl) == (0, 1)
        assert scale_index(3, None) == (3, None)
        assert scale_index(None, None) == (None, None)

    def test_no_finite_threshold(self):
        decl = DecayDeclaration(kappa_decay=0.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        assert scale_index(None, decl) == (None, None)
        assert scale_index(2, decl) == (2, None)


class TestScaledOptimalB:
    def test_white_noise_reduces_to_ratio(self):
        sigma_u, sigma_v = 2.0, 0.5
        for model, n0 in (
            (ramp_model(6, sigma_u, sigma_v), 1),
            (laplacian_model(6, sigma_u, sigma_v), 1),
        ):
            for n in range(n0, n0 + 4):
                scaled = scaled_optimal_b(model, n)
                mask = model.pinv_bundle.range_projector.multipliers > 0.5
                mult = scaled.multipliers[mask]
                assert np.ptp(mult) < 1e-12
                np.testing.assert_allclose(mult, sigma_u / sigma_v, rtol=1e-12)

    def test_zero_index_matches_unscaled(self):
        dim = 5
        rng = np.random.default_rng(2)
        model = ramp_model(dim, rng.uniform(0.5, 2.0, dim), rng.uniform(0.5, 2.0, dim))
        np.testing.assert_array_equal(
            scaled_optimal_b(model, 0).multipliers, optimal_b(model).multipliers
        )

    def test_four_factor_assembly_oracle(self):
        # Direct term-by-term assembly: pinv* then rescaled sigma_u then the
        # operator adjoint then the rescaled sigma_v inverse, per component.
        dim = 5
        j = np.arange(1, dim + 1, dtype=float)
        model = ramp_model(dim, 1.0, j**2)
        n = 1
        scaled = scaled_optimal_b(model, n)
        a = model.a.multipliers
        pinv_mult = model.pinv_bundle.pinv.multipliers
        kappa = np.where(a > 0, a**2, np.inf)
        su_tilde = 1.0 / kappa ** (2 * n)
        sv_tilde = j**2 / kappa ** (2 * n)
        expected = np.where(
            a > 0, pinv_mult * su_tilde * a / np.where(a > 0, sv_tilde, 1.0), 0.0
        )
        np.testing.assert_allclose(scaled.multipliers, expected, rtol=1e-12)
        # On the range this collapses to sigma_u / sigma_v = 1/j^2.
        np.testing.assert_allclose(
            scaled.multipliers[1:], 1.0 / j[1:] ** 2, rtol=1e-12
        )


class TestTailRatio:
    def test_summable_tail_is_flat(self):
        n = np.arange(1, 20_001, dtype=float)
        assert tail_ratio(n**-4.0) < 0.05

    def test_flat_terms_double(self):
        assert tail_ratio(np.ones(20_000)) == pytest.approx(1.0)

    def test_threshold_agrees_with_partial_sums(self):
        # White noise on the ramp spectrum: rescaled entries decay like
        # j**(-4n); at the threshold the tail flattens, below it the partial
        # sums keep growing.
        decl = DecayDeclaration(kappa_decay=2.0, sigma_u_decay=0.0, sigma_v_decay=0.0)
        n0 = trace_class_threshold(decl)
        assert n0 == 1
        j = np.arange(1, 20_001, dtype=float)
        assert tail_ratio(j ** (-4.0 * n0)) < 0.05
        assert tail_ratio(j ** (-4.0 * 0)) > 0.5

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            tail_ratio(np.ones(7))


class TestScaledModelDiagnostics:
    def test_rescaled_model_is_valid_and_trace_class_like(self):
        # The rescaled covariances define a legitimate model with zero mean;
        # its diagnostics reflect the restored summability.
        model = ramp_model(6, 1.0, 1.0)
        su, sv = rescaled_covariances(model, 1)
        scaled_model = GaussianModel.build(model.a, su, sv)
        report = hs_diagnostics(
            scaled_model,
            DecayDeclaration(kappa_decay=2.0, sigma_u_decay=4.0, sigma_v_decay=4.0),
        )
        assert report.qv_trace_summable is True
        assert report.trace_qv <= report.trace_sigma_u

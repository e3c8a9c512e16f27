"""Covariance algebra, conditional mean, diagnostics, and sampling."""

import numpy as np
import pytest

from ophp import (
    CoeffVector,
    GaussianModel,
    ModelError,
    RankDeficiencyWarning,
    conditional_mean,
    dense_operator,
    diagonal_operator,
    hs_diagnostics,
    qv,
)
from ophp.gaussian import DEFAULT_CHUNK, DecayDeclaration, regression_slope
from ophp.validate import commutation_check

from oracles import (
    identity,
    joint_covariance,
    laplacian_model,
    ramp_model,
    sample_joint,
    zero,
)


def _cov_se(sigma, count):
    # Standard error of Gaussian sample-covariance entries.
    d = np.diag(sigma)
    return np.sqrt((np.outer(d, d) + sigma**2) / count)


class TestModelValidation:
    def test_rejects_asymmetric_covariance(self):
        a = identity(3)
        bad = dense_operator([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(ModelError):
            GaussianModel.build(a, bad, identity(3))

    def test_rejects_negative_eigenvalue(self):
        a = identity(2)
        bad = diagonal_operator([1.0, -0.5])
        with pytest.raises(ModelError):
            GaussianModel.build(a, bad, identity(2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_covariance(self, bad):
        a = identity(2)
        for sigma in (
            diagonal_operator([1.0, bad]),
            dense_operator([[1.0, 0.0], [0.0, bad]]),
        ):
            with pytest.raises(ModelError, match="non-finite"):
                GaussianModel.build(a, sigma, identity(2))
            with pytest.raises(ModelError, match="non-finite"):
                GaussianModel.build(a, identity(2), sigma)

    def test_rejects_spectra_beyond_the_float_range(self):
        # Finite entries whose eigenvalue or singular value overflows: the
        # PSD floor of an infinite spectrum is infinite, and pinv kept rank
        # 0 at an infinite cutoff.
        big = np.full((2, 2), 1.5e308)
        with pytest.raises(ModelError, match="sigma_v has an eigenvalue beyond"):
            GaussianModel.build(identity(2), identity(2), dense_operator(big))
        with pytest.raises(ModelError, match="singular values of A overflow"):
            GaussianModel.build(dense_operator(big), identity(2), identity(2))

    def test_rejects_y0_outside_null_space(self):
        with pytest.raises(ModelError):
            ramp_model(3, 1.0, 1.0, y0=CoeffVector([0.0, 1.0, 0.0]))
        # First component spans the null space, so this is fine.
        model = ramp_model(3, 1.0, 1.0, y0=CoeffVector([2.0, 0.0, 0.0]))
        assert model.y0.coeffs[0] == 2.0

    def test_rejects_small_y0_in_the_range(self):
        # The range component is checked against the rounding of |y0|, not
        # in absolute terms, so a small y0 outside the null space is refused.
        with pytest.raises(ModelError, match="null space"):
            ramp_model(4, 1e-20, 1e-20, y0=CoeffVector([0.0, 5e-11, 0.0, 0.0]))

    def test_covariance_checks_read_the_rounding_bound(self):
        # About 70 times the bound, off the symmetry or the PSD floor, is
        # refused; the rotated covariance itself reads below 0.01 of it.
        dim = 64
        q, _ = np.linalg.qr(np.random.default_rng(7).standard_normal((dim, dim)))
        d = np.random.default_rng(8).uniform(0.5, 2.0, dim)
        good = (q * d) @ q.T
        GaussianModel.build(identity(dim), dense_operator(good), identity(dim))
        asym = good.copy()
        asym[0, 1] += 1e-12 * (1.0 + np.abs(good).max())
        with pytest.raises(ModelError, match="symmetric"):
            GaussianModel.build(identity(dim), dense_operator(asym), identity(dim))
        d[0] = -1e-12 * (1.0 + d.max())
        with pytest.raises(ModelError, match="PSD floor"):
            GaussianModel.build(identity(dim), dense_operator((q * d) @ q.T), identity(dim))

    def test_psd_floor_scales_with_the_spectrum(self):
        # The all-ones matrix at dim 512 has entries 1 but eigenvalue 512;
        # its computed null eigenvalues are rounding of the latter.
        ones = dense_operator(np.ones((512, 512)))
        GaussianModel.build(identity(512), ones, identity(512))

    def test_noncommuting_sigma_u_measured(self):
        a = diagonal_operator([0.0, 2.0, 3.0])
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 3))
        sigma = dense_operator(m @ m.T)  # generic: does not commute with projector
        model = GaussianModel.build(a, sigma, identity(3))
        assert commutation_check(model).details["commutator_norm"] > 1e-6

    def test_commuting_autodetected_for_diagonal(self):
        model = ramp_model(4, np.array([0.5, 1.0, 1.5, 2.0]), 1.0)
        assert commutation_check(model).details["commutator_norm"] == 0.0


class TestQv:
    def test_identity_operator(self):
        model = GaussianModel.build(
            identity(2), zero(2), diagonal_operator([1.0, 2.0])
        )
        np.testing.assert_allclose(qv(model).stored, [1.0, 2.0])

    def test_laplacian_spectral_oracle(self):
        # Independent spectral arithmetic: q_n = sigma_v_n / (n pi)^4.
        dim = 5
        rng = np.random.default_rng(1)
        sv = rng.uniform(0.5, 2.0, dim)
        model = laplacian_model(dim, 1.0, sv)
        n = np.arange(1, dim + 1, dtype=float)
        np.testing.assert_allclose(
            qv(model).stored, sv / (n * np.pi) ** 4, rtol=1e-12
        )

    def test_ramp_component_oracle(self):
        model = ramp_model(4, 1.0, 1.0)
        np.testing.assert_allclose(
            qv(model).stored, [0.0, 0.25, 1.0 / 9.0, 0.0625], rtol=1e-14
        )

    def test_joint_covariance_blocks(self):
        model = ramp_model(4, 1.0, 1.0)
        q = qv(model).as_matrix()
        block = joint_covariance(model)
        # The covariance of (x, y) = (y + u, pinv(A) A pinv(A) v) from the
        # generative map, with unit noise covariances.
        a = model.a.as_matrix()
        signal = np.linalg.pinv(a) @ a @ np.linalg.pinv(a)
        factor = np.block([[np.eye(4), signal], [np.zeros((4, 4)), signal]])
        np.testing.assert_allclose(block, factor @ factor.T, atol=1e-15)
        np.testing.assert_allclose(block[:4, 4:], q)
        np.testing.assert_allclose(block[4:, :4], q)
        np.testing.assert_allclose(block[4:, 4:], q)
        np.testing.assert_allclose(
            block[:4, :4], model.sigma_u.as_matrix() + q
        )
        assert np.abs(block - block.T).max() <= 1e-14


class TestConditionalMean:
    def test_zero_observation_noise_returns_data(self):
        model = GaussianModel.build(
            identity(3), zero(3), diagonal_operator([1.0, 2.0, 3.0])
        )
        x = CoeffVector([0.3, -1.2, 4.0])
        np.testing.assert_allclose(conditional_mean(model, x).coeffs, x.coeffs)

    def test_scalar_formula(self):
        a, su, sv = 2.0, 0.7, 1.3
        model = GaussianModel.build(
            diagonal_operator([a]), diagonal_operator([su]), diagonal_operator([sv])
        )
        x = CoeffVector([1.7])
        expected = (sv / a**2) / (su + sv / a**2) * 1.7
        assert conditional_mean(model, x).coeffs[0] == pytest.approx(expected)

    def test_affine_and_exact_at_y0(self):
        model = ramp_model(4, 1.0, 1.0, y0=CoeffVector([1.5, 0.0, 0.0, 0.0]))
        at_y0 = conditional_mean(model, model.y0)
        np.testing.assert_array_equal(at_y0.coeffs, model.y0.coeffs)
        rng = np.random.default_rng(2)
        x1 = CoeffVector(rng.standard_normal(4))
        x2 = CoeffVector(rng.standard_normal(4))
        lam = 0.4
        mix = CoeffVector(lam * x1.coeffs + (1 - lam) * x2.coeffs)
        mixed = conditional_mean(model, mix)
        combo = (
            lam * conditional_mean(model, x1).coeffs
            + (1 - lam) * conditional_mean(model, x2).coeffs
        )
        np.testing.assert_allclose(mixed.coeffs, combo, atol=1e-13)

    def test_rank_deficiency_warns(self):
        model = ramp_model(3, np.array([0.0, 1.0, 1.0]), 1.0)
        with pytest.warns(RankDeficiencyWarning):
            conditional_mean(model, CoeffVector([1.0, 1.0, 1.0]))

    def test_monte_carlo_regression(self):
        # Least-squares slope of sampled signal on sampled data vs the model
        # slope, entrywise within 3 standard errors.
        dim = 4
        count = 100_000
        model = ramp_model(
            dim, np.array([0.7, 1.1, 0.9, 1.3]), np.array([1.2, 0.8, 1.0, 0.6])
        )
        target = regression_slope(model).as_matrix()
        data = sample_joint(model, count, seed=314)
        x = data.x
        y = data.y
        gram_inv = np.linalg.pinv(x.T @ x)
        slope_hat = y.T @ x @ gram_inv
        resid = y - x @ slope_hat.T
        sigma2 = (resid**2).sum(axis=0) / (count - dim)
        stderr = np.sqrt(np.outer(sigma2, np.diag(gram_inv)))
        assert np.all(np.abs(slope_hat - target) <= 3.0 * stderr + 1e-12)


class TestHsDiagnostics:
    def test_closed_form_diagonal(self):
        model = GaussianModel.build(
            identity(2), identity(2), diagonal_operator([1.0, 1.0])
        )
        report = hs_diagnostics(model)
        assert report.trace_qv == pytest.approx(2.0)
        assert report.trace_sigma_u == pytest.approx(2.0)
        assert report.hs_norm**2 == pytest.approx(1.0)
        assert report.injective

    def test_laplacian_partial_trace(self):
        # Partial-sum oracle: trace of Q_v at truncation N is sum of
        # 1/(n^6 pi^4) for sigma_v_n = n^-2.
        dim = 16
        n = np.arange(1, dim + 1, dtype=float)
        model = laplacian_model(dim, 1.0, n**-2.0)
        report = hs_diagnostics(
            model, DecayDeclaration(kappa_decay=4.0, sigma_u_decay=0.0, sigma_v_decay=2.0)
        )
        assert report.trace_qv == pytest.approx(float((1.0 / (n**6 * np.pi**4)).sum()))
        assert report.qv_trace_summable is True
        assert report.hs_summable is True

    def test_flat_qv_spectrum_diverges(self):
        # sigma_v = (n pi)^4 makes Q_v flat, so the partial trace grows
        # linearly and the declared-exponent verdict is FAIL.
        traces = []
        for dim in (8, 16):
            n = np.arange(1, dim + 1, dtype=float)
            model = laplacian_model(dim, 1.0, (n * np.pi) ** 4)
            report = hs_diagnostics(
                model,
                DecayDeclaration(kappa_decay=4.0, sigma_u_decay=0.0, sigma_v_decay=-4.0),
            )
            traces.append(report.trace_qv)
            assert report.qv_trace_summable is False
        assert traces[1] == pytest.approx(2.0 * traces[0], rel=1e-10)

    def test_non_injective_flagged(self):
        model = ramp_model(3, np.array([0.0, 1.0, 1.0]), 1.0)
        report = hs_diagnostics(model)
        assert not report.injective


class TestSampleJoint:
    def test_degenerate_covariances(self):
        y0 = CoeffVector([2.0, 0.0, 0.0])
        model = ramp_model(3, 0.0, 0.0, y0=y0)
        data = sample_joint(model, 10, seed=0)
        np.testing.assert_array_equal(data.u, np.zeros((10, 3)))
        np.testing.assert_array_equal(data.v, np.zeros((10, 3)))
        np.testing.assert_array_equal(data.y, np.tile(y0.coeffs, (10, 1)))
        np.testing.assert_array_equal(data.x, data.y)

    def test_reproducible_and_chunked(self):
        model = ramp_model(4, 1.0, 1.0)
        a = sample_joint(model, 3000, seed=5)
        b = sample_joint(model, 3000, seed=5)
        np.testing.assert_array_equal(a.x, b.x)
        # Per-chunk streams: a prefix of whole chunks is unchanged.
        c = sample_joint(model, 2 * DEFAULT_CHUNK, seed=5)
        np.testing.assert_array_equal(a.x[: 2 * DEFAULT_CHUNK], c.x)

    def test_data_covariance_matches_model(self):
        count = 100_000
        model = ramp_model(
            4, np.array([0.7, 1.1, 0.9, 1.3]), np.array([1.2, 0.8, 1.0, 0.6])
        )
        data = sample_joint(model, count, seed=77)
        target = model.sigma_u.as_matrix() + qv(model).as_matrix()
        sample_cov = np.cov(data.x.T, bias=True)
        assert np.all(
            np.abs(sample_cov - target) <= 3.0 * _cov_se(target, count) + 1e-12
        )

    def test_cross_covariance_matches_qv(self):
        count = 100_000
        model = ramp_model(
            4, np.array([0.7, 1.1, 0.9, 1.3]), np.array([1.2, 0.8, 1.0, 0.6])
        )
        data = sample_joint(model, count, seed=78)
        q = qv(model).as_matrix()
        xx = model.sigma_u.as_matrix() + q
        cross = data.x.T @ data.y / count
        se = np.sqrt((np.outer(np.diag(xx), np.diag(q)) + q**2) / count)
        assert np.all(np.abs(cross - q) <= 3.0 * se + 1e-12)

    def test_u_v_independence(self):
        count = 50_000
        model = ramp_model(4, 1.0, 1.0)
        data = sample_joint(model, count, seed=79)
        cross = data.u.T @ data.v / count
        se = np.sqrt(np.outer(data.u.var(axis=0), data.v.var(axis=0)) / count)
        assert np.all(np.abs(cross) <= 3.0 * se + 1e-12)

    def test_projected_noise_split_independence(self):
        count = 50_000
        model = ramp_model(4, np.array([0.5, 1.0, 1.5, 2.0]), 1.0)
        assert commutation_check(model).details["commutator_norm"] == 0.0
        pi = model.pinv_bundle.projector_pi.stored
        data = sample_joint(model, count, seed=80)
        inside = data.u * pi[None, :]
        outside = data.u * (1.0 - pi)[None, :]
        cross = inside.T @ outside / count
        se = np.sqrt(
            np.outer(inside.var(axis=0), outside.var(axis=0)) / count
        )
        assert np.all(np.abs(cross) <= 3.0 * se + 1e-12)
        # Projected covariance identity for commuting models.
        pmat = model.pinv_bundle.projector_pi.as_matrix()
        smat = model.sigma_u.as_matrix()
        assert np.linalg.norm(pmat @ smat @ pmat - pmat @ smat) <= 1e-10

    def test_covariances_stay_psd_through_algebra(self):
        rng = np.random.default_rng(81)
        m = rng.standard_normal((4, 4))
        model = GaussianModel.build(
            dense_operator(rng.standard_normal((4, 4))),
            dense_operator(m @ m.T),
            dense_operator(np.diag(rng.uniform(0.1, 1.0, 4))),
        )
        block = joint_covariance(model)
        for cov in (qv(model).as_matrix(), block[:4, :4]):
            eigvals = np.linalg.eigvalsh(cov)
            assert eigvals.min() >= -1e-10
        assert np.linalg.eigvalsh(block).min() >= -1e-10

    def test_signal_noise_confined_to_range(self):
        model = ramp_model(4, 1.0, 1.0)
        data = sample_joint(model, 100, seed=82)
        np.testing.assert_array_equal(data.v[:, 0], np.zeros(100))
